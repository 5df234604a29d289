package main

import (
	"context"
	"errors"
	"testing"

	"specsampling/internal/cli"
)

func TestRunUsageErrors(t *testing.T) {
	if err := run(context.Background(), nil); err == nil {
		t.Error("no args accepted")
	}
	if err := run(context.Background(), []string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run(context.Background(), []string{"run"}); err == nil {
		t.Error("run without -bench accepted")
	}
	if err := run(context.Background(), []string{"run", "-bench", "nope"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run(context.Background(), []string{"run", "-bench", "505.mcf_r", "-scale", "huge"}); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestList(t *testing.T) {
	if err := run(context.Background(), []string{"list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBenchBounded(t *testing.T) {
	if err := run(context.Background(), []string{"run", "-bench", "omnetpp_r", "-scale", "small", "-instrs", "20000"}); err != nil {
		t.Fatal(err)
	}
}

func TestPhasesValidation(t *testing.T) {
	if err := run(context.Background(), []string{"phases"}); err == nil {
		t.Error("phases without -bench accepted")
	}
	if err := run(context.Background(), []string{"phases", "-bench", "nope"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run(context.Background(), []string{"phases", "-bench", "505.mcf_r", "-scale", "nope"}); err == nil {
		t.Error("unknown scale accepted")
	}
	for _, w := range []string{"0", "-1"} {
		if err := run(context.Background(), []string{"phases", "-bench", "505.mcf_r", "-scale", "small", "-width", w}); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("-width %s: got %v, want a usage error", w, err)
		}
	}
}

func TestPhasesTimeline(t *testing.T) {
	if err := run(context.Background(), []string{"phases", "-bench", "omnetpp_r", "-scale", "small", "-width", "40"}); err != nil {
		t.Fatal(err)
	}
}
