package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specsampling/internal/simpoint"
)

func TestRunValidation(t *testing.T) {
	if err := run(context.Background(), nil); err == nil {
		t.Error("missing -bench accepted")
	}
	if err := run(context.Background(), []string{"-bench", "nope"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run(context.Background(), []string{"-bench", "505.mcf_r", "-scale", "nope"}); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run(context.Background(), []string{"-bench", "505.mcf_r", "-scale", "small", "-maxk", "-5"}); err == nil {
		t.Error("-maxk -5 accepted")
	}
	// The range is checked before the analysis, with the flag's own message.
	for _, p := range []string{"1.5", "-0.5"} {
		err := run(context.Background(), []string{"-bench", "505.mcf_r", "-scale", "small", "-percentile", p})
		if err == nil || !strings.HasPrefix(err.Error(), "-percentile "+p+":") {
			t.Errorf("-percentile %s: err = %v, want a -percentile range error", p, err)
		}
	}
}

func TestRunWritesFiles(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "omn")
	err := run(context.Background(), []string{"-bench", "omnetpp_r", "-scale", "small",
		"-percentile", "0.9", "-o", prefix})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{
		prefix + ".simpoints", prefix + ".weights",
		prefix + ".p90.simpoints", prefix + ".p90.weights",
	} {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("missing output %s: %v", f, err)
		}
	}
}

func TestRunWeightedMode(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "omn")
	err := run(context.Background(), []string{"-bench", "omnetpp_r", "-scale", "small",
		"-weighted", "-o", prefix})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := simpoint.ReadFiles(prefix)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, pt := range pts {
		sum += pt.Weight
	}
	// The weights file prints six decimals per point.
	if len(pts) == 0 || math.Abs(sum-1) > 1e-6*float64(len(pts)) {
		t.Errorf("%d weighted points with weights summing to %v, want 1", len(pts), sum)
	}
}
