package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunValidation(t *testing.T) {
	if err := run(context.Background(), nil); err == nil {
		t.Error("no args accepted")
	}
	if err := run(context.Background(), []string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run(context.Background(), []string{"log"}); err == nil {
		t.Error("log without -bench accepted")
	}
	if err := run(context.Background(), []string{"log", "-bench", "505.mcf_r", "-scale", "small",
		"-dir", t.TempDir(), "-maxk", "0"}); err == nil {
		t.Error("log -maxk 0 accepted")
	}
	if err := run(context.Background(), []string{"replay"}); err == nil {
		t.Error("replay without -pinball accepted")
	}
	if err := run(context.Background(), []string{"replay", "-pinball", "/nonexistent.pb"}); err == nil {
		t.Error("missing pinball file accepted")
	}
}

func TestLogThenReplay(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), []string{"log", "-bench", "omnetpp_r", "-scale", "small",
		"-dir", dir, "-warmup", "2"}); err != nil {
		t.Fatal(err)
	}
	whole := filepath.Join(dir, "520.omnetpp_r.whole.pb")
	if _, err := os.Stat(whole); err != nil {
		t.Fatalf("whole pinball missing: %v", err)
	}
	region := filepath.Join(dir, "520.omnetpp_r.region_00.pb")
	if err := run(context.Background(), []string{"replay", "-pinball", region, "-scale", "small"}); err != nil {
		t.Fatal(err)
	}
	// Two pinballs take the same path: one row each, with mix and cache
	// statistics from a private hierarchy.
	region1 := filepath.Join(dir, "520.omnetpp_r.region_01.pb")
	out := captureStdout(t, func() error {
		return run(context.Background(), []string{"replay", "-scale", "small", region, region1})
	})
	for _, p := range []string{region, region1} {
		if n := strings.Count(out, p+" "); n != 1 {
			t.Errorf("%d rows for %s in:\n%s", n, p, out)
		}
	}
	if n := strings.Count(out, "miss L1D"); n != 2 || strings.Contains(out, "L1D  0.00%") {
		t.Errorf("want 2 rows with non-zero cache statistics, got %d:\n%s", n, out)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	runErr := fn()
	os.Stdout = saved
	w.Close()
	out := string(<-done)
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}
