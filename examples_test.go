package specsampling

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite examples/testdata/*.golden from the current code")

// TestExamplesGolden builds every example and compares its standard output
// at the default scale with examples/testdata/<name>.golden, byte for
// byte. The examples print no wall-clock values (progress goes to
// standard error), so any difference is a change in what the library
// computes. Regenerate the files with `make golden` only when a change is
// meant to move them.
func TestExamplesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden outputs are generated on amd64; GOARCH=%s may round differently", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, m := range mains {
		name := filepath.Base(filepath.Dir(m))
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Env = append(os.Environ(), "SPECSIM_SCALE=")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			path := filepath.Join("examples", "testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `make golden` to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("stdout differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
