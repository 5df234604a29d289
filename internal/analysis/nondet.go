package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// kernelPackages are the deterministic kernels: pure functions of their
// inputs whose outputs feed reports, cache artifacts and the determinism
// tests. A wall-clock read, an environment read or a draw from the global
// RNG inside one of them makes results silently run-dependent.
var kernelPackages = map[string]bool{
	"kmeans":   true,
	"simpoint": true,
	"selector": true,
	"stats":    true,
	"subset":   true,
	"bbv":      true,
	"rng":      true,
	"branch":   true,
	"cache":    true,
	"timing":   true,
	"isa":      true,
	"native":   true,
	"pinball":  true,
	"pintool":  true,
	"pin":      true,
	"program":  true,
	"workload": true,
}

// Nondet flags nondeterminism sources inside deterministic kernel packages:
// time.Now/time.Since (wall clock), os.Getenv/os.LookupEnv/os.Environ
// (ambient configuration that bypasses the Config structs the cache keys
// are derived from) and the global math/rand source (unseeded; explicit
// rand.New(rand.NewSource(seed)) values remain fine). Instrumentation-only
// clock reads are suppressed with a reasoned //lint:ignore nondet comment.
var Nondet = &Analyzer{
	Name: "nondet",
	Doc:  "no wall clock, environment or global-RNG reads in deterministic kernels",
	Run:  runNondet,
}

func runNondet(pass *Pass) {
	if !kernelPackages[pass.Pkg.Name] {
		return
	}
	info := pass.Pkg.Info
	pass.Pkg.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return true // methods (e.g. (*rand.Rand).Intn) are seeded by construction
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
				pass.Reportf(call.Pos(),
					"call to time.%s in deterministic kernel package %s; results must not depend on the wall clock",
					fn.Name(), pass.Pkg.Name)
			}
		case "os":
			if fn.Name() == "Getenv" || fn.Name() == "LookupEnv" || fn.Name() == "Environ" {
				pass.Reportf(call.Pos(),
					"call to os.%s in deterministic kernel package %s; thread configuration through a Config instead of the environment",
					fn.Name(), pass.Pkg.Name)
			}
		case "math/rand", "math/rand/v2":
			// Constructors build explicitly-seeded generators; everything
			// else draws from (or reseeds) the shared global source.
			if !strings.HasPrefix(fn.Name(), "New") {
				pass.Reportf(call.Pos(),
					"call to %s.%s uses the global RNG in deterministic kernel package %s; use an explicitly seeded rand.New(...) or internal/rng",
					pathTail(fn.Pkg().Path()), fn.Name(), pass.Pkg.Name)
			}
		}
		return true
	})
}
