package analysis

import (
	"go/ast"
	"go/constant"
	"regexp"
	"strings"
)

// Metricname enforces the metric naming convention at every obs registry
// call site. Metrics are flat strings interned at init time across many
// packages, so nothing structural stops "Serve.Requests" and
// "serve.requests" coexisting as two different series; the Prometheus
// exposition, the e2ebench scrapers and the Makefile smokes all key
// on exact names. The convention is subsystem.noun or subsystem.noun.verb:
// two or three lowercase dotted segments of [a-z][a-z0-9_]*. A label
// suffix in braces (serve.http.requests{route="/v1/jobs"}) is stripped
// before the family name is checked; names built at runtime (fmt.Sprintf,
// concatenation with variables) are not constant-folded and are skipped —
// the convention is checked where the family is spelled out.
var Metricname = &Analyzer{
	Name: "metricname",
	Doc:  "obs metric names are lowercase dotted subsystem.noun[.verb]",
	Run:  runMetricname,
}

// metricNameRe is the allowed family shape: 2 or 3 dotted segments, each
// starting with a letter, lowercase throughout.
var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*){1,2}$`)

// metricGetters are the obs registry entry points that intern a name.
var metricGetters = map[string]bool{
	"GetCounter":   true,
	"GetGauge":     true,
	"GetHistogram": true,
}

func runMetricname(pass *Pass) {
	info := pass.Pkg.Info
	pass.Pkg.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || !metricGetters[fn.Name()] || fn.Pkg() == nil || pathTail(fn.Pkg().Path()) != "obs" {
			return true
		}
		tv, ok := info.Types[call.Args[0]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			return true // runtime-built name; nothing to check statically
		}
		name := constant.StringVal(tv.Value)
		family := name
		// A labelled series checks its family; the label block itself is the
		// exposition layer's concern.
		if i := strings.IndexByte(family, '{'); i >= 0 {
			if !strings.HasSuffix(family, "}") {
				pass.Reportf(call.Args[0].Pos(),
					"metric name %q has an unterminated label block; want family{k=\"v\",...}", name)
				return true
			}
			family = family[:i]
		}
		if !metricNameRe.MatchString(family) {
			pass.Reportf(call.Args[0].Pos(),
				"metric name %q is not subsystem.noun[.verb] (2-3 lowercase dotted segments of [a-z][a-z0-9_]*)", name)
		}
		return true
	})
}
