// Package telemetrylabels guards metric label cardinality.
//
// Every telemetry.L(key, value) label becomes part of a metric series key;
// an unbounded value (a PID, a path, an error string) explodes series
// cardinality in the registry. The pass requires the key to be a string
// literal or named constant, and permits non-constant values only for keys
// on a known-bounded allowlist (values drawn from small fixed sets such as
// device indices or verdict names).
package telemetrylabels

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"

	"github.com/kfrida1/csdinf/tools/analyzers/analysis"
)

// telemetryPath matches the import path suffix of the root module's
// telemetry package, so the pass keeps working if the module is renamed.
const telemetryPath = "/internal/telemetry"

// boundedKeys are label keys whose value sets are known small: dynamic
// values are acceptable for these. Everything else must use a literal or
// named-constant value.
var boundedKeys = map[string]bool{
	"device": true, "verdict": true, "level": true, "platform": true,
	"kernel": true, "experiment": true, "outcome": true,
	// "stage" values come from the telemetry.Stage enum (queue, encode,
	// transfer, compute, verdict, observe).
	"stage": true,
	// "family" values pass through quality.SanitizeFamily, which bounds
	// them to the sandbox catalog vocabulary plus "benign"/"unknown"/
	// "other".
	"family": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "telemetrylabels",
	Doc:  "telemetry label keys must be constant; dynamic values only for bounded keys",
	Run:  run,
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Pkg.Files {
		telName := importNameBySuffix(f, telemetryPath)
		if telName == "" {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "L" {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok || ident.Name != telName || len(call.Args) != 2 {
				return true
			}
			checkLabel(pass, f, call)
			return true
		})
	}
}

func importNameBySuffix(f *analysis.File, suffix string) string {
	for name, path := range f.Imports {
		if strings.HasSuffix(path, suffix) {
			return name
		}
	}
	return ""
}

func checkLabel(pass *analysis.Pass, f *analysis.File, call *ast.CallExpr) {
	key, value := call.Args[0], call.Args[1]
	lit, keyIsLiteral := key.(*ast.BasicLit)
	if !keyIsLiteral {
		// A bare identifier is assumed to be a named constant; anything
		// computed is out.
		if _, ok := key.(*ast.Ident); !ok {
			pass.Reportf(f, key.Pos(), "telemetry label key must be a string literal or named constant")
		}
		return
	}
	if lit.Kind != token.STRING {
		pass.Reportf(f, key.Pos(), "telemetry label key must be a string")
		return
	}
	keyVal, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if isConstantish(value) || boundedKeys[keyVal] {
		return
	}
	pass.Reportf(f, value.Pos(),
		"dynamic value for unbounded telemetry label key %q risks series-cardinality blowup; use a bounded key or a constant value (//csdlint:allow telemetrylabels <reason> if the value set is provably small)",
		keyVal)
}

// isConstantish reports whether expr is statically a small fixed value: a
// literal, a bare identifier (assumed const), or a selected constant like
// pkg.Name.
func isConstantish(expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		_, ok := e.X.(*ast.Ident)
		return ok
	}
	return false
}
