// Package eventname enforces the structured event log's naming contract:
// event names are dot-scoped lowercase literals ("engine.deploy",
// "transfer.p2p") or named constants — never built at runtime. Dynamic
// names defeat grep, the forensics timeline's grouping, and the
// EventLogger's ability to enumerate its vocabulary.
//
// Without a type checker the pass recognizes logger calls by shape: a
// method call named Debug/Info/Warn/Error/Log/LogPID/LogDevice whose
// receiver is a value (not an imported package — that exclusion keeps
// http.Error and math.Log out) and whose first argument looks like a
// context. The name argument sits at index 2 for the level methods and
// index 3 for Log/LogPID/LogDevice, matching internal/eventlog's Logger.
//
// The pass also pins the component vocabulary: a literal component must
// come from the known set below, so a typo ("serv", "flete") cannot fork
// the forensics timeline's grouping. New layers add themselves to the list
// in the same change that introduces their events.
package eventname

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"

	"github.com/kfrida1/csdinf/tools/analyzers/analysis"
)

// namePattern is the event-name grammar: at least two dot-separated
// lowercase segments, hyphens and underscores allowed after the first
// character of a segment ("transfer.via-host", "engine.drc_finding").
var namePattern = regexp.MustCompile(`^[a-z][a-z0-9_-]*(\.[a-z0-9_-]+)+$`)

// nameArgIndex maps logger method names to the position of the event-name
// argument; minimum arity is index+1 (Log, LogPID, and LogDevice all carry
// level and component before the name).
var nameArgIndex = map[string]int{
	"Debug": 2, "Info": 2, "Warn": 2, "Error": 2,
	"Log": 3, "LogPID": 3, "LogDevice": 3,
}

// knownComponents is the event-emitting layer vocabulary. The component
// argument always sits immediately before the event name.
var knownComponents = map[string]bool{
	"core": true, "csd": true, "cti": true, "detect": true,
	"device": true, "engine": true, "fleet": true, "incident": true,
	"load": true, "prof": true, "quality": true, "serve": true, "slo": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "eventname",
	Doc:  "event log names must be dot-scoped lowercase literals or named constants",
	Run:  run,
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			idx, ok := nameArgIndex[sel.Sel.Name]
			if !ok || len(call.Args) <= idx {
				return true
			}
			// Skip package-qualified functions (http.Error, math.Log):
			// the receiver of a logger call is a value, never an import.
			if ident, ok := sel.X.(*ast.Ident); ok {
				if _, imported := f.Imports[ident.Name]; imported {
					return true
				}
			}
			if !looksLikeContext(call.Args[0]) {
				return true
			}
			checkComponent(pass, f, call.Args[idx-1])
			checkName(pass, f, call.Args[idx])
			return true
		})
	}
}

// looksLikeContext reports whether expr is plausibly a context argument: the
// conventional ctx identifier, a field selection ending in ctx/Context, or
// any call (context.Background(), telemetry.WithSpan(...), jobCtx(...)).
func looksLikeContext(expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name == "ctx" || strings.HasSuffix(e.Name, "Ctx")
	case *ast.SelectorExpr:
		name := e.Sel.Name
		return name == "ctx" || strings.HasSuffix(name, "Ctx") || strings.HasSuffix(name, "Context")
	case *ast.CallExpr:
		return true
	}
	return false
}

// checkComponent flags literal components outside the known vocabulary.
// Non-literal components (constants, parameters) are assumed to carry a
// checked literal from their declaration site.
func checkComponent(pass *analysis.Pass, f *analysis.File, arg ast.Expr) {
	lit, ok := arg.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	comp, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if !knownComponents[comp] {
		pass.Reportf(f, lit.Pos(),
			"event component %q is not a known emitting layer; add it to the eventname analyzer's vocabulary if this is a new subsystem",
			comp)
	}
}

func checkName(pass *analysis.Pass, f *analysis.File, arg ast.Expr) {
	switch e := arg.(type) {
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return
		}
		name, err := strconv.Unquote(e.Value)
		if err != nil {
			return
		}
		if !namePattern.MatchString(name) {
			pass.Reportf(f, e.Pos(),
				"event name %q is not dot-scoped lowercase (want component.action like %q)",
				name, "engine.deploy")
		}
	case *ast.Ident:
		// Assumed to be a named constant (or a parameter carrying one);
		// the constant's declaration site is where the literal is checked.
	case *ast.SelectorExpr:
		// pkg.Constant or struct field — assumed constant.
	default:
		pass.Reportf(f, arg.Pos(),
			"event name must be a string literal or named constant, not built at runtime; name the variants as constants and select between them")
	}
}
