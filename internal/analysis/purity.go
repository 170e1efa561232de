package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// purePackagePrefixes are the pipeline packages whose per-transaction
// behavior must be a pure function of their inputs: running the same
// receipt through them twice must produce the identical report, or the
// paper's experiments stop being replayable.
var purePackagePrefixes = []string{
	"leishen/internal/core",
	"leishen/internal/trades",
	"leishen/internal/simplify",
	"leishen/internal/tagging",
	"leishen/internal/trace",
	"leishen/internal/flashloan",
}

// pureMarker opts additional packages into purity enforcement via a
// comment anywhere in the package ("// leishen:pure").
const pureMarker = "leishen:pure"

// Purity flags ambient-state reads inside pure pipeline packages
// (internal/core, internal/trades, internal/simplify, internal/tagging,
// internal/trace, internal/flashloan, and any package carrying a
// "leishen:pure" comment):
//
//   - time.Now / time.Since / time.Until — wall-clock reads; inject a
//     clock function instead (storing the time.Now function value for
//     callers to override is fine; calling it in the pipeline is not);
//   - package-level math/rand functions — they draw from the global,
//     unseeded source; thread a seeded *rand.Rand instead;
//   - os.Getenv / os.LookupEnv / os.Environ — environment reads make
//     verdicts depend on the deployment, not the transaction.
var Purity = &Analyzer{
	Name: "purity",
	Doc:  "flags wall-clock, global-rand and environment reads in pure pipeline packages",
	Run:  runPurity,
}

func runPurity(pass *Pass) {
	if !isPurePackage(pass.Pkg) {
		return
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Pkg, call)
			if fn == nil {
				return true
			}
			if msg := impureCall(fn); msg != "" {
				pass.Reportf(call.Pos(), "%s", msg)
			}
			return true
		})
	}
}

// isPurePackage reports whether the package opted into (or is forced
// into) purity enforcement.
func isPurePackage(pkg *Package) bool {
	for _, prefix := range purePackagePrefixes {
		if pkg.Path == prefix || strings.HasPrefix(pkg.Path, prefix+"/") {
			return true
		}
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			if strings.Contains(cg.Text(), pureMarker) {
				return true
			}
		}
	}
	return false
}

// impureCall classifies a resolved callee as an ambient-state read,
// returning a diagnostic message or "".
func impureCall(fn *types.Func) string {
	switch funcPkgPath(fn) {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "time." + fn.Name() + " reads the wall clock in a pure pipeline package; inject a clock function"
		}
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			return "" // methods on a seeded *rand.Rand are deterministic
		}
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return "" // constructors take an explicit seed
		}
		return "math/rand." + fn.Name() + " draws from the global rand source; thread a seeded *rand.Rand"
	case "os":
		switch fn.Name() {
		case "Getenv", "LookupEnv", "Environ":
			return "os." + fn.Name() + " reads the environment in a pure pipeline package; pass configuration explicitly"
		}
	}
	return ""
}
