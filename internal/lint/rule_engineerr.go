package lint

import (
	"go/ast"
)

func init() {
	Register(&Analyzer{
		Name: "unchecked-engine-err",
		Doc: "discarding the error from the engine's run/verify entry points " +
			"(RunCtx, ExecuteCtx, Verify, RepairSchedule, ...) fails the build: " +
			"these errors carry cancellation, fault, and verification outcomes " +
			"that callers must route, not drop",
		Run: runUncheckedEngineErr,
	})
}

// engineErrFuncs are the module functions/methods whose error result must
// never be discarded. They are matched by name against type-resolved,
// module-local callees whose last result is error.
var engineErrFuncs = map[string]bool{
	"RunCtx": true, "RunCtxErr": true, "RunErr": true,
	"ExecuteCtx": true, "ExecuteOnCtx": true, "ExecuteTracedCtx": true,
	"ExecuteCheckpointCtx": true, "ResumeOnCtx": true,
	"Verify": true, "VerifyDeep": true, "Validate": true, // incl. Unverified.Verify
	"RepairSchedule": true, "RunChurn": true,
}

func runUncheckedEngineErr(p *Pass) {
	info := p.TypesInfo()

	// guarded reports whether the call's error result is discarded by the
	// statement that contains it.
	flag := func(call *ast.CallExpr, how string) {
		obj := calleeObject(info, call)
		if obj == nil || !engineErrFuncs[obj.Name()] {
			return
		}
		if !moduleLocal(obj, p.Pkg.ModulePath) || !funcReturnsErrorLast(obj) {
			return
		}
		p.Reportf(call.Pos(), "%s from %s %s; the engine's error carries cancellation/fault/verification state and must be handled",
			"error", renderCallee(call), how)
	}

	for _, file := range p.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					flag(call, "is discarded (call used as a statement)")
				}
			case *ast.GoStmt:
				flag(stmt.Call, "is discarded (goroutine result vanishes)")
			case *ast.DeferStmt:
				flag(stmt.Call, "is discarded (deferred without inspection)")
			case *ast.AssignStmt:
				// x, _ := f()  /  _ = f(): the error position must not be
				// blank.
				if len(stmt.Rhs) != 1 {
					return true
				}
				call, ok := stmt.Rhs[0].(*ast.CallExpr)
				if !ok || len(stmt.Lhs) == 0 {
					return true
				}
				last, ok := stmt.Lhs[len(stmt.Lhs)-1].(*ast.Ident)
				if ok && last.Name == "_" {
					flag(call, "is assigned to the blank identifier")
				}
			}
			return true
		})
	}
}
