package sema

import "repro/internal/excess/ast"

// Kinds lists the statement kind names in KindIndex order, so the
// database layer resolves its per-kind counters (stmt.retrieve,
// stmt.append, ...) once instead of on every statement.
var Kinds = [...]string{"retrieve", "append", "delete", "replace", "set", "execute",
	"define", "create", "drop", "range", "grant", "other"}

// KindOf names a statement for per-kind accounting.
func KindOf(st ast.Statement) string { return Kinds[KindIndex(st)] }

// KindIndex is the statement's kind as an index into Kinds.
func KindIndex(st ast.Statement) int {
	switch st.(type) {
	case *ast.Retrieve:
		return 0
	case *ast.Append:
		return 1
	case *ast.Delete:
		return 2
	case *ast.Replace:
		return 3
	case *ast.SetStmt:
		return 4
	case *ast.Execute:
		return 5
	case *ast.DefineType, *ast.DefineEnum, *ast.DefineFunction,
		*ast.DefineProcedure, *ast.DefineIndex:
		return 6
	case *ast.Create:
		return 7
	case *ast.Drop:
		return 8
	case *ast.RangeDecl:
		return 9
	case *ast.Grant, *ast.Revoke:
		return 10
	}
	return len(Kinds) - 1
}

// ReadOnly reports whether a statement only reads engine state, which
// is what lets the database layer run it under the shared side of its
// readers-writer statement lock. Only a retrieve without an into clause
// qualifies: retrieve into materializes a new database variable, the
// QUEL update statements and DDL mutate the store or catalog, a range
// declaration writes the session's range table, grant/revoke write the
// authorization tables, and execute runs an arbitrary procedure body.
func ReadOnly(st ast.Statement) bool {
	r, ok := st.(*ast.Retrieve)
	return ok && r.Into == ""
}
