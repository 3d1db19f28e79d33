package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/excess/sema"
	"repro/internal/types"
	"repro/internal/value"
)

// This file compiles checked expression trees into Go closures. The
// interpreting walker (eval.go) dispatches on the node type of every
// subexpression on every row; a compiled expression pays that dispatch
// once, at compile time, and the per-row work is a chain of direct
// closure calls with the decisions baked in:
//
//   - constant subtrees (literals, arithmetic/comparison over literals,
//     ADT calls over literals — ADT member functions are side-effect
//     free by the paper's convention, the same license algebra.Build
//     uses to fold index keys) are evaluated once and become a
//     load-of-value;
//   - variable reads index the binding's slot slice directly with the
//     slot number captured in the closure (sema.Var.Slot);
//   - operator class and ADT/function targets are resolved at compile
//     time instead of switch-dispatched per row.
//
// Semantics are shared with the interpreter by construction: closures
// call the same kernels (applyBinary, logicCombine, arith, dispatchCall,
// applyStep) the walker calls, so the two paths cannot drift. The
// walker is kept as a differential oracle behind
// algebra.Options.NoCompiledExprs.

// compiledExpr is an expression compiled to a closure over the
// execution state and the current binding.
type compiledExpr func(*State, *evalCtx) (value.Value, error)

// Code is a plan's compiled form: one closure for every expression the
// executor evaluates per row, addressed by the expression's position in
// the plan and the statement. It is built once, with the plan, and is
// immutable afterwards, so the plan cache shares one Code between every
// statement that hits the entry; a cloned (instrumented) plan keeps
// its original's Code, since cloning preserves positions.
type Code struct {
	nodes   []nodeCode     // parallel to Plan.Nodes
	final   []compiledExpr // Plan.Final
	forAll  []compiledExpr // Plan.ForAll
	out     []compiledExpr // per-row outputs: targets, DML values or arguments
	groupBy []compiledExpr
	aggs    []aggCode // the targets' query-level aggregates, in walk order
}

// nodeCode holds one plan node's closures: its filter conjuncts and,
// for a hash-join node, the build and probe keys.
type nodeCode struct {
	filter       []compiledExpr
	build, probe compiledExpr
}

// aggCode is one query-level aggregate with its argument and its over
// expression (nil when it has none) compiled.
type aggCode struct {
	agg       *sema.Agg
	arg, over compiledExpr
}

// Compile compiles a retrieve's plan: node filters, hash-join keys,
// residual and forall conjuncts, and either the target list or, for an
// aggregated retrieve, its group keys and aggregate arguments. Grouped
// targets are not compiled: only the walker threads aggregate values.
func (ex *State) Compile(cq *sema.CheckedRetrieve, p *algebra.Plan) *Code {
	if !cq.Aggregated {
		return ex.compilePlan(p, cq.TargetExprs()...)
	}
	c := ex.compilePlan(p)
	c.groupBy = ex.compileAll(cq.GroupBy)
	for _, t := range cq.Targets {
		sema.WalkAggs(t.Expr, func(a *sema.Agg) {
			if a.SetArg {
				return
			}
			ac := aggCode{agg: a, arg: ex.compileTop(a.Arg)}
			if a.Over != nil {
				ac.over = ex.compileTop(a.Over)
			}
			c.aggs = append(c.aggs, ac)
		})
	}
	return c
}

// compilePlan compiles a plan's per-row predicates and keys plus the
// statement's per-row output expressions.
func (ex *State) compilePlan(p *algebra.Plan, out ...sema.Expr) *Code {
	c := &Code{
		nodes:  make([]nodeCode, len(p.Nodes)),
		final:  ex.compileAll(p.Final),
		forAll: ex.compileAll(p.ForAll),
		out:    ex.compileAll(out),
	}
	for i := range p.Nodes {
		n, nc := &p.Nodes[i], &c.nodes[i]
		nc.filter = ex.compileAll(n.Filter)
		if n.Hash != nil {
			nc.build = ex.compileTop(n.Hash.Build)
			nc.probe = ex.compileTop(n.Hash.Probe)
		}
	}
	return c
}

// compileAll compiles a list of top-level expressions, keeping their
// positions.
func (ex *State) compileAll(es []sema.Expr) []compiledExpr {
	fns := make([]compiledExpr, len(es))
	for i, e := range es {
		fns[i] = ex.compileTop(e)
	}
	return fns
}

// compileTop compiles one top-level expression, counting it under
// expr.compile.count. Under Options.NoCompiledExprs (the differential
// oracle) it emits a closure over the interpreting walker instead, so
// execution has one calling convention either way.
func (ex *State) compileTop(e sema.Expr) compiledExpr {
	if ex.opts.NoCompiledExprs {
		return walkerFn(e)
	}
	return ex.compileCounted(e)
}

// compileCounted compiles one top-level expression to a closure and
// counts the compilation.
func (ex *Executor) compileCounted(e sema.Expr) compiledExpr {
	if ex.cExprCompile != nil {
		ex.cExprCompile.Inc()
	}
	fn, _, _ := compile(e)
	return fn
}

// walkerFn evaluates an expression on the interpreting walker.
func walkerFn(e sema.Expr) compiledExpr {
	return func(ex *State, ctx *evalCtx) (value.Value, error) {
		return ex.eval(ctx, e)
	}
}

// intExpr is the unboxed integer lane of the compiler. Expression trees
// whose static type is integral evaluate to a raw int64 instead of
// allocating a value.Int per operator node per row; null carries SQL
// null propagation. Only the subtree's interior skips boxing — leaves
// (path steps, parameters, variables) unbox whatever the boxed lane
// yields, and the enclosing expression re-boxes once at the top.
type intExpr func(*State, *evalCtx) (v int64, null bool, err error)

// intTyped reports whether an expression's static type is an integer
// the decode layer represents as value.Int.
func intTyped(e sema.Expr) bool {
	t := e.Type()
	if t == nil {
		return false
	}
	switch t.Kind() {
	case types.KInt1, types.KInt2, types.KInt4:
		return true
	}
	return false
}

// compileInt lowers an expression to the unboxed integer lane; ok=false
// means the shape is not covered and the caller stays on the boxed
// lane. Semantics mirror the arith kernel exactly: both operands are
// evaluated before the null check, null propagates, and / and % by zero
// fail with the kernel's error.
func compileInt(e sema.Expr) (intExpr, bool) {
	if !intTyped(e) {
		return nil, false
	}
	switch x := e.(type) {
	case *sema.Const:
		if iv, ok := x.Val.(value.Int); ok {
			v := iv.V
			return func(*State, *evalCtx) (int64, bool, error) { return v, false, nil }, true
		}
		if value.IsNull(x.Val) {
			return func(*State, *evalCtx) (int64, bool, error) { return 0, true, nil }, true
		}
		return nil, false

	case *sema.Unary:
		if x.Op != "-" || x.Fn != nil {
			return nil, false
		}
		xf, ok := compileInt(x.X)
		if !ok {
			return nil, false
		}
		return func(ex *State, ctx *evalCtx) (int64, bool, error) {
			v, null, err := xf(ex, ctx)
			return -v, null, err
		}, true

	case *sema.Binary:
		if x.Class != sema.OpArith {
			return nil, false
		}
		switch x.Op {
		case "+", "-", "*", "/", "%":
		default:
			return nil, false
		}
		lf, lok := compileInt(x.L)
		rf, rok := compileInt(x.R)
		if !lok || !rok {
			return nil, false
		}
		op := x.Op
		return func(ex *State, ctx *evalCtx) (int64, bool, error) {
			l, lnull, err := lf(ex, ctx)
			if err != nil {
				return 0, false, err
			}
			r, rnull, err := rf(ex, ctx)
			if err != nil {
				return 0, false, err
			}
			if lnull || rnull {
				return 0, true, nil
			}
			switch op {
			case "+":
				return l + r, false, nil
			case "-":
				return l - r, false, nil
			case "*":
				return l * r, false, nil
			case "/":
				if r == 0 {
					return 0, false, fmt.Errorf("division by zero")
				}
				return l / r, false, nil
			default: // %
				if r == 0 {
					return 0, false, fmt.Errorf("division by zero")
				}
				return l % r, false, nil
			}
		}, true
	}

	// Boxed leaf (path step, parameter, variable, call): evaluate through
	// the boxed lane and unbox. The static type guarantees the runtime
	// value is Int or Null.
	bf, _, _ := compile(e)
	return func(ex *State, ctx *evalCtx) (int64, bool, error) {
		v, err := bf(ex, ctx)
		if err != nil {
			return 0, false, err
		}
		if iv, ok := v.(value.Int); ok {
			return iv.V, false, nil
		}
		if value.IsNull(v) {
			return 0, true, nil
		}
		return 0, false, fmt.Errorf("expected an integer, got %s", v)
	}, true
}

// constFn wraps a folded value as a closure.
func constFn(v value.Value) compiledExpr {
	return func(*State, *evalCtx) (value.Value, error) { return v, nil }
}

// foldable reports whether a value may be shared across rows when its
// expression folds to a constant: immutable scalars only. Collection
// and tuple values are mutable (update statements write through them),
// so folding them would alias one instance across every row.
func foldable(v value.Value) bool {
	switch v.(type) {
	case value.Int, value.Float, value.Str, value.Bool, value.Null, nil:
		return true
	}
	return false
}

// compile lowers a checked expression to a closure. The second and
// third results carry constant folding upward: when isConst, the
// expression always yields cv and the closure is a constant load.
func compile(e sema.Expr) (fn compiledExpr, cv value.Value, isConst bool) {
	switch x := e.(type) {
	case *sema.Const:
		return constFn(x.Val), x.Val, true

	case *sema.VarRef:
		slot, name := x.Var.Slot, x.Var.Name
		return func(_ *State, ctx *evalCtx) (value.Value, error) {
			b := ctx.b
			if slot < len(b.used) && b.used[slot] {
				return b.vals[slot], nil
			}
			return nil, fmt.Errorf("variable %s not bound", name)
		}, nil, false

	case *sema.ParamRef:
		name := x.Name
		return func(ex *State, _ *evalCtx) (value.Value, error) {
			for i := len(ex.params) - 1; i >= 0; i-- {
				if v, ok := ex.params[i][name]; ok {
					return v, nil
				}
			}
			return nil, fmt.Errorf("parameter %s not bound", name)
		}, nil, false

	case *sema.PathExpr:
		bf, _, _ := compile(x.Base)
		steps, baseMulti := x.Steps, x.Base.Multi()
		return func(ex *State, ctx *evalCtx) (value.Value, error) {
			cur, err := bf(ex, ctx)
			if err != nil {
				return nil, err
			}
			multi := baseMulti
			for _, st := range steps {
				cur, multi, err = ex.applyStep(ctx, cur, multi, st)
				if err != nil {
					return nil, err
				}
				if value.IsNull(cur) {
					return value.Null{}, nil
				}
			}
			return cur, nil
		}, nil, false

	case *sema.Unary:
		return compileUnary(x)

	case *sema.Binary:
		return compileBinary(x)

	case *sema.FuncCall:
		argfs := make([]compiledExpr, len(x.Args))
		for i, a := range x.Args {
			argfs[i], _, _ = compile(a)
		}
		return func(ex *State, ctx *evalCtx) (value.Value, error) {
			args := make([]value.Value, len(argfs))
			for i, af := range argfs {
				v, err := af(ex, ctx)
				if err != nil {
					return nil, err
				}
				args[i] = v
			}
			return ex.dispatchCall(x, args)
		}, nil, false

	case *sema.ADTCall:
		argfs := make([]compiledExpr, len(x.Args))
		allConst := true
		for i, a := range x.Args {
			var ac bool
			argfs[i], _, ac = compile(a)
			allConst = allConst && ac
		}
		impl := x.Fn.Impl
		fn = func(ex *State, ctx *evalCtx) (value.Value, error) {
			args := make([]value.Value, len(argfs))
			for i, af := range argfs {
				v, err := af(ex, ctx)
				if err != nil {
					return nil, err
				}
				if value.IsNull(v) {
					return value.Null{}, nil
				}
				args[i] = deobject(v)
			}
			return impl(args)
		}
		if allConst {
			if v, err := fn(nil, nil); err == nil && foldable(v) {
				return constFn(v), v, true
			}
		}
		return fn, nil, false
	}

	// Rare or context-dependent kinds (aggregates, constructors, extent
	// and database-variable reads) stay on the interpreting walker.
	return walkerFn(e), nil, false
}

// compileUnary compiles not / - / ADT prefix operators, folding over a
// constant operand (all three are pure given the operand value).
func compileUnary(u *sema.Unary) (compiledExpr, value.Value, bool) {
	xf, _, xConst := compile(u.X)
	fn := func(ex *State, ctx *evalCtx) (value.Value, error) {
		v, err := xf(ex, ctx)
		if err != nil {
			return nil, err
		}
		return applyUnary(u, v)
	}
	if xConst {
		if v, err := fn(nil, nil); err == nil && foldable(v) {
			return constFn(v), v, true
		}
	}
	return fn, nil, false
}

// applyUnary applies a unary operator to an evaluated operand — shared
// with the interpreter through evalUnary.
func applyUnary(u *sema.Unary, v value.Value) (value.Value, error) {
	if u.Fn != nil {
		return u.Fn.Impl([]value.Value{deobject(v)})
	}
	switch u.Op {
	case "not":
		b, ok := value.AsBool(v)
		if !ok {
			return value.Null{}, nil
		}
		return value.Bool(!b), nil
	case "-":
		switch n := v.(type) {
		case value.Int:
			return value.Int{K: n.K, V: -n.V}, nil
		case value.Float:
			return value.Float{K: n.K, V: -n.V}, nil
		}
		return value.Null{}, nil
	}
	return nil, fmt.Errorf("unhandled unary %s", u.Op)
}

// compileBinary compiles a binary operator: short-circuiting closures
// for and/or, an inlined integer fast path for arithmetic, and the
// shared applyBinary kernel for the rest. Arithmetic, comparison and
// ADT operators over constant operands fold (they are pure and yield
// immutable scalars); identity needs the store and membership/set
// operators yield shared mutable collections, so they never fold.
func compileBinary(b *sema.Binary) (compiledExpr, value.Value, bool) {
	lf, _, lConst := compile(b.L)
	rf, _, rConst := compile(b.R)

	if b.Class == sema.OpLogic {
		op := b.Op
		fn := func(ex *State, ctx *evalCtx) (value.Value, error) {
			l, err := lf(ex, ctx)
			if err != nil {
				return nil, err
			}
			if v, done := logicShort(op, l); done {
				return v, nil
			}
			r, err := rf(ex, ctx)
			if err != nil {
				return nil, err
			}
			return logicCombine(op, l, r), nil
		}
		if lConst && rConst {
			if v, err := fn(nil, nil); err == nil && foldable(v) {
				return constFn(v), v, true
			}
		}
		return fn, nil, false
	}

	// Integer comparison over unboxed operands: the whole subtree runs in
	// the int lane and the only boxed value per row is the Bool result.
	if b.Class == sema.OpCompare {
		if lif, lok := compileInt(b.L); lok {
			if rif, rok := compileInt(b.R); rok {
				op := b.Op
				fn := func(ex *State, ctx *evalCtx) (value.Value, error) {
					l, lnull, err := lif(ex, ctx)
					if err != nil {
						return nil, err
					}
					r, rnull, err := rif(ex, ctx)
					if err != nil {
						return nil, err
					}
					if lnull || rnull {
						return value.Null{}, nil
					}
					var res bool
					switch op {
					case "=":
						res = l == r
					case "!=":
						res = l != r
					case "<":
						res = l < r
					case "<=":
						res = l <= r
					case ">":
						res = l > r
					case ">=":
						res = l >= r
					default:
						return nil, fmt.Errorf("unhandled comparison %s", op)
					}
					return value.Bool(res), nil
				}
				if lConst && rConst {
					if v, err := fn(nil, nil); err == nil && foldable(v) {
						return constFn(v), v, true
					}
				}
				return fn, nil, false
			}
		}
	}

	var fn compiledExpr
	if xif, ok := compileInt(b); ok {
		// Arithmetic whose result a boxed consumer needs: run the int lane
		// and box once at the top of the subtree.
		fn = func(ex *State, ctx *evalCtx) (value.Value, error) {
			v, null, err := xif(ex, ctx)
			if err != nil {
				return nil, err
			}
			if null {
				return value.Null{}, nil
			}
			return value.NewInt(v), nil
		}
	} else if b.Class == sema.OpArith {
		op := b.Op
		fn = func(ex *State, ctx *evalCtx) (value.Value, error) {
			l, err := lf(ex, ctx)
			if err != nil {
				return nil, err
			}
			r, err := rf(ex, ctx)
			if err != nil {
				return nil, err
			}
			// Integer fast path: the dominant case in filters.
			if li, ok := l.(value.Int); ok {
				if ri, ok := r.(value.Int); ok {
					switch op {
					case "+":
						return value.NewInt(li.V + ri.V), nil
					case "-":
						return value.NewInt(li.V - ri.V), nil
					case "*":
						return value.NewInt(li.V * ri.V), nil
					}
				}
			}
			if value.IsNull(l) || value.IsNull(r) {
				return value.Null{}, nil
			}
			return arith(op, l, r)
		}
	} else {
		fn = func(ex *State, ctx *evalCtx) (value.Value, error) {
			l, err := lf(ex, ctx)
			if err != nil {
				return nil, err
			}
			r, err := rf(ex, ctx)
			if err != nil {
				return nil, err
			}
			return ex.applyBinary(b, l, r)
		}
	}
	if lConst && rConst {
		switch b.Class {
		case sema.OpArith, sema.OpCompare, sema.OpADT:
			// applyBinary never touches the state for these classes, so a
			// nil receiver is safe for the one fold-time evaluation.
			if v, err := fn(nil, nil); err == nil && foldable(v) {
				return constFn(v), v, true
			}
		}
	}
	return fn, nil, false
}
