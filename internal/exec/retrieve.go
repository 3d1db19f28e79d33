package exec

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/excess/sema"
	"repro/internal/types"
	"repro/internal/value"
)

// Row is one result row.
type Row []value.Value

// Result is the outcome of a retrieve: named columns and rows in
// enumeration order.
type Result struct {
	Cols []string
	Rows []Row
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	widths := make([]int, len(r.Cols))
	cells := make([][]string, 0, len(r.Rows)+1)
	header := make([]string, len(r.Cols))
	for i, c := range r.Cols {
		header[i] = c
		widths[i] = len(c)
	}
	cells = append(cells, header)
	for _, row := range r.Rows {
		line := make([]string, len(r.Cols))
		for i := range r.Cols {
			if i < len(row) {
				line[i] = displayValue(row[i])
			}
			if len(line[i]) > widths[i] {
				widths[i] = len(line[i])
			}
		}
		cells = append(cells, line)
	}
	for ri, line := range cells {
		for i, cell := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(line)-1 { // no trailing padding on the last column
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i := range line {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", widths[i]))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func displayValue(v value.Value) string {
	if v == nil {
		return "null"
	}
	return v.String()
}

// Retrieve plans, compiles and runs a checked retrieve (a retrieve-bodied
// function call) and returns its result set.
func (ex *State) Retrieve(cq *sema.CheckedRetrieve) (*Result, error) {
	plan := ex.Plan(cq.Query)
	return ex.RetrievePlan(cq, plan, ex.Compile(cq, plan))
}

// RetrievePlan runs a checked retrieve through an already-built plan and
// its compiled closures — the database layer uses it to time planning,
// compilation and execution separately, to serve plan-cache hits, and to
// execute instrumented (EXPLAIN ANALYZE) clones of the plan. When the
// statement has an into clause, the result is also materialized as a new
// database variable.
func (ex *State) RetrievePlan(cq *sema.CheckedRetrieve, plan *algebra.Plan, c *Code) (*Result, error) {
	res := &Result{}
	for _, t := range cq.Targets {
		res.Cols = append(res.Cols, t.Name)
	}
	var err error
	if cq.Aggregated {
		err = ex.retrieveGrouped(cq, plan, c, res)
	} else {
		err = ex.Run(plan, c, func(b *binding) error {
			ctx := &evalCtx{b: b}
			row := make(Row, len(c.out))
			for i, fn := range c.out {
				v, err := fn(ex, ctx)
				if err != nil {
					return err
				}
				row[i] = v
			}
			res.Rows = append(res.Rows, row)
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	if cq.Into != "" {
		// A retrieve with an into clause is write-classified by
		// sema.ReadOnly, so the dispatcher took the exclusive lock; the
		// checker cannot see through the Into guard.
		//extravet:ignore lockcheck snapcheck (into-retrieves run under the exclusive statement lock)
		if err := ex.materializeInto(cq, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// groupState accumulates one group during grouped retrieval.
type groupState struct {
	rep  *binding
	aggs map[*sema.Agg]*aggState
}

type aggState struct {
	vals []value.Value
	over map[string]bool // dedup keys seen (for "over")
}

// retrieveGrouped implements query-level aggregation: rows are grouped
// by the collected by-expressions; within each group each aggregate
// folds its argument across the group's bindings, after deduplicating by
// the over-expression when one is given (the paper's mechanism for
// aggregating one level of a complex object while partitioning on
// another, which also subsumes QUEL's unique aggregates).
func (ex *State) retrieveGrouped(cq *sema.CheckedRetrieve, plan *algebra.Plan, c *Code, res *Result) error {
	groups := map[string]*groupState{}
	var order []string
	err := ex.Run(plan, c, func(b *binding) error {
		ctx := &evalCtx{b: b}
		key, err := ex.groupKey(ctx, c.groupBy)
		if err != nil {
			return err
		}
		g, ok := groups[key]
		if !ok {
			g = &groupState{rep: b.clone(), aggs: map[*sema.Agg]*aggState{}}
			for _, ac := range c.aggs {
				g.aggs[ac.agg] = &aggState{}
			}
			groups[key] = g
			order = append(order, key)
		}
		for _, ac := range c.aggs {
			st := g.aggs[ac.agg]
			if ac.over != nil {
				ov, err := ac.over(ex, ctx)
				if err != nil {
					return err
				}
				ok := valueKey(ov)
				if st.over == nil {
					st.over = map[string]bool{}
				}
				if st.over[ok] {
					continue // already counted this partition value
				}
				st.over[ok] = true
			}
			av, err := ac.arg(ex, ctx)
			if err != nil {
				return err
			}
			st.vals = append(st.vals, av)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// A global aggregate (no by-expressions) over zero bindings still
	// produces one row: count = 0, sum = 0, the others null.
	if len(order) == 0 && len(cq.GroupBy) == 0 {
		g := &groupState{rep: newBinding(), aggs: map[*sema.Agg]*aggState{}}
		for _, ac := range c.aggs {
			g.aggs[ac.agg] = &aggState{}
		}
		groups[""] = g
		order = append(order, "")
	}
	for _, key := range order {
		g := groups[key]
		aggVals := map[*sema.Agg]value.Value{}
		for a, st := range g.aggs {
			v, err := foldAgg(a, st.vals)
			if err != nil {
				return err
			}
			aggVals[a] = v
		}
		ctx := &evalCtx{b: g.rep, aggVals: aggVals}
		row := make(Row, len(cq.Targets))
		for i, t := range cq.Targets {
			v, err := ex.eval(ctx, t.Expr)
			if err != nil {
				return err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
	}
	for _, key := range order {
		groups[key].rep.release()
	}
	return nil
}

// groupKey renders the grouping values of the current binding.
func (ex *State) groupKey(ctx *evalCtx, groups []compiledExpr) (string, error) {
	if len(groups) == 0 {
		return "", nil
	}
	var b strings.Builder
	for _, g := range groups {
		v, err := g(ex, ctx)
		if err != nil {
			return "", err
		}
		b.WriteString(valueKey(v))
		b.WriteByte(0)
	}
	return b.String(), nil
}

// valueKey renders a value for grouping/dedup purposes: objects and refs
// group by identity, everything else by display form.
func valueKey(v value.Value) string {
	if id, ok := value.OIDOf(v); ok {
		return "#" + id.String()
	}
	if value.IsNull(v) {
		return "\x00null"
	}
	return v.String()
}

// materializeInto stores a retrieve result as a fresh database variable:
// a set of own tuples of a synthesized result type named "<Name>_t".
// Object and reference columns are stored as references.
//
// extra:requires db.wmu.W
func (ex *State) materializeInto(cq *sema.CheckedRetrieve, res *Result) error {
	typeName := cq.Into + "_t"
	var attrs []types.Attr
	for i, t := range cq.Targets {
		comp, err := resultComponent(t.Expr.Type())
		if err != nil {
			return fmt.Errorf("retrieve into %s, column %s: %w", cq.Into, res.Cols[i], err)
		}
		attrs = append(attrs, types.Attr{Name: res.Cols[i], Comp: comp})
	}
	tt, err := types.NewTupleType(typeName, nil, attrs)
	if err != nil {
		return err
	}
	if err := ex.cat.DefineTuple(tt); err != nil {
		return err
	}
	comp := types.Component{Mode: types.Own, Type: &types.Set{
		Elem: types.Component{Mode: types.Own, Type: tt},
	}}
	v, err := ex.cat.CreateVar(cq.Into, comp)
	if err != nil {
		return err
	}
	if err := ex.store.InitVar(v); err != nil {
		return err
	}
	for _, row := range res.Rows {
		tv := value.NewTuple(tt)
		for i, a := range tt.Attrs() {
			if i < len(row) {
				tv.Fields[i] = coerceTo(row[i], a.Comp)
			}
		}
		if _, err := ex.store.Insert(cq.Into, tv); err != nil {
			return err
		}
	}
	return nil
}

// resultComponent derives the stored component for a result column type.
func resultComponent(t types.Type) (types.Component, error) {
	switch tt := t.(type) {
	case nil:
		return types.Component{Mode: types.Own, Type: types.Varchar}, nil
	case *types.TupleType:
		return types.Component{Mode: types.RefTo, Type: tt}, nil
	case *types.Ref:
		return types.Component{Mode: types.RefTo, Type: tt.Target}, nil
	case *types.Set:
		elem, err := resultComponent(tt.Elem.Type)
		if err != nil {
			return types.Component{}, err
		}
		return types.Component{Mode: types.Own, Type: &types.Set{Elem: elem}}, nil
	default:
		return types.Component{Mode: types.Own, Type: t}, nil
	}
}
