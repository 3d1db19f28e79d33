// Package exec evaluates optimized EXCESS plans against the object
// store: a nested-iteration pipeline over the plan's variable-binding
// nodes (heap scans, B+-tree probes, nested-set unnests with implicit
// dereferencing), expression evaluation with null propagation, EXCESS
// function invocation with early/late binding, grouped aggregation with
// by/over partitioning, universal quantification, and the QUEL update
// statements with own / ref / own ref semantics.
package exec

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/excess/sema"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/value"
)

// Executor is the immutable engine core shared by every session: the
// object store, the catalog, the optimizer options and the memoized
// bound-function cache (under its own lock). One Executor serves a
// database and is safe for concurrent statements — all per-statement
// mutable state (parameter frames, call depth, deref/extent caches,
// runtime stats) lives in a State, one per executing statement
// (NewState). Any number of read statements may run simultaneously,
// each through its own State; the database layer excludes writers from
// readers with its readers-writer statement lock.
type Executor struct {
	store *object.Store
	cat   *catalog.Catalog

	// opts is written only through SetOptions, which the database layer
	// calls under its exclusive statement lock; statements read it.
	opts algebra.Options

	// fnCache memoizes bound function bodies: bodies are stored as AST
	// (stored-command style) and bind against the catalog on first call
	// rather than on every call. The catalog's schema objects are
	// immutable once defined, so a bound body stays valid; a dropped
	// extent surfaces as the same error either way. Guarded by fnMu —
	// the only engine-core lock; bound bodies themselves are immutable
	// after insertion and are shared freely between statements.
	fnMu    sync.Mutex // extra:lock fnMu
	fnCache map[*catalog.Function]*boundBody

	// statePool recycles per-statement States (NewState / State.Release)
	// so repeated statements reuse the deref/extent caches — which are
	// version-guarded, see ensureCache — instead of rebuilding them.
	statePool sync.Pool

	// Optional metrics handles (nil when no registry is attached).
	cStatsMiss, cDerefHit, cDerefMiss *metrics.Counter
	cHashBuilds, cHashBuildRows       *metrics.Counter
	cHashProbes, cHashHits            *metrics.Counter
	cExprCompile                      *metrics.Counter
}

// State is the mutable per-statement execution state: parameter frames,
// call depth and the deref/extent memoization caches with their hit
// counters. A State is not safe for concurrent use, but any number of
// States may run concurrently over one Executor — the engine core is
// reached through the embedded pointer.
type State struct {
	*Executor

	// snap, when non-nil, is the immutable store snapshot this statement
	// is pinned to (BindSnapshot); all reads route through reader(). Nil
	// means the statement reads the live store (write path).
	snap *object.Snapshot

	// opts is the statement's private copy of the optimizer options,
	// taken under the database lock by NewState/BindSnapshot/BindLive so
	// execution after the lock is released never races SetOptions. It
	// shadows Executor.opts in State methods.
	opts algebra.Options

	params []map[string]value.Value // function/procedure parameter frames
	depth  int

	// derefCache memoizes object fetches (OID → decoded tuple) so implicit
	// joins repeated across thousands of bindings — E.dept.floor for every
	// E — and rescans of an inner extent decode each object once instead
	// of once per binding. The cache is valid for one store version: any
	// mutation bumps store.Version() and the next lookup flushes. Cached
	// tuples are shared; every consumer treats fetched values as read-only
	// (update statements re-fetch through store.Get directly). The cache
	// is statement-local: concurrent statements never share one, which is
	// what makes populating it lock-free.
	derefCache   map[oid.OID]*value.Tuple
	extentCache  map[string]*cachedExtent // extents fully scanned at derefVersion
	derefVersion uint64
	derefHits    int64
	derefMisses  int64

	// tr is the sampled statement's span builder, nil for the unsampled
	// (vast) majority — all span calls through it are nil-receiver
	// no-ops. See SetTrace.
	tr *trace.Active
}

// boundBody is a memoized function body: an expression body with its
// closure compiled at bind time, or a retrieve body (planned per call).
type boundBody struct {
	expr  sema.Expr
	fn    compiledExpr
	query *sema.CheckedRetrieve
}

// New returns an executor over the store and catalog.
func New(store *object.Store, cat *catalog.Catalog) *Executor {
	return &Executor{
		store:   store,
		cat:     cat,
		fnCache: make(map[*catalog.Function]*boundBody),
	}
}

// NewState returns a per-statement execution state over the engine
// core, reusing a pooled one when available.
func (ex *Executor) NewState() *State {
	if v := ex.statePool.Get(); v != nil {
		s := v.(*State)
		s.opts = ex.opts
		return s
	}
	return &State{Executor: ex, opts: ex.opts}
}

// Release resets the statement-scoped fields and returns the state to
// the engine pool. The deref and extent caches are deliberately kept
// across reuse: they are valid for exactly one store version and the
// next lookup flushes them if the store moved, so a recycled state
// starts warm for repeated read statements. The caller must not use the
// state after releasing it.
func (ex *State) Release() {
	ex.params = ex.params[:0]
	ex.depth = 0
	ex.tr = nil
	ex.snap = nil
	ex.derefHits, ex.derefMisses = 0, 0
	ex.Executor.statePool.Put(ex)
}

// SetOptions configures the optimizer (used by the benchmarks to compare
// optimized and naive plans). It must not race with running statements;
// the database layer calls it with both statement locks held (writers
// excluded by wmu, readers copy opts under db.mu).
//
// extra:requires db.wmu.W
func (ex *Executor) SetOptions(o algebra.Options) { ex.opts = o }

// Options returns the current optimizer options.
func (ex *Executor) Options() algebra.Options { return ex.opts }

// SetMetrics attaches the engine metrics registry; the executor then
// counts join and deref-cache traffic (join.hash.*, deref.cache.*) and
// cardinality-estimate misses (stats.misses). Handles are resolved once
// here so hot paths pay one atomic add per event.
func (ex *Executor) SetMetrics(reg *metrics.Registry) {
	ex.cStatsMiss = reg.Counter("stats.misses")
	ex.cDerefHit = reg.Counter("deref.cache.hits")
	ex.cDerefMiss = reg.Counter("deref.cache.misses")
	ex.cHashBuilds = reg.Counter("join.hash.builds")
	ex.cHashBuildRows = reg.Counter("join.hash.buildrows")
	ex.cHashProbes = reg.Counter("join.hash.probes")
	ex.cHashHits = reg.Counter("join.hash.hits")
	ex.cExprCompile = reg.Counter("expr.compile.count")
}

// prov records where a binding's value lives, for update statements.
type prov struct {
	oid       oid.OID     // identity, when the binding is an object
	extent    string      // extent name for extent-variable bindings
	rid       storage.RID // element record for ref/value-set extents
	parentOID oid.OID     // nested: owning object of the collection
	parentVar string      // nested: owning database variable
	steps     []sema.Step // nested: path from owner to the collection
	elemIdx   int         // nested: position within the collection
}

// binding holds the current value and provenance of each range variable,
// indexed by the variable's checker-assigned slot (sema.Var.Slot).
// Slot-indexed slices replace the earlier map[*sema.Var] representation:
// a variable read is one bounds check and an index instead of a pointer
// hash, a clone is three memcpys, and compiled expressions (compile.go)
// bake the slot index into their closures.
type binding struct {
	vals  []value.Value
	provs []prov
	used  []bool
}

// bindingPool recycles bindings and their slot slices. The executor
// allocates a binding per retained row in grouped retrieves and set
// statements and one per hash-join build, so reuse keeps those paths
// off the allocator.
var bindingPool = sync.Pool{New: func() any { return new(binding) }}

func newBinding() *binding {
	return bindingPool.Get().(*binding)
}

// release drops the binding's element references (so a pooled binding
// never pins store objects) and returns it to the pool, keeping the
// slice capacity. The caller must not touch the binding afterwards;
// clones are unaffected (they own their slices, and provenance step
// slices are never mutated in place).
func (b *binding) release() {
	for i := range b.vals {
		b.vals[i] = nil
		b.provs[i] = prov{}
		b.used[i] = false
	}
	b.vals = b.vals[:0]
	b.provs = b.provs[:0]
	b.used = b.used[:0]
	bindingPool.Put(b)
}

// grow extends the slot slices to cover slot.
func (b *binding) grow(slot int) {
	for len(b.vals) <= slot {
		b.vals = append(b.vals, nil)
		b.provs = append(b.provs, prov{})
		b.used = append(b.used, false)
	}
}

// bind sets a variable's value and provenance.
func (b *binding) bind(v *sema.Var, val value.Value, pr prov) {
	b.grow(v.Slot)
	b.vals[v.Slot] = val
	b.provs[v.Slot] = pr
	b.used[v.Slot] = true
}

// unbind clears a variable's slot.
func (b *binding) unbind(v *sema.Var) {
	if v.Slot < len(b.vals) {
		b.vals[v.Slot] = nil
		b.provs[v.Slot] = prov{}
		b.used[v.Slot] = false
	}
}

// get returns a variable's current value.
func (b *binding) get(v *sema.Var) (value.Value, bool) {
	if v.Slot < len(b.used) && b.used[v.Slot] {
		return b.vals[v.Slot], true
	}
	return nil, false
}

// getProv returns a variable's provenance (the zero prov when unbound).
func (b *binding) getProv(v *sema.Var) prov {
	if v.Slot < len(b.provs) {
		return b.provs[v.Slot]
	}
	return prov{}
}

func (b *binding) clone() *binding {
	n := bindingPool.Get().(*binding)
	n.vals = append(n.vals[:0], b.vals...)
	n.provs = append(n.provs[:0], b.provs...)
	n.used = append(n.used[:0], b.used...)
	return n
}

// evalCtx carries the evaluation environment: the current binding and,
// inside grouped-aggregate output, the computed aggregate values.
type evalCtx struct {
	b       *binding
	aggVals map[*sema.Agg]value.Value
}

// Run enumerates the bindings of a plan, applying node filters, the
// residual filter and universal quantification through the plan's
// compiled closures c, and yields each surviving binding. When the plan
// carries a Runtime accumulator (EXPLAIN ANALYZE), per-operator actuals
// are recorded as a side effect; uninstrumented plans take the untraced
// path.
func (ex *State) Run(p *algebra.Plan, c *Code, yield func(*binding) error) error {
	b := newBinding()
	defer b.release()
	rt := p.Runtime
	rs := &runState{code: c, ctx: &evalCtx{b: b}}
	var dh, dm int64
	if rt != nil {
		dh, dm = ex.derefHits, ex.derefMisses
	}
	err := ex.runNode(p, 0, b, rs, func(bb *binding) error {
		if rt != nil {
			rt.FinalIn++
		}
		ok, err := ex.passAll(rs.ctx, c.final)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if rt != nil {
			rt.FinalOut++
			rt.ForAllChecked++
		}
		ok, err = ex.forAllHolds(rs.ctx, p.Universal, c.forAll)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if rt != nil {
			rt.ForAllPassed++
			rt.Output++
		}
		return yield(bb)
	})
	if rt != nil {
		rt.DerefHits += ex.derefHits - dh
		rt.DerefMisses += ex.derefMisses - dm
		for i, t := range rs.tables {
			if t != nil {
				nr := &rt.Nodes[i]
				nr.HashBuildRows += t.buildRows
				nr.HashProbes += t.probes
				nr.HashHits += t.hits
			}
		}
	}
	return err
}

func (ex *State) passAll(ctx *evalCtx, conjs []compiledExpr) (bool, error) {
	for _, cj := range conjs {
		v, err := cj(ex, ctx)
		if err != nil {
			return false, err
		}
		if t, ok := value.AsBool(v); !ok || !t {
			return false, nil // null predicates reject, QUEL-style
		}
	}
	return true, nil
}

// runNode binds plan node i for every element of its source, recursing
// to the next node.
func (ex *State) runNode(p *algebra.Plan, i int, b *binding, rs *runState, yield func(*binding) error) error {
	if i >= len(p.Nodes) {
		return yield(b)
	}
	if p.Runtime != nil {
		return ex.runNodeTraced(p, i, b, rs, yield)
	}
	n, filter := &p.Nodes[i], rs.code.nodes[i].filter
	emit := func(v value.Value, pr prov) error {
		b.bind(n.Var, v, pr)
		ok, err := ex.passAll(rs.ctx, filter)
		if err == nil && ok {
			err = ex.runNode(p, i+1, b, rs, yield)
		}
		b.unbind(n.Var)
		return err
	}
	return ex.enumerate(b, n, i, rs, emit)
}

// runNodeTraced is runNode with actuals collection: loops, rows in/out,
// self time (child time subtracted) and buffer-pool traffic attributed
// to this node's fetches and filter evaluation.
func (ex *State) runNodeTraced(p *algebra.Plan, i int, b *binding, rs *runState, yield func(*binding) error) error {
	n, filter := &p.Nodes[i], rs.code.nodes[i].filter
	rt := &p.Runtime.Nodes[i]
	rt.Loops++
	pool := ex.store.Pool()
	base := pool.Stats()
	start := time.Now()
	var child time.Duration
	account := func() {
		cur := pool.Stats()
		rt.PoolHits += cur.Hits - base.Hits
		rt.PoolMisses += cur.Misses - base.Misses
		base = cur
	}
	emit := func(v value.Value, pr prov) error {
		rt.RowsIn++
		b.bind(n.Var, v, pr)
		ok, err := ex.passAll(rs.ctx, filter)
		if err == nil && ok {
			rt.RowsOut++
			account() // pool traffic so far is this node's fetch/filter work
			t0 := time.Now()
			err = ex.runNode(p, i+1, b, rs, yield)
			child += time.Since(t0)
			base = pool.Stats() // children's traffic is theirs
		}
		b.unbind(n.Var)
		return err
	}
	err := ex.enumerate(b, n, i, rs, emit)
	account()
	rt.Time += time.Since(start) - child
	return err
}

// enumerate produces the bindings of one variable, node i of the plan
// rs runs. rs may be nil (build side of a hash join, universal
// quantification): then the node is enumerated directly even if a hash
// path was selected.
func (ex *State) enumerate(b *binding, n *algebra.Node, i int, rs *runState, emit func(value.Value, prov) error) error {
	v := n.Var
	switch v.Kind {
	case sema.VarExtent:
		if n.Hash != nil && rs != nil {
			return ex.hashProbe(n, i, rs, emit)
		}
		r := ex.reader()
		if r.IsObjectExtent(v.Extent) {
			if n.Access != nil {
				ids := r.IndexLookup(n.Access.Index, n.Access.Lo, n.Access.Hi, n.Access.IncLo, n.Access.IncHi)
				for _, id := range ids {
					tv, ok, err := ex.derefGet(id)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
					if err := emit(value.Object{OID: id, Tuple: tv}, prov{oid: id, extent: v.Extent}); err != nil {
						return err
					}
				}
				return nil
			}
			if !ex.opts.NoDerefCache {
				return ex.scanExtentCached(v.Extent, func(id oid.OID, tv *value.Tuple) error {
					return emit(value.Object{OID: id, Tuple: tv}, prov{oid: id, extent: v.Extent})
				})
			}
			return r.ScanExtent(v.Extent, func(id oid.OID, tv *value.Tuple) error {
				return emit(value.Object{OID: id, Tuple: tv}, prov{oid: id, extent: v.Extent})
			})
		}
		if r.IsElemExtent(v.Extent) {
			return r.ScanElems(v.Extent, func(rid storage.RID, ev value.Value) error {
				pr := prov{extent: v.Extent, rid: rid}
				if r, isRef := ev.(value.Ref); isRef {
					tv, ok, err := ex.derefGet(r.OID)
					if err != nil {
						return err
					}
					if !ok {
						return nil // dangling membership reads as absent
					}
					pr.oid = r.OID
					return emit(value.Object{OID: r.OID, Tuple: tv}, pr)
				}
				return emit(ev, pr)
			})
		}
		return fmt.Errorf("no extent %s", v.Extent)
	case sema.VarNested, sema.VarDBPath, sema.VarExprPath:
		start, owner, err := ex.nestStart(b, v)
		if err != nil {
			return err
		}
		return ex.walkCollection(start, owner, v.Steps, emit)
	}
	return fmt.Errorf("unhandled variable kind for %s", v.Name)
}

// collOwner tracks the owner of the collection a nested variable ranges
// over: the nearest enclosing object (or database variable) along the
// path, plus the steps from that owner to the collection.
type collOwner struct {
	oid   oid.OID
	dbvar string
	steps []sema.Step
}

// nestStart resolves the starting value and initial owner for a nested
// variable.
func (ex *State) nestStart(b *binding, v *sema.Var) (value.Value, collOwner, error) {
	switch v.Kind {
	case sema.VarNested:
		pv, ok := b.get(v.Parent)
		if !ok {
			return nil, collOwner{}, fmt.Errorf("parent of %s not bound", v.Name)
		}
		own := collOwner{}
		if o, isObj := pv.(value.Object); isObj {
			own.oid = o.OID
		} else {
			pp := b.getProv(v.Parent)
			own.oid, own.dbvar = pp.parentOID, pp.parentVar
		}
		return pv, own, nil
	case sema.VarExprPath:
		val, err := ex.eval(&evalCtx{b: b}, v.Base)
		if err != nil {
			return nil, collOwner{}, err
		}
		own := collOwner{}
		if id, ok := value.OIDOf(val); ok {
			own.oid = id
		}
		return val, own, nil
	default: // VarDBPath
		val, err := ex.reader().GetVar(v.Extent)
		if err != nil {
			return nil, collOwner{}, err
		}
		return val, collOwner{dbvar: v.Extent}, nil
	}
}

// walkCollection walks the steps from start to the target collection,
// dereferencing references (updating the owner as it crosses object
// boundaries), then emits each element.
func (ex *State) walkCollection(cur value.Value, owner collOwner, steps []sema.Step, emit func(value.Value, prov) error) error {
	for si, st := range steps {
		var err error
		cur, owner, err = ex.stepOnce(cur, owner, st, nil, true)
		if err != nil {
			return err
		}
		if value.IsNull(cur) {
			return nil
		}
		// A collection in the middle of the path fans out.
		if si < len(steps)-1 {
			if coll, ok := elemsOf(cur); ok {
				for _, e := range coll {
					eo := owner
					ev := e
					if r, isRef := e.(value.Ref); isRef {
						tv, live, err := ex.derefGet(r.OID)
						if err != nil {
							return err
						}
						if !live {
							continue
						}
						ev = value.Object{OID: r.OID, Tuple: tv}
						eo = collOwner{oid: r.OID}
					}
					if err := ex.walkCollection(ev, eo, steps[si+1:], emit); err != nil {
						return err
					}
				}
				return nil
			}
		}
	}
	coll, ok := elemsOf(cur)
	if !ok {
		return fmt.Errorf("path does not end in a collection (got %T)", cur)
	}
	for idx, e := range coll {
		pr := prov{parentOID: owner.oid, parentVar: owner.dbvar, steps: owner.steps, elemIdx: idx}
		ev := e
		if r, isRef := e.(value.Ref); isRef {
			tv, live, err := ex.derefGet(r.OID)
			if err != nil {
				return err
			}
			if !live {
				continue
			}
			pr.oid = r.OID
			ev = value.Object{OID: r.OID, Tuple: tv}
		}
		if err := emit(ev, pr); err != nil {
			return err
		}
	}
	return nil
}

// stepOnce applies one path step to a value, dereferencing a reference
// first if needed and tracking the collection owner. ctx is needed only
// when the step has an index expression. track guards the owner-steps
// provenance bookkeeping: only update paths (walkCollection) consume it,
// and the per-step slice append is the dominant allocation of filter
// evaluation when left on.
func (ex *State) stepOnce(cur value.Value, owner collOwner, st sema.Step, ctx *evalCtx, track bool) (value.Value, collOwner, error) {
	if value.IsNull(cur) {
		return value.Null{}, owner, nil
	}
	if r, isRef := cur.(value.Ref); isRef {
		tv, live, err := ex.derefGet(r.OID)
		if err != nil {
			return nil, owner, err
		}
		if !live {
			return value.Null{}, owner, nil
		}
		cur = value.Object{OID: r.OID, Tuple: tv}
		owner = collOwner{oid: r.OID}
	}
	if st.Attr != "" {
		tv, ok := value.AsTuple(cur)
		if !ok {
			return nil, owner, fmt.Errorf("attribute %s of non-tuple value %s", st.Attr, cur)
		}
		if track {
			owner.steps = append(append([]sema.Step(nil), owner.steps...), sema.Step{Attr: st.Attr})
		}
		cur = tv.Get(st.Attr)
	}
	if st.Index != nil {
		if ctx == nil {
			ctx = &evalCtx{b: newBinding()}
		}
		iv, err := ex.eval(ctx, st.Index)
		if err != nil {
			return nil, owner, err
		}
		i, ok := value.AsInt(iv)
		if !ok {
			return nil, owner, fmt.Errorf("array index must be an integer")
		}
		arr, isArr := cur.(*value.Array)
		if !isArr {
			return nil, owner, fmt.Errorf("indexing a non-array value")
		}
		if i < 1 || int(i) > len(arr.Elems) {
			return value.Null{}, owner, nil
		}
		if track {
			owner.steps = append(append([]sema.Step(nil), owner.steps...), sema.Step{Index: &sema.Const{Val: value.NewInt(i), T: nil}})
		}
		cur = arr.Elems[i-1]
	}
	return cur, owner, nil
}

// elemsOf extracts the elements of a collection value.
func elemsOf(v value.Value) ([]value.Value, bool) {
	switch x := v.(type) {
	case *value.Set:
		return x.Elems, true
	case *value.Array:
		return x.Elems, true
	}
	return nil, false
}

// forAllHolds checks the universally quantified part of the predicate:
// for every combination of bindings of the universal variables, all
// conjuncts must hold.
func (ex *State) forAllHolds(ctx *evalCtx, uvars []*sema.Var, conjs []compiledExpr) (bool, error) {
	if len(uvars) == 0 || len(conjs) == 0 {
		return true, nil
	}
	b := ctx.b
	holds := true
	var rec func(i int) error
	rec = func(i int) error {
		if !holds {
			return nil
		}
		if i >= len(uvars) {
			ok, err := ex.passAll(ctx, conjs)
			if err != nil {
				return err
			}
			if !ok {
				holds = false
			}
			return nil
		}
		n := &algebra.Node{Var: uvars[i]}
		return ex.enumerate(b, n, 0, nil, func(v value.Value, pr prov) error {
			b.bind(uvars[i], v, pr)
			err := rec(i + 1)
			b.unbind(uvars[i])
			return err
		})
	}
	if err := rec(0); err != nil {
		return false, err
	}
	return holds, nil
}
