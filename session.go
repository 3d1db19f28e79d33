package extra

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/algebra"
	"repro/internal/authz"
	"repro/internal/excess/ast"
	"repro/internal/excess/parse"
	"repro/internal/excess/sema"
	"repro/internal/exec"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/value"
)

// Session is one client's connection-like handle on a DB: its own user
// identity, its own persistent range declarations, and its own slow-query
// attribution. Sessions are cheap; a server would create one per
// connection. Statements from different sessions run concurrently when
// they are read-only (retrieve without into) — the DB classifies each
// statement through the sema layer: reads pin an immutable store
// snapshot and execute against it without holding any lock, writes
// serialize on the DB's write lock.
//
// A single Session may also be used from multiple goroutines for
// read-only statements; statements that mutate session state (range
// declarations, set user, procedure execution) are write-classified and
// serialized by the write lock.
type Session struct {
	db   *DB
	id   int64
	user string
	sem  *sema.Session
}

// NewSession returns a new session with its own range-declaration table
// and user identity (initially "dba"). The zero-cost way to run read
// statements in parallel: one session per goroutine.
func (db *DB) NewSession() *Session {
	return &Session{
		db:   db,
		id:   db.nextSession.Add(1),
		user: "dba",
		sem:  sema.NewSession(),
	}
}

// ID returns the session's identifier (0 is the DB's default session);
// slow-query log entries carry it for per-session attribution.
func (s *Session) ID() int64 { return s.id }

// SetUser switches the session's current user; subsequent statements run
// with that user's privileges. It takes both engine locks: write batches
// read s.user under the write lock, read statements under the shared
// statement lock during their pin window.
//
// extra:acquires db.wmu.W
// extra:acquires db.mu.W
func (s *Session) SetUser(name string) error {
	s.db.wmu.Lock()
	defer s.db.wmu.Unlock()
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	if !s.db.auth.UserExists(name) {
		return fmt.Errorf("no user %s", name)
	}
	s.user = name
	return nil
}

// CurrentUser returns the session's user.
//
// extra:acquires db.mu.R
func (s *Session) CurrentUser() string {
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	return s.user
}

// allReadOnly reports whether every statement of a batch can run on the
// snapshot read path.
func allReadOnly(stmts []ast.Statement) bool {
	for _, st := range stmts {
		if !sema.ReadOnly(st) {
			return false
		}
	}
	return true
}

// ddlStatement reports whether a write-classified statement mutates
// catalog or session-visible metadata (types, variables, indexes,
// functions, procedures, ranges, privileges, identity) rather than data
// alone. DDL runs inside the exclusive statement lock so the catalog
// and the published snapshot move together — a reader pinning a
// snapshot mid-DDL would otherwise plan against a catalog its snapshot
// has never heard of. Pure DML (append, delete, replace, set) needs
// only the write lock; readers stay unblocked while it runs.
func ddlStatement(st ast.Statement) bool {
	switch st.(type) {
	case *ast.Append, *ast.Delete, *ast.Replace, *ast.SetStmt:
		return false
	}
	return true
}

// stmtCall is one statement batch on its way through the envelope:
// what the entry point parsed or prepared, the trace the envelope owns,
// and what the strategies report back.
type stmtCall struct {
	src, kind string
	stmts     []ast.Statement
	params    *paramScope
	start     time.Time
	parseDur  time.Duration
	pin       *planPin  // a prepared statement's plan-cache hold; such statements skip parse
	an        *analysis // EXPLAIN ANALYZE only
	tr        trace.StmtTrace
	user      string // captured under the statement's lock
	lsn       uint64 // highest WAL record appended, awaited after the write lock
}

// analysis is what EXPLAIN ANALYZE reads back from its retrieve's
// instrumented run: the checked tree, the plan carrying the runtime
// actuals, and the buffer-pool delta of the execution.
type analysis struct {
	cq   *sema.CheckedRetrieve
	plan *algebra.Plan
	pool PoolStats
}

// Exec parses and runs one or more EXCESS statements, returning the
// result of the last retrieve (nil if none). Parsing happens before any
// lock is taken (it only reads the ADT registry, which has its own
// lock). An all-read-only batch takes the MVCC snapshot path and runs
// concurrently with writers; a batch with any write statement
// serializes on the write lock.
func (s *Session) Exec(src string) (*Result, error) {
	start := time.Now()
	stmts, err := parse.Statements(src, s.db.reg)
	c := &stmtCall{src: src, kind: "batch", stmts: stmts, start: start, parseDur: time.Since(start)}
	if err != nil {
		s.db.cErrors.Inc()
		return nil, err
	}
	if len(stmts) == 1 {
		c.kind = sema.KindOf(stmts[0])
	}
	return s.run(c)
}

// Query is Exec for a single retrieve; it errors when the source is not
// exactly one retrieve statement. A retrieve without an into clause
// runs on the snapshot path, concurrently with writers and other
// readers; a retrieve into materializes a new variable and takes the
// write path.
func (s *Session) Query(src string) (*Result, error) {
	c, err := s.parseRetrieve(src, "query: %w (use Exec for updates and DDL)")
	if err != nil {
		return nil, err
	}
	return s.run(c)
}

// parseRetrieve is the front end of the retrieve-only entry points
// (Query, EXPLAIN ANALYZE): it parses exactly one retrieve, wrapping
// ErrNotRetrieve in the entry point's message otherwise.
func (s *Session) parseRetrieve(src, notRetrieve string) (*stmtCall, error) {
	start := time.Now()
	st, err := parse.One(src, s.db.reg)
	c := &stmtCall{src: src, kind: "retrieve", stmts: []ast.Statement{st}, start: start, parseDur: time.Since(start)}
	if _, ok := st.(*ast.Retrieve); err == nil && !ok {
		err = fmt.Errorf(notRetrieve, ErrNotRetrieve)
	}
	if err != nil {
		s.db.cErrors.Inc()
		return nil, err
	}
	return c, nil
}

// run is the statement envelope every entry point enters: Exec, Query,
// Stmt.Exec and EXPLAIN ANALYZE. It owns the statement's trace from
// begin to finish or abort, its pprof labels, its stmt.errors
// accounting (use-after-close is a caller bug, not a statement error,
// and is not counted) and the durability wait, taken after the write
// lock is released so that concurrent committers share one fsync.
// Between those it hands an all-read-only batch to the read strategy
// (readStmt, one pin window per statement) and anything else to the
// write strategy (writeStmts).
func (s *Session) run(c *stmtCall) (*Result, error) {
	db := s.db
	c.tr.Begin(db.tracer, c.start)
	if c.pin == nil {
		c.tr.RecordPhase(trace.PhaseParse, c.start, c.parseDur)
	}
	var res *Result
	err := s.labeled(c.kind, func() (err error) {
		if !allReadOnly(c.stmts) {
			res, err = s.writeStmts(c)
			return err
		}
		for _, st := range c.stmts {
			if res, err = s.readStmt(c, st.(*ast.Retrieve)); err != nil {
				return err
			}
		}
		return nil
	})
	if c.lsn != 0 {
		pt := c.tr.StartPhase(trace.PhaseWALDurable)
		if derr := db.waitDurable(c.lsn); derr != nil && err == nil {
			err = derr
		}
		c.tr.EndPhase(pt)
	}
	if err != nil {
		if !errors.Is(err, errDBClosed) {
			db.cErrors.Inc()
		}
		db.abortTrace(s.id, c.user, c.src, c.kind, &c.tr, c.start, err)
		return nil, err
	}
	if res != nil {
		c.tr.Rows = len(res.Rows)
	}
	db.finishTrace(s.id, c.user, c.src, c.kind, &c.tr, c.start)
	return res, nil
}

// readStmt is the read strategy for one retrieve without an into
// clause. The shared statement lock is held only for the pin window:
// snapshot pin, plan-cache lookup, check, authorization, planning and
// closure compilation — everything that must agree with the catalog
// version the snapshot was published under. Execution happens after
// the window, entirely against the immutable snapshot, so a reader
// never waits behind a bulk update and holds nothing a writer waits on.
//
// extra:acquires db.mu.R
// extra:snapshot
func (s *Session) readStmt(c *stmtCall, r *ast.Retrieve) (*Result, error) {
	db := s.db
	if !db.beginPin() {
		return nil, errDBClosed
	}
	db.countStmt(r, c.an)
	c.user = s.user
	es := db.exec.NewState()
	defer es.Release()
	es.SetTrace(c.tr.Active())
	es.BindSnapshot(db.store.Snapshot())
	e, err := s.planRetrieve(es, r, c.params, &c.tr, c.pin, c.an)
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return s.execPinnedPlan(es, e, c.params, &c.tr, c.an)
}

// writeStmts is the write strategy: the whole batch holds the write
// lock; each statement runs through runWriteStmt, which mutates the
// live store, publishes a fresh snapshot and appends the statement to
// the WAL — so concurrent snapshot readers observe the batch statement
// by statement and never a torn statement. The highest LSN is left in
// c.lsn for the envelope to await once the lock is released.
//
// extra:acquires db.wmu.W
func (s *Session) writeStmts(c *stmtCall) (*Result, error) {
	db := s.db
	pt := c.tr.StartPhase(trace.PhaseLockWait)
	db.wmu.Lock()
	c.tr.EndPhase(pt)
	defer db.wmu.Unlock()
	// closed is written under both locks (Close takes wmu first), so
	// reading it under wmu alone is race-free.
	if db.closed {
		return nil, errDBClosed
	}
	c.user = s.user
	es := db.exec.NewState()
	defer es.Release()
	es.BindLive()
	es.SetTrace(c.tr.Active())
	var last *Result
	for _, st := range c.stmts {
		r, lsn, err := s.runWriteStmt(es, st, c.params, &c.tr, c.an)
		c.lsn = max(c.lsn, lsn)
		if err != nil {
			return nil, err
		}
		if r != nil {
			last = r
		}
	}
	return last, nil
}

// runWriteStmt runs one statement of a write batch, publishes the
// resulting store snapshot, and appends the statement to the WAL:
// size → run → Store.Commit → logStmt, each timed as its own phase.
// Publication happens even when the statement errors: the engine has no
// rollback, so whatever the statement wrote before failing is live
// state and must become visible to snapshot readers exactly as it is to
// the next write statement (such statements are logged with the Erred
// flag — their partial effects are durable state too). The returned LSN
// is 0 when nothing was logged; the caller awaits durability with
// db.waitDurable after releasing the write lock. DDL-classified
// statements hold the exclusive statement lock across run + publish so
// no reader pins a snapshot in the gap where the catalog has moved but
// the snapshot has not.
//
// extra:requires db.wmu.W
// extra:acquires db.mu.W
// extra:mutates
func (s *Session) runWriteStmt(es *exec.State, st ast.Statement, params *paramScope, tr *trace.StmtTrace, an *analysis) (*Result, uint64, error) {
	db := s.db
	if ddlStatement(st) {
		pt := tr.StartPhase(trace.PhaseLockWait)
		db.mu.Lock()
		tr.EndPhase(pt)
		defer db.mu.Unlock()
	}
	// Size the WAL record before running the statement: one the log
	// cannot hold refuses the statement here, with nothing mutated and
	// nothing published (the engine has no rollback to undo with).
	pt := tr.StartPhase(trace.PhaseWALAppend)
	rec, rerr := db.stmtRecord(s, st, params)
	tr.EndPhase(pt)
	if rerr != nil {
		return nil, 0, rerr
	}
	catVer := db.cat.Version()
	r, err := s.runStmt(es, st, params, tr, an)
	pt = tr.StartPhase(trace.PhaseCommit)
	published, cerr := db.store.Commit()
	tr.EndPhase(pt)
	if cerr != nil && err == nil {
		err = cerr
	}
	pt = tr.StartPhase(trace.PhaseWALAppend)
	lsn, lerr := db.logStmt(rec, err, published || db.cat.Version() != catVer)
	tr.EndPhase(pt)
	if lerr != nil && err == nil {
		err = lerr
	}
	return r, lsn, err
}

// planRetrieve is the single check/plan/compile/cache function for
// every executed retrieve, read or write path. It runs inside the
// caller's pin window (shared statement lock) or under the write lock,
// so the plan-cache key, the checked catalog state and the bound store
// view all agree on one catalog version. A prepared statement first
// tries the entry it pinned last time (no cache traffic when the key
// still matches, so eviction never forces it to re-plan), then the
// cache; EXPLAIN ANALYZE and retrieve-into bypass the cache. Cache hits
// skip check, plan and compile entirely; authorization still runs on
// every execution — privileges change without bumping the catalog.
func (s *Session) planRetrieve(es *exec.State, r *ast.Retrieve, params *paramScope, tr *trace.StmtTrace, pin *planPin, an *analysis) (*planEntry, error) {
	db := s.db
	var e *planEntry
	var key planKey
	useCache := r.Into == "" && an == nil
	if useCache {
		if pin != nil {
			key = s.planKey(pin.text, params)
			if p := pin.last.Load(); p != nil && p.key == key {
				e = p
			}
		} else {
			key = s.planKey(ast.Print(r), params)
		}
		if e == nil {
			e = db.plans.get(key)
		}
	}
	if e == nil {
		pt := tr.StartPhase(trace.PhaseCheck)
		cq, err := s.checker(params).CheckRetrieve(r)
		tr.EndPhase(pt)
		if err != nil {
			return nil, err
		}
		e = &planEntry{key: key, cq: cq}
	}
	if err := s.authQuery(e.cq.Query, nil, e.cq.TargetExprs()...); err != nil {
		return nil, err
	}
	if e.plan == nil {
		pt := tr.StartPhase(trace.PhasePlan)
		e.plan = es.Plan(e.cq.Query)
		tr.EndPhase(pt)
		pt = tr.StartPhase(trace.PhaseCompile)
		e.code = es.Compile(e.cq, e.plan)
		tr.EndPhase(pt)
		if useCache {
			db.plans.put(e)
		}
	}
	if pin != nil && useCache {
		pin.last.Store(e)
	}
	return e, nil
}

// execPinnedPlan runs a planned retrieve against the State's bound
// view: after the pin window on the read path, so however long the scan
// runs no engine lock is held. Sampled statements and EXPLAIN ANALYZE
// run instrumented: the plan's runtime actuals become operator spans
// and the pool counter delta becomes storage attribution. EnableRuntime
// mutates the plan, and cached plans are shared by concurrent
// statements, so the instrumented run uses a private clone.
func (s *Session) execPinnedPlan(es *exec.State, e *planEntry, params *paramScope, tr *trace.StmtTrace, an *analysis) (*Result, error) {
	db := s.db
	plan := e.plan
	var rt *algebra.PlanRuntime
	var poolBase PoolStats
	if tr.Sampled() || an != nil {
		if v := es.SnapshotVersion(); v != 0 {
			tr.Active().AttrInt(0, "snapshot.version", int64(v))
		}
		plan = plan.Clone()
		rt = plan.EnableRuntime()
		poolBase = db.pool.Stats()
	}
	pt := tr.StartPhase(trace.PhaseExecute)
	res, err := withParams(es, params, func() (*Result, error) {
		return es.RetrievePlan(e.cq, plan, e.code)
	})
	if rt != nil {
		pool := db.pool.Stats().Sub(poolBase)
		addRetrieveSpans(tr, pt, plan, rt, pool)
		if an != nil {
			an.cq, an.plan, an.pool = e.cq, plan, pool
		}
	}
	tr.EndPhase(pt)
	return res, err
}

// labeled runs fn, attaching runtime/pprof labels (session, stmt_kind)
// when the ops plane enabled statement labeling — CPU profiles then
// attribute samples to query shapes. Off (the default), it is a direct
// call.
func (s *Session) labeled(kind string, fn func() error) error {
	if !s.db.labelStmts.Load() {
		return fn()
	}
	var err error
	pprof.Do(context.Background(),
		pprof.Labels("session", strconv.FormatInt(s.id, 10), "stmt_kind", kind),
		func(context.Context) { err = fn() })
	return err
}

// MustExec runs statements and panics on error; for examples and tests.
func (s *Session) MustExec(src string) *Result {
	r, err := s.Exec(src)
	if err != nil {
		panic(err)
	}
	return r
}

// MustQuery runs a retrieve and panics on error.
func (s *Session) MustQuery(src string) *Result {
	r, err := s.Query(src)
	if err != nil {
		panic(err)
	}
	return r
}

// runStmt dispatches one statement of a write batch (or a procedure
// body) through the session's per-statement execution state, reading
// and mutating the live store. params provides the parameter scope when
// executing procedure bodies and prepared statements; tr (nil for
// procedure bodies and WAL replay) accumulates phase durations for the
// statement-level trace, and an is non-nil under EXPLAIN ANALYZE.
// Callers hold the write lock for the whole call; the dispatch
// annotation keeps the lock checker cross-checking the arms against
// lint.StmtClass so a new statement kind cannot be dispatched without
// being classified. Read-only retrieves never arrive here from the
// envelope (they take readStmt's snapshot path); the Retrieve arm
// serves mixed batches, retrieve-into and procedure bodies, all of
// which must see the batch's own earlier uncommitted writes.
//
// extra:requires db.wmu.W
// extra:dispatch db.wmu sema.ReadOnly
func (s *Session) runStmt(es *exec.State, st ast.Statement, params *paramScope, tr *trace.StmtTrace, an *analysis) (*Result, error) {
	db := s.db
	db.countStmt(st, an)
	// Non-retrieve statements do not split phases; their whole cost
	// lands in the execute phase. Retrieves are timed per phase by
	// planRetrieve and execPinnedPlan.
	if _, isRet := st.(*ast.Retrieve); !isRet {
		pt := tr.StartPhase(trace.PhaseExecute)
		defer tr.EndPhase(pt)
	}
	switch st := st.(type) {
	case *ast.DefineType:
		_, err := db.cat.DefineTupleFromAST(st)
		if err == nil {
			db.auth.SetOwner(st.Name, s.user)
		}
		return nil, err
	case *ast.DefineEnum:
		return nil, db.cat.DefineEnum(&types.Enum{Name: st.Name, Labels: st.Labels})
	case *ast.Create:
		comp, err := db.cat.ResolveComponent(st.Comp)
		if err != nil {
			return nil, err
		}
		v, err := db.cat.CreateVar(st.Name, comp)
		if err != nil {
			return nil, err
		}
		if err := db.store.InitVar(v); err != nil {
			return nil, err
		}
		for i, key := range st.Keys {
			if _, err := db.store.BuildKey(st.Name, key, i); err != nil {
				return nil, err
			}
		}
		db.auth.SetOwner(st.Name, s.user)
		return nil, nil
	case *ast.Drop:
		if err := db.auth.Check(s.user, st.Name, authz.Update); err != nil {
			return nil, err
		}
		v, ok := db.cat.Var(st.Name)
		if !ok {
			return nil, fmt.Errorf("no database variable %s", st.Name)
		}
		if err := db.store.DropVar(v); err != nil {
			return nil, err
		}
		return nil, db.cat.DropVar(st.Name)
	case *ast.DefineFunction:
		_, err := sema.BuildFunction(db.cat, s.sem, st)
		return nil, err
	case *ast.DefineProcedure:
		p, err := sema.BuildProcedure(db.cat, st)
		if err != nil {
			return nil, err
		}
		p.Owner = s.user
		return nil, db.cat.DefineProcedure(p)
	case *ast.DefineIndex:
		_, err := db.store.BuildIndex(st.Name, st.Extent, st.Path, st.Unique)
		return nil, err
	case *ast.RangeDecl:
		// Validate eagerly so "range of E is Nonexistent" fails here.
		probe := sema.NewChecker(db.cat, sema.NewSession(), params.typesOrNil())
		if _, err := probe.ProbeRange(st); err != nil {
			return nil, err
		}
		s.sem.Declare(st)
		return nil, nil
	case *ast.Grant:
		return nil, db.auth.Grant(s.user, st.Priv, st.On, st.To)
	case *ast.Revoke:
		return nil, db.auth.Revoke(s.user, st.Priv, st.On, st.From)
	case *ast.Retrieve:
		e, err := s.planRetrieve(es, st, params, tr, nil, an)
		if err != nil {
			return nil, err
		}
		res, err := s.execPinnedPlan(es, e, params, tr, an)
		if err != nil {
			return nil, err
		}
		if e.cq.Into != "" {
			db.auth.SetOwner(e.cq.Into, s.user)
		}
		return res, nil
	case *ast.Append:
		ck := s.checker(params)
		ca, err := ck.CheckAppend(st)
		if err != nil {
			return nil, err
		}
		wr := ca.Extent
		if wr == "" {
			wr = ca.OwnerVar
		}
		if err := s.authQuery(ca.Query, []string{wr}); err != nil {
			return nil, err
		}
		_, err = withParams(es, params, func() (int, error) { return es.Append(ca) })
		return nil, err
	case *ast.Delete:
		ck := s.checker(params)
		cd, err := ck.CheckDelete(st)
		if err != nil {
			return nil, err
		}
		if err := s.authQuery(cd.Query, []string{cd.Var.Extent}); err != nil {
			return nil, err
		}
		_, err = withParams(es, params, func() (int, error) { return es.Delete(cd) })
		return nil, err
	case *ast.Replace:
		ck := s.checker(params)
		cr, err := ck.CheckReplace(st)
		if err != nil {
			return nil, err
		}
		if err := s.authQuery(cr.Query, []string{cr.Var.Extent}); err != nil {
			return nil, err
		}
		_, err = withParams(es, params, func() (int, error) { return es.Replace(cr) })
		return nil, err
	case *ast.SetStmt:
		ck := s.checker(params)
		cs, err := ck.CheckSet(st)
		if err != nil {
			return nil, err
		}
		if err := s.authQuery(cs.Query, []string{cs.VarName}); err != nil {
			return nil, err
		}
		_, err = withParams(es, params, func() (int, error) { return 0, es.Set(cs) })
		return nil, err
	case *ast.Execute:
		return nil, s.runExecute(es, st, params)
	}
	return nil, fmt.Errorf("unhandled statement %T", st)
}

func (s *Session) checker(params *paramScope) *sema.Checker {
	return sema.NewChecker(s.db.cat, s.sem, params.typesOrNil())
}

// withParams runs fn with the statement's parameter frame installed on
// its execution state.
func withParams[T any](es *exec.State, params *paramScope, fn func() (T, error)) (T, error) {
	if params != nil {
		es.PushParams(params.values)
		defer es.PopParams()
	}
	return fn()
}

// runExecute evaluates a procedure invocation: the body runs once per
// binding of the from/where clause with arguments as parameters.
//
// extra:requires db.wmu.W
func (s *Session) runExecute(es *exec.State, stmt *ast.Execute, params *paramScope) error {
	ck := s.checker(params)
	ce, err := ck.CheckExecute(stmt)
	if err != nil {
		return err
	}
	if err := s.authQuery(ce.Query, nil); err != nil {
		return err
	}
	ptypes := make(map[string]types.Type, len(ce.Proc.Params))
	for _, p := range ce.Proc.Params {
		ptypes[p.Name] = p.Type
	}
	sig := paramSig(ptypes)
	// Definer rights: the body runs with the owner's privileges, so a
	// procedure can encapsulate updates its caller could not perform
	// directly (the IDM stored-command pattern the paper builds data
	// abstraction from). The swap is safe because execute statements are
	// DDL-classified: runWriteStmt holds the exclusive statement lock in
	// addition to the write lock, so no concurrent reader's pin window
	// observes the temporary identity.
	caller := s.user
	if ce.Proc.Owner != "" {
		s.user = ce.Proc.Owner
	}
	defer func() { s.user = caller }()
	_, err = withParams(es, params, func() (int, error) {
		return es.Execute(ce, func(frame map[string]value.Value) error {
			scope := &paramScope{types: ptypes, values: frame, sig: sig}
			for _, bodyStmt := range ce.Proc.Body {
				// Body statements run untraced: their cost is already
				// inside the invoking execute's span.
				if _, err := s.runStmt(es, bodyStmt, scope, nil, nil); err != nil {
					return fmt.Errorf("procedure %s: %w", ce.Proc.Name, err)
				}
			}
			return nil
		})
	})
	return err
}

// authQuery enforces select on every extent and database variable a
// query reads (range sources, whole-extent aggregates, variable reads in
// any expression) and update on the write targets. Reads inside EXCESS
// function bodies are deliberately exempt — that exemption is the data
// abstraction mechanism of §4.2.3.
func (s *Session) authQuery(q sema.Query, writes []string, exprs ...sema.Expr) error {
	db := s.db
	reads := map[string]bool{}
	for _, v := range q.Vars {
		if v.Extent != "" {
			reads[v.Extent] = true
		}
	}
	collect := func(e sema.Expr) {
		sema.WalkExpr(e, func(x sema.Expr) {
			switch r := x.(type) {
			case *sema.DBVarRead:
				reads[r.Name] = true
			case *sema.ExtentSet:
				reads[r.Name] = true
			}
		})
	}
	collect(q.Where)
	for _, e := range exprs {
		collect(e)
	}
	for name := range reads {
		if err := db.auth.Check(s.user, name, authz.Select); err != nil {
			return err
		}
	}
	for _, w := range writes {
		if w == "" {
			continue
		}
		if err := db.auth.Check(s.user, w, authz.Update); err != nil {
			return err
		}
	}
	return nil
}
