package extra

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/excess/ast"
	"repro/internal/excess/parse"
	"repro/internal/trace"
)

// ErrNotRetrieve reports that a statement given to a retrieve-only
// entry point (Query, Explain, ExplainAnalyze) is not a retrieve.
var ErrNotRetrieve = errors.New("not a retrieve statement")

// ExplainOutput re-exports the machine-readable EXPLAIN ANALYZE
// document (see DB.ExplainAnalyzeJSON for the serialized form).
type ExplainOutput = algebra.AnalyzeReport

// Explain type-checks and plans a retrieve statement and returns the
// optimizer's plan as an indented text tree — which access method each
// variable uses, where each predicate conjunct was attached, and the
// universally quantified residue. The query is not executed.
//
// extra:acquires db.mu.R
// extra:output
// extra:snapshot
func (db *DB) Explain(src string) (string, error) {
	st, err := parse.One(src, db.reg)
	if err != nil {
		return "", err
	}
	r, ok := st.(*ast.Retrieve)
	if !ok {
		return "", fmt.Errorf("explain: %w", ErrNotRetrieve)
	}
	// Planning never executes the query; a pin window suffices even for
	// retrieve into.
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return "", errDBClosed
	}
	// When the default session already executed this statement, show the
	// plan the engine would actually serve — the cache hit, rendered with
	// its "(cached)" marker. The lookup does not populate the cache:
	// explaining a statement is not executing it.
	if r.Into == "" {
		if e := db.plans.peek(db.def.planKey(ast.Print(r), nil)); e != nil {
			return e.plan.Explain(), nil
		}
	}
	cq, err := db.def.checker(nil).CheckRetrieve(r)
	if err != nil {
		return "", err
	}
	// Plan against a pinned snapshot so cardinality estimation reads a
	// stable view, not extents a concurrent writer is growing.
	es := db.exec.NewState()
	defer es.Release()
	es.BindSnapshot(db.store.Snapshot())
	plan := es.Plan(cq.Query)
	return plan.Explain(), nil
}

// ExplainAnalyze executes a retrieve with per-operator instrumentation
// and renders the plan tree annotated with actuals: rows in/out, loops,
// self time and buffer-pool hits/misses per operator, plus residual
// filter, quantification, aggregation and phase-timing totals. Unlike
// Explain, the query (including any into clause) really runs.
//
// extra:output
func (db *DB) ExplainAnalyze(src string) (string, error) {
	plan, sum, err := db.analyze(src)
	if err != nil {
		return "", err
	}
	return plan.ExplainAnalyze(sum), nil
}

// ExplainAnalyzeReport is ExplainAnalyze returning the structured
// document instead of rendered text.
//
// extra:output
func (db *DB) ExplainAnalyzeReport(src string) (*ExplainOutput, error) {
	plan, sum, err := db.analyze(src)
	if err != nil {
		return nil, err
	}
	return plan.Report(sum), nil
}

// ExplainAnalyzeJSON is ExplainAnalyze with machine-readable JSON
// output.
//
// extra:output
func (db *DB) ExplainAnalyzeJSON(src string) (string, error) {
	rep, err := db.ExplainAnalyzeReport(src)
	if err != nil {
		return "", err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// analyze runs one retrieve through the statement envelope with
// instrumentation forced on and the plan cache bypassed, returning the
// instrumented plan and the statement-level summary. Unlike Explain,
// the query really runs: it is classified like any other statement — a
// plain retrieve takes the snapshot read path, a retrieve into mutates
// the catalog and store and serializes like DDL. The summary's timings
// are the statement's own phase timers.
func (db *DB) analyze(src string) (*algebra.Plan, algebra.AnalyzeSummary, error) {
	var sum algebra.AnalyzeSummary
	c, err := db.def.parseRetrieve(src, "explain analyze: %w")
	if err != nil {
		return nil, sum, err
	}
	c.kind, c.an = "analyze", &analysis{}
	res, err := db.def.run(c)
	if err != nil {
		return nil, sum, err
	}
	an := c.an
	sum.Parse = c.tr.Dur(trace.PhaseParse)
	sum.Check = c.tr.Dur(trace.PhaseCheck)
	sum.Plan = c.tr.Dur(trace.PhasePlan)
	sum.Execute = c.tr.Dur(trace.PhaseExecute)
	sum.PoolHits, sum.PoolMisses = an.pool.Hits, an.pool.Misses
	sum.Rows = len(res.Rows)
	sum.Aggregated = an.cq.Aggregated
	if an.cq.Aggregated {
		sum.Groups = len(res.Rows)
	}
	return an.plan, sum, nil
}
