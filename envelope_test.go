package extra

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestUseAfterCloseUniform drives every entry point of the statement
// envelope, and the Go-API writes beside it, against a closed database
// with every statement traced: each must fail with errDBClosed, leave
// the store version and stmt.errors alone (use-after-close is a caller
// bug, not a statement error), and finish every trace and span it
// started.
func TestUseAfterCloseUniform(t *testing.T) {
	const q = `retrieve (E.name) from E in Employees where E.salary > $1`
	for _, tc := range []struct {
		name string
		run  func(db *DB, read, write *Stmt, emp Obj) error
	}{
		{"Exec read", func(db *DB, _, _ *Stmt, _ Obj) error {
			_, err := db.Exec(`retrieve (E.name) from E in Employees`)
			return err
		}},
		{"Exec write", func(db *DB, _, _ *Stmt, _ Obj) error {
			_, err := db.Exec(`append to Employees (name = "Zed", age = 1, salary = 1)`)
			return err
		}},
		{"Query", func(db *DB, _, _ *Stmt, _ Obj) error {
			_, err := db.Query(`retrieve (E.name) from E in Employees`)
			return err
		}},
		{"prepared read", func(_ *DB, read, _ *Stmt, _ Obj) error {
			_, err := read.Exec(80)
			return err
		}},
		{"prepared write", func(_ *DB, _, write *Stmt, _ Obj) error {
			_, err := write.Exec("Zed")
			return err
		}},
		{"ExplainAnalyze", func(db *DB, _, _ *Stmt, _ Obj) error {
			_, err := db.ExplainAnalyze(`retrieve (E.name) from E in Employees`)
			return err
		}},
		{"ExplainAnalyze into", func(db *DB, _, _ *Stmt, _ Obj) error {
			_, err := db.ExplainAnalyze(`retrieve into Rich (E.name) from E in Employees`)
			return err
		}},
		{"Insert", func(db *DB, _, _ *Stmt, _ Obj) error {
			_, err := db.Insert("Employees", Attrs{"name": "Zed", "age": 1, "salary": 1})
			return err
		}},
		{"SetRef", func(db *DB, _, _ *Stmt, emp Obj) error {
			return db.SetRef(emp, "dept", Obj{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(WithTracing(1, 16))
			if err != nil {
				t.Fatal(err)
			}
			loadCompany(t, db)
			read, err := db.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			write, err := db.Prepare(`append to Employees (name = $1, age = 1, salary = 1)`)
			if err != nil {
				t.Fatal(err)
			}
			emp, err := db.Insert("Employees", Attrs{"name": "Yan", "age": 1, "salary": 1})
			if err != nil {
				t.Fatal(err)
			}
			read.MustExec(80)
			db.Close()
			errsBefore := db.MetricsSnapshot().Counters["stmt.errors"]
			verBefore := db.store.Version()
			if err := tc.run(db, read, write, emp); !errors.Is(err, errDBClosed) {
				t.Fatalf("error = %v, want errDBClosed", err)
			}
			if got := db.store.Version(); got != verBefore {
				t.Errorf("store version moved %d -> %d on use-after-close", verBefore, got)
			}
			if got := db.MetricsSnapshot().Counters["stmt.errors"]; got != errsBefore {
				t.Errorf("stmt.errors moved %d -> %d on use-after-close", errsBefore, got)
			}
			s := db.Tracer().Stats()
			if s.TracesStarted != s.TracesFinished {
				t.Errorf("trace leak: %d started, %d finished", s.TracesStarted, s.TracesFinished)
			}
			if s.SpansStarted != s.SpansFinished {
				t.Errorf("span leak: %d started, %d finished", s.SpansStarted, s.SpansFinished)
			}
		})
	}
}

// phaseCoverage returns the share of stmt.latency the phase histograms
// account for between two snapshots.
func phaseCoverage(before, after MetricsSnapshot) (share float64, stmts uint64) {
	var phases uint64
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		name := "phase." + p.Name()
		phases += after.Histograms[name].SumNS - before.Histograms[name].SumNS
	}
	total := after.Histograms["stmt.latency"].SumNS - before.Histograms["stmt.latency"].SumNS
	stmts = after.Histograms["stmt.latency"].Count - before.Histograms["stmt.latency"].Count
	if total == 0 {
		return 0, stmts
	}
	return float64(phases) / float64(total), stmts
}

// TestWritePhaseCoverage: on a WAL-backed database the write phases
// (lock wait, execute, commit, WAL append, durability wait) account for
// essentially all of a write statement's latency — ad hoc, prepared and
// batched alike.
func TestWritePhaseCoverage(t *testing.T) {
	db, err := Open(WithWAL(t.TempDir()), WithWALSync(WALSyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(`define type P: ( a: int4, b: int4 ) create Ps : { own P }`)
	var load strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&load, "append to Ps (a = %d, b = 0)\n", i)
	}
	db.MustExec(load.String())
	app, err := db.Prepare(`append to Ps (a = $1, b = 1)`)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	for _, tc := range []struct {
		name  string
		stmts uint64
		run   func(i int)
	}{
		{"replace", 200, func(i int) {
			db.MustExec(fmt.Sprintf(`replace P (b = P.b + 1) from P in Ps where P.a = %d`, i*7))
		}},
		{"prepared append", 200, func(i int) { app.MustExec(5000 + i) }},
		{"batch", 50, func(i int) {
			db.MustExec(fmt.Sprintf(`replace P (b = 2) from P in Ps where P.a = %d
				append to Ps (a = %d, b = 2)`, i, 9000+i))
		}},
	} {
		before := db.MetricsSnapshot()
		for i := 0; i < int(tc.stmts); i++ {
			tc.run(i)
		}
		share, n := phaseCoverage(before, db.MetricsSnapshot())
		t.Logf("%s: phases cover %.4f of %d statements' latency", tc.name, share, n)
		if n != tc.stmts {
			t.Errorf("%s: stmt.latency observed %d statements, want %d", tc.name, n, tc.stmts)
		}
		if share < 0.95 {
			t.Errorf("%s: phases account for %.3f of statement latency, want >= 0.95", tc.name, share)
		}
	}
}

// TestPreparedSharesPlanCache: a prepared retrieve lives in the one
// engine plan cache under its parameter-type signature — a second
// statement with the same text and slot types hits the first one's
// entry — and the entry it pinned survives eviction from the cache, so
// a steady-state Exec never re-plans.
func TestPreparedSharesPlanCache(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	const q = `retrieve (E.name) from E in Employees where E.salary > $1`
	a, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	a.MustExec(80)
	if got := names(b.MustExec(80)); got != "Ann,Cal" {
		t.Fatalf("rows = %q", got)
	}
	s := db.MetricsSnapshot()
	if s.Counters["plan.cache.misses"] != 1 || s.Counters["plan.cache.hits"] != 1 {
		t.Errorf("misses/hits = %d/%d, want 1/1 (second statement shares the entry)",
			s.Counters["plan.cache.misses"], s.Counters["plan.cache.hits"])
	}

	for i := 0; i < defaultPlanCacheCap+1; i++ {
		db.MustQuery(fmt.Sprintf(`retrieve (E.name) from E in Employees where E.age = %d`, i))
	}
	if db.plans.peek(a.pin.last.Load().key) != nil {
		t.Fatal("prepared entry not evicted; the test proves nothing")
	}
	base := db.MetricsSnapshot()
	if got := names(a.MustExec(100)); got != "Cal" {
		t.Fatalf("rows after eviction = %q", got)
	}
	s = db.MetricsSnapshot()
	if d := s.Histograms["phase.plan"].SumNS - base.Histograms["phase.plan"].SumNS; d != 0 {
		t.Errorf("evicted pinned entry forced a re-plan (%dns)", d)
	}
	if d := s.Counters["plan.cache.misses"] - base.Counters["plan.cache.misses"]; d != 0 {
		t.Errorf("pinned entry went to the cache: %d misses", d)
	}
}
