package extra

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/types"
)

// TestPrepareRetrieve covers the prepared-statement happy path: $N slots
// typed from their use sites, repeated execution with different
// arguments, and results matching the unprepared equivalents.
func TestPrepareRetrieve(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	st, err := db.Prepare(`retrieve (E.name) from E in Employees where E.salary > $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.NumParams(); got != 1 {
		t.Fatalf("NumParams = %d, want 1", got)
	}
	// The slot's type is inferred from the comparison against salary.
	if pt := st.ptypes[0]; pt == nil || pt.Kind() != types.KInt4 {
		t.Errorf("parameter type = %v, want int4", pt)
	}
	for _, tc := range []struct {
		arg  int
		want string
	}{
		{80, "Ann,Cal"},
		{100, "Cal"},
		{0, "Ann,Ben,Cal,Dee"},
		{1000, ""},
	} {
		res := st.MustExec(tc.arg)
		if got := names(res); got != tc.want {
			t.Errorf("Exec(%d) = %q, want %q", tc.arg, got, tc.want)
		}
	}
	// Argument arity is enforced.
	if _, err := st.Exec(); err == nil || !strings.Contains(err.Error(), "1 parameter") {
		t.Errorf("no-arg Exec error = %v", err)
	}
	if _, err := st.Exec(1, 2); err == nil {
		t.Errorf("two-arg Exec did not error")
	}
}

// TestPrepareAmortizesPhases: the steady-state executions of a prepared
// retrieve perform no parse, check or plan work — only the first Exec
// (and any re-prepare) pays those phases.
func TestPrepareAmortizesPhases(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	st, err := db.Prepare(`retrieve (E.name) from E in Employees where E.salary > $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.MustExec(50) // first execution checks and plans
	base := db.MetricsSnapshot()
	for i := 0; i < 10; i++ {
		st.MustExec(50 + i)
	}
	s := db.MetricsSnapshot()
	// Every statement observes every phase histogram (zero durations
	// included), so amortization shows up as zero accumulated time, not
	// zero observations.
	if d := s.Histograms["phase.check"].SumNS - base.Histograms["phase.check"].SumNS; d != 0 {
		t.Errorf("steady-state Execs spent %dns re-checking", d)
	}
	if d := s.Histograms["phase.plan"].SumNS - base.Histograms["phase.plan"].SumNS; d != 0 {
		t.Errorf("steady-state Execs spent %dns re-planning", d)
	}
	if d := s.Histograms["phase.execute"].Count - base.Histograms["phase.execute"].Count; d != 10 {
		t.Errorf("execute phase observed %d times, want 10", d)
	}
}

// TestPrepareReprepareAfterDDL: DDL between executions transparently
// re-prepares instead of serving a stale plan.
func TestPrepareReprepareAfterDDL(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	st, err := db.Prepare(`retrieve (E.name) from E in Employees where E.salary > $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := names(st.MustExec(80)); got != "Ann,Cal" {
		t.Fatalf("pre-DDL rows: %q", got)
	}
	verBefore := db.cat.Version()

	db.MustExec(`define index emp_sal on Employees (salary)`)
	db.MustExec(`append to Employees (name = "Eve", age = 30, salary = 200)`)

	if got := names(st.MustExec(80)); got != "Ann,Cal,Eve" {
		t.Fatalf("post-DDL rows: %q — stale plan or stale check", got)
	}
	pinned := st.pin.last.Load()
	if pinned == nil {
		t.Fatalf("re-prepared statement has no pinned plan-cache entry")
	}
	if pinned.key.catVer <= verBefore {
		t.Errorf("statement not re-prepared: pinned version %d, pre-DDL version %d", pinned.key.catVer, verBefore)
	}
	// The predicate compares against a parameter, so index selection has
	// no literal to probe with — but a fresh plan was built.
	if pinned.plan == nil {
		t.Errorf("re-prepared statement has no pinned plan")
	}
}

// TestPrepareNonRetrieve: DML prepares too — parsing and parameter
// typing amortize, checking re-runs per execution (updates invalidate
// their own checked forms).
func TestPrepareNonRetrieve(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	app, err := db.Prepare(`append to Employees (name = $1, age = $2, salary = $3)`)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if got := app.NumParams(); got != 3 {
		t.Fatalf("NumParams = %d, want 3", got)
	}
	app.MustExec("Eve", 30, 60)
	app.MustExec("Fay", 25, 75)
	res := db.MustQuery(`retrieve (n = count(Employees))`)
	if got := res.Rows[0][0].String(); got != "6" {
		t.Fatalf("count after prepared appends = %s, want 6", got)
	}
	res = db.MustQuery(`retrieve (E.salary) from E in Employees where E.name = "Fay"`)
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "75" {
		t.Fatalf("prepared append mistyped values: %v", res.Rows)
	}
}

// TestPrepareClosed: Exec after Close fails cleanly.
func TestPrepareClosed(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	st, err := db.Prepare(`retrieve (E.name) from E in Employees`)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := st.Exec(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Exec after Close = %v", err)
	}
}

// TestPrepareCheckErrors: bad statements fail at Prepare, not at Exec.
func TestPrepareCheckErrors(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	if _, err := db.Prepare(`retrieve (E.nosuch) from E in Employees`); err == nil {
		t.Errorf("prepare of invalid statement succeeded")
	}
	if _, err := db.Prepare(`retrieve (E.name) from`); err == nil {
		t.Errorf("prepare of unparsable statement succeeded")
	}
}

// TestPrepareConcurrent runs one prepared read-only statement from many
// goroutines; the pinned plan is shared and must be safe under the
// concurrent read path.
func TestPrepareConcurrent(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	st, err := db.Prepare(`retrieve (E.name) from E in Employees where E.salary > $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := names(st.MustExec(80))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, err := st.Exec(80)
				if err != nil {
					errs <- err
					return
				}
				if got := names(res); got != want {
					errs <- fmt.Errorf("rows %q, want %q", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
