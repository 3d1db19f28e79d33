package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	extra "repro"
)

// class is one statement template of the benchmark's mixes.
type class int

const (
	cLookup    class = iota // prepared point lookup by name = $1
	cLiteral                // literal point lookup by name
	cRefChase               // prepared count where E.dept.floor = $1
	cAggregate              // avg(E.salary by E.dept.floor)
	cKids                   // nested-set range K in E.kids, repeated texts
	cAdhoc                  // textually unique retrieves (plan-cache misses)
	cAppend                 // prepared single-row append into Employees
	cReplace                // literal-key salary replace (index probe)
	cDelete                 // literal-key delete of a row this run appended
	cSmall                  // literal budget replace in the 20-row Departments
	numClasses
)

var classNames = [numClasses]string{"lookup", "literal", "refchase", "aggregate", "kids", "adhoc", "append", "replace", "delete", "small_write"}

func (c class) write() bool { return c >= cAppend }

// readWeights is the read-mix, in percent of statements. It is a chosen
// synthetic mix (the repo has no recorded traffic to copy):
//   - lookup and literal, 20 each: the prepared and literal forms of
//     one point lookup in equal numbers, so the $1 plan is compared with
//     the literal plan on the same traffic;
//   - refchase 4 and aggregate 2: navigation and grouping over the
//     whole extent, rare as such reports are in OLTP traffic;
//   - kids 24: repeated texts, served from the plan cache;
//   - adhoc 30: unique texts, parsed, checked and planned every time.
//
// The prepared lookup scans the extent on the parent engine, so it takes
// about two thirds of read-mix's statement time, the ref-chase and the
// aggregate most of the rest (the share.<class> metrics measure this).
var readWeights = [...]struct {
	c class
	w int
}{{cLookup, 20}, {cLiteral, 20}, {cRefChase, 4}, {cAggregate, 2}, {cKids, 24}, {cAdhoc, 30}}

const (
	// appendLag is how many of its own appended rows a session keeps
	// before deleting the oldest, so the extent stays at 16,000 plus a
	// few rows while every delete removes a row this run appended.
	appendLag = 8
	// hotKids is the number of employees whose kids query texts repeat:
	// few enough that most of them stay in the 256-entry plan cache
	// while the ad-hoc and literal texts pass through it.
	hotKids = 64
	// mixedWriteShare is the share of write templates in mixed.
	mixedWriteShare = 0.2
)

const (
	qLookup   = `retrieve (E.name, E.age, E.salary) from E in Employees where E.name = $1`
	qLiteral  = `retrieve (E.name, E.age, E.salary) from E in Employees where E.name = "%s"`
	qAdhoc    = `retrieve (E.name, E.age, E.salary) from E in Employees where E.name = "%s" and E.age < %d`
	qRefChase = `retrieve (n = count(E.name)) from E in Employees where E.dept.floor = $1`
	qAgg      = `retrieve (f = E.dept.floor, a = avg(E.salary by E.dept.floor)) from E in Employees`
	qKids     = `retrieve (K.name, K.age) from E in Employees, K in E.kids where E.name = "%s"`
	qAppend   = `append to Employees (name = $1, age = $2, salary = $3, dept = D) from D in Departments where D.dname = $4`
	qReplace  = `replace E (salary = %d) from E in Employees where E.name = "%s"`
	qDelete   = `delete E from E in Employees where E.name = "%s"`
	qSmall    = `replace D (budget = %d) from D in Departments where D.dname = "%s"`
	qCount    = `retrieve (n = count(Employees.name))`
	qIndex    = `define unique index EmpName on Employees (name)`
)

// workloadSpec is one closed-loop workload.
type workloadSpec struct {
	name     string
	sessions int
	// writes: 0 read-only, 1 the write-oltp cycle, otherwise the share
	// of write statements in the mix.
	writes float64
}

var workloads = []workloadSpec{
	{name: "read-mix", sessions: 2},
	{name: "write-oltp", sessions: 1, writes: 1},
	{name: "mixed", sessions: 2, writes: mixedWriteShare},
}

// expect is what the dataset says the engine must return; each session
// also tracks the rows it changed (it alone writes its partition).
type expect struct {
	data      *Dataset
	sessions  int
	floorEmps [numFloors + 1]int     // base employees per department floor
	floorAvg  [numFloors + 1]float64 // base average salary per floor
}

func newExpect(d *Dataset, sessions int) *expect {
	e := &expect{data: d, sessions: sessions}
	var sum [numFloors + 1]float64
	for _, emp := range d.Emps {
		f := d.Depts[emp.Dept].Floor
		e.floorEmps[f]++
		sum[f] += float64(emp.Salary)
	}
	for f := 1; f <= numFloors; f++ {
		if e.floorEmps[f] > 0 {
			e.floorAvg[f] = sum[f] / float64(e.floorEmps[f])
		}
	}
	return e
}

// sample is one timed statement.
type sample struct {
	c   class
	dur time.Duration
}

// worker is one client session running the closed loop. Only its own
// goroutine touches it while a phase runs.
type worker struct {
	id   int
	spec workloadSpec
	db   *extra.DB
	s    *extra.Session
	rng  *rand.Rand
	exp  *expect

	lookup, refChase, appendSt *extra.Stmt

	// Model of this session's writes: it owns employees and
	// departments with index ≡ id (mod sessions).
	salary    map[int]int
	budget    map[int]int
	appended  int
	pending   []string // appended, not yet deleted (oldest first)
	deleted   []string
	writeStep int
	seq       int
	deck      []class
	next      int // position in deck; len(deck) reshuffles

	// Per-phase recording.
	samples   []sample
	record    bool // take buffer-pool readings and spans (traced runs)
	spans     spanLog
	poolDelta [numClasses]uint64 // buffer-pool accesses by class
	poolEvict [numClasses]uint64
	poolCount [numClasses]int

	attempted, failed int
	errs              []string
}

func newWorker(id int, spec workloadSpec, db *extra.DB, exp *expect, seed int64) (*worker, error) {
	w := &worker{id: id, spec: spec, db: db, s: db.NewSession(), exp: exp,
		rng:    rand.New(rand.NewSource(seed*1000 + int64(id) + 1)),
		salary: map[int]int{}, budget: map[int]int{}}
	w.deck = newDeck(spec.writes)
	w.next = len(w.deck)
	var err error
	if w.lookup, err = w.s.Prepare(qLookup); err != nil {
		return nil, fmt.Errorf("prepare lookup: %w", err)
	}
	if w.refChase, err = w.s.Prepare(qRefChase); err != nil {
		return nil, fmt.Errorf("prepare ref-chase: %w", err)
	}
	if w.appendSt, err = w.s.Prepare(qAppend); err != nil {
		return nil, fmt.Errorf("prepare append: %w", err)
	}
	return w, nil
}

func (w *worker) close() {
	w.lookup.Close()
	w.refChase.Close()
	w.appendSt.Close()
}

func (w *worker) fail(format string, args ...any) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, fmt.Sprintf("session %d: ", w.id)+fmt.Sprintf(format, args...))
	}
}

// do times one statement, then checks its result outside the timing;
// it reports whether the statement succeeded and passed its check.
func (w *worker) do(c class, call func() (*extra.Result, error), check func(*extra.Result) error) bool {
	w.attempted++
	var before extra.PoolStats
	if w.record {
		before = w.db.PoolStats()
	}
	t0 := time.Now()
	res, err := call()
	t1 := time.Now()
	if w.record {
		d := w.db.PoolStats().Sub(before)
		w.poolDelta[c] += d.Hits + d.Misses
		w.poolEvict[c] += d.Evictions
		w.poolCount[c]++
		w.spans.add(-1, "bench", classNames[c], w.s.ID(), t0, t1)
	}
	if err != nil {
		w.fail("%s: %v", classNames[c], err)
		return false
	}
	w.samples = append(w.samples, sample{c, t1.Sub(t0)})
	if check != nil {
		if err := check(res); err != nil {
			w.fail("%s: %v", classNames[c], err)
			return false
		}
	}
	return true
}

// own picks one of the first n employees or departments that belong
// to this session's partition.
func (w *worker) own(n int) int {
	k := w.exp.sessions
	return w.id + k*w.rng.Intn((n-w.id+k-1)/k)
}

func (w *worker) ownEmp() int  { return w.own(len(w.exp.data.Emps)) }
func (w *worker) ownDept() int { return w.own(len(w.exp.data.Depts)) }

func (w *worker) empSalary(i int) int {
	if s, ok := w.salary[i]; ok {
		return s
	}
	return w.exp.data.Emps[i].Salary
}

// checkEmpRow requires exactly the row (name, age, salary) of employee i.
func (w *worker) checkEmpRow(i int) func(*extra.Result) error {
	return func(r *extra.Result) error {
		e := w.exp.data.Emps[i]
		if len(r.Rows) != 1 || len(r.Rows[0]) != 3 {
			return fmt.Errorf("%s: %d rows, want 1", e.Name, len(r.Rows))
		}
		got := fmt.Sprintf("%s %s %s", r.Rows[0][0], r.Rows[0][1], r.Rows[0][2])
		want := fmt.Sprintf("%q %d %d", e.Name, e.Age, w.empSalary(i))
		if got != want {
			return fmt.Errorf("got %s, want %s", got, want)
		}
		return nil
	}
}

// deckSize is the length of one pass of a session's statement mix: 500
// slots give every weight and the 20% write share a whole number of
// slots.
const deckSize = 500

// drawWrite marks a deck slot that runs the next write of the rotation.
const drawWrite = numClasses

// newDeck returns one pass of the mix: writes at their share and read
// templates in readWeights proportions. Sessions draw the deck in a
// shuffled order, so every pass runs the mix exactly and a window of
// the run does not depend on how a random draw happened to fall.
func newDeck(writes float64) []class {
	var deck []class
	for i := 0; i < int(writes*deckSize+0.5); i++ {
		deck = append(deck, drawWrite)
	}
	for _, rw := range readWeights {
		n := int(float64(rw.w)*deckSize/100*(1-writes) + 0.5)
		for i := 0; i < n; i++ {
			deck = append(deck, rw.c)
		}
	}
	return deck
}

func (w *worker) readOp(c class) {
	switch c {
	case cLookup:
		w.doLookup(w.ownEmp())
	case cLiteral:
		w.doLiteral(w.ownEmp())
	case cAdhoc:
		i := w.ownEmp()
		w.seq++
		src := fmt.Sprintf(qAdhoc, w.exp.data.Emps[i].Name, 1000+w.seq*w.exp.sessions+w.id)
		w.do(cAdhoc, func() (*extra.Result, error) { return w.s.Query(src) }, w.checkEmpRow(i))
	case cRefChase:
		f := 1 + w.rng.Intn(numFloors)
		w.do(cRefChase, func() (*extra.Result, error) { return w.refChase.Exec(f) }, func(r *extra.Result) error {
			n, err := intCell(r)
			if err != nil {
				return err
			}
			if lo, hi := w.exp.floorEmps[f], w.exp.floorEmps[f]+w.slack(); n < lo || n > hi {
				return fmt.Errorf("floor %d: %d employees, want %d..%d", f, n, lo, hi)
			}
			return nil
		})
	case cAggregate:
		w.do(cAggregate, func() (*extra.Result, error) { return w.s.Query(qAgg) }, w.checkAggregate)
	case cKids:
		i := w.rng.Intn(hotKids)
		src := fmt.Sprintf(qKids, w.exp.data.Emps[i].Name)
		w.do(cKids, func() (*extra.Result, error) { return w.s.Query(src) }, func(r *extra.Result) error {
			var got, want []string
			for _, row := range r.Rows {
				got = append(got, fmt.Sprintf("%s %s", row[0], row[1]))
			}
			for _, k := range w.exp.data.Emps[i].Kids {
				want = append(want, fmt.Sprintf("%q %d", k.Name, k.Age))
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				return fmt.Errorf("kids of %d: got %v, want %v", i, got, want)
			}
			return nil
		})
	}
}

// slack bounds how many appended rows other sessions (and this one)
// may have live at once; read-mix has none.
func (w *worker) slack() int {
	if w.spec.writes == 0 {
		return 0
	}
	return w.exp.sessions * (appendLag + 1)
}

// checkAggregate requires one row per department floor, each with the
// floor's average salary (exact in read-mix; concurrent salary writes
// move it in mixed).
func (w *worker) checkAggregate(r *extra.Result) error {
	floors := 0
	for f := 1; f <= numFloors; f++ {
		if w.exp.floorEmps[f] > 0 {
			floors++
		}
	}
	if len(r.Rows) != floors {
		return fmt.Errorf("%d rows, want %d", len(r.Rows), floors)
	}
	for _, row := range r.Rows {
		f, err := strconv.Atoi(row[0].String())
		if err != nil || f < 1 || f > numFloors || w.exp.floorEmps[f] == 0 {
			return fmt.Errorf("bad floor %s", row[0])
		}
		if w.spec.writes != 0 {
			continue
		}
		a, err := strconv.ParseFloat(row[1].String(), 64)
		if err != nil || math.Abs(a-w.exp.floorAvg[f]) > 1e-9*w.exp.floorAvg[f] {
			return fmt.Errorf("floor %d avg %s, want %g", f, row[1], w.exp.floorAvg[f])
		}
	}
	return nil
}

func intCell(r *extra.Result) (int, error) {
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
		return 0, fmt.Errorf("want one cell, got %d rows", len(r.Rows))
	}
	return strconv.Atoi(r.Rows[0][0].String())
}

func (w *worker) doLookup(i int) {
	name := w.exp.data.Emps[i].Name
	w.do(cLookup, func() (*extra.Result, error) { return w.lookup.Exec(name) }, w.checkEmpRow(i))
}

func (w *worker) doLiteral(i int) {
	src := fmt.Sprintf(qLiteral, w.exp.data.Emps[i].Name)
	w.do(cLiteral, func() (*extra.Result, error) { return w.s.Query(src) }, w.checkEmpRow(i))
}

func (w *worker) doAppend() {
	name := fmt.Sprintf("bench-%d-%d", w.id, w.appended)
	dept := w.exp.data.Depts[w.ownDept()].Name
	age, sal := 20+w.rng.Intn(45), w.rng.Intn(maxSalary)
	if w.do(cAppend, func() (*extra.Result, error) { return w.appendSt.Exec(name, age, sal, dept) }, nil) {
		w.appended++
		w.pending = append(w.pending, name)
	}
}

// doReplace writes a new salary and returns the employee it changed.
func (w *worker) doReplace() int {
	i := w.ownEmp()
	sal := w.rng.Intn(maxSalary)
	src := fmt.Sprintf(qReplace, sal, w.exp.data.Emps[i].Name)
	if w.do(cReplace, func() (*extra.Result, error) { return w.s.Exec(src) }, nil) {
		w.salary[i] = sal
	}
	return i
}

func (w *worker) doSmall() {
	d := w.ownDept()
	b := w.rng.Intn(1000000)
	src := fmt.Sprintf(qSmall, b, w.exp.data.Depts[d].Name)
	if w.do(cSmall, func() (*extra.Result, error) { return w.s.Exec(src) }, nil) {
		w.budget[d] = b
	}
}

// doDelete removes this session's oldest appended row once more than
// appendLag are live; it reports whether it ran.
func (w *worker) doDelete() bool {
	if len(w.pending) <= appendLag {
		return false
	}
	name := w.pending[0]
	src := fmt.Sprintf(qDelete, name)
	if w.do(cDelete, func() (*extra.Result, error) { return w.s.Exec(src) }, nil) {
		w.pending = w.pending[1:]
		w.deleted = append(w.deleted, name)
	}
	return true
}

// oltpCycle is write-oltp's fixed statement cycle: append, salary
// replace, a literal read-back of the replaced row (an index probe that
// checks the write and gives the workload its reads), a Departments
// budget write, and the delete that keeps the extent size steady.
func (w *worker) oltpCycle() {
	w.doAppend()
	w.doLiteral(w.doReplace())
	w.doSmall()
	w.doDelete()
}

// mixedWrite runs the next write of the rotation append, replace,
// Departments write, delete.
func (w *worker) mixedWrite() {
	for {
		step := w.writeStep % 4
		w.writeStep++
		switch step {
		case 0:
			w.doAppend()
		case 1:
			w.doReplace()
		case 2:
			w.doSmall()
		case 3:
			if !w.doDelete() {
				continue
			}
		}
		return
	}
}

// runUntil runs the worker's closed loop until the deadline.
func (w *worker) runUntil(deadline time.Time) {
	for time.Now().Before(deadline) {
		if w.spec.writes == 1 {
			w.oltpCycle()
			continue
		}
		if w.next == len(w.deck) {
			w.rng.Shuffle(len(w.deck), func(i, j int) { w.deck[i], w.deck[j] = w.deck[j], w.deck[i] })
			w.next = 0
		}
		c := w.deck[w.next]
		w.next++
		if c == drawWrite {
			w.mixedWrite()
		} else {
			w.readOp(c)
		}
	}
}
