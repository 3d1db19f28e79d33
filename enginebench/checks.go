package main

import (
	"fmt"

	extra "repro"
)

// checker runs the end-of-run checks through the database's default
// session, counting each statement as attempted and each failed
// statement or wrong answer as failed.
type checker struct {
	db  *extra.DB
	rep *report
}

func (k *checker) fail(format string, args ...any) {
	k.rep.failed++
	if len(k.rep.errs) < 20 {
		k.rep.errs = append(k.rep.errs, fmt.Sprintf(format, args...))
	}
}

func (k *checker) query(src string) (*extra.Result, bool) {
	k.rep.attempted++
	r, err := k.db.Query(src)
	if err != nil {
		k.fail("%s: %v", src, err)
		return nil, false
	}
	return r, true
}

// count runs a single-count retrieve and compares it with want.
func (k *checker) count(src string, want int) {
	if r, ok := k.query(src); ok {
		if n, err := intCell(r); err != nil || n != want {
			k.fail("%s: got %v (%v), want %d", src, r.Rows, err, want)
		}
	}
}

// endChecks verifies the final state against the model: the extent
// size, the engine's own consistency check, every acknowledged write of
// every session, and that prepared and literal lookups agree.
func endChecks(db *extra.DB, exp *expect, workers []*worker, rep *report) {
	k := &checker{db: db, rep: rep}
	want := len(exp.data.Emps)
	for _, w := range workers {
		want += w.appended - len(w.deleted)
	}
	k.count(qCount, want)
	rep.attempted++
	if bad := db.CheckConsistency(); len(bad) > 0 {
		k.fail("consistency: %v", bad)
	}
	for _, w := range workers {
		for i, sal := range w.salary {
			e := exp.data.Emps[i]
			k.count(fmt.Sprintf(`retrieve (n = count(E.name)) from E in Employees where E.name = "%s" and E.salary = %d`, e.Name, sal), 1)
		}
		for d, b := range w.budget {
			k.count(fmt.Sprintf(`retrieve (n = count(D.dname)) from D in Departments where D.dname = "%s" and D.budget = %d`, exp.data.Depts[d].Name, b), 1)
		}
		for _, name := range w.pending {
			k.count(fmt.Sprintf(`retrieve (n = count(E.name)) from E in Employees where E.name = "%s"`, name), 1)
		}
		for _, name := range w.deleted {
			k.count(fmt.Sprintf(`retrieve (n = count(E.name)) from E in Employees where E.name = "%s"`, name), 0)
		}
	}
	lookup, err := db.Prepare(qLookup)
	if err != nil {
		rep.attempted++
		k.fail("prepare lookup: %v", err)
		return
	}
	defer lookup.Close()
	for i := 0; i < len(exp.data.Emps); i += len(exp.data.Emps) / 16 {
		name := exp.data.Emps[i].Name
		lit, ok := k.query(fmt.Sprintf(qLiteral, name))
		rep.attempted++
		prep, err := lookup.Exec(name)
		if err != nil {
			k.fail("prepared lookup %s: %v", name, err)
			continue
		}
		if ok && lit.String() != prep.String() {
			k.fail("lookup %s: literal %v, prepared %v", name, lit.Rows, prep.Rows)
		}
	}
}

// tracedMatchesUntraced runs a fixed set of statements with tracing off
// and then on, and requires identical results.
func tracedMatchesUntraced(db *extra.DB, exp *expect, rep *report) {
	k := &checker{db: db, rep: rep}
	srcs := []string{qAgg, qCount}
	for i := 0; i < 4; i++ {
		e := exp.data.Emps[i*997]
		srcs = append(srcs, fmt.Sprintf(qLiteral, e.Name), fmt.Sprintf(qKids, e.Name))
	}
	for f := 1; f <= numFloors; f++ {
		srcs = append(srcs, fmt.Sprintf(`retrieve (n = count(E.name)) from E in Employees where E.dept.floor = %d`, f))
	}
	results := make([][2]string, len(srcs))
	for pass, every := range []int{0, 1} {
		db.SetTraceSampling(every)
		for i, src := range srcs {
			if r, ok := k.query(src); ok {
				results[i][pass] = r.String()
			}
		}
	}
	db.SetTraceSampling(0)
	for i, src := range srcs {
		if results[i][0] != results[i][1] {
			k.fail("traced and untraced results differ for %s", src)
		}
	}
}
