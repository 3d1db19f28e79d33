package main

import (
	"bytes"
	"fmt"
	"testing"

	extra "repro"
)

func dump(t *testing.T, seed int64) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := Generate(seed, numDepts, numEmps).WriteDump(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestDumpDeterministic(t *testing.T) {
	a, b := dump(t, 1), dump(t, 1)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave two different dumps")
	}
	if bytes.Equal(a, dump(t, 2)) {
		t.Fatal("seeds 1 and 2 gave the same dump")
	}
}

func queryInt(t *testing.T, db *extra.DB, src string) int {
	t.Helper()
	r, err := db.Query(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	n, err := intCell(r)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return n
}

func TestLoadMatchesModel(t *testing.T) {
	const seed = 3
	d := Generate(seed, numDepts, numEmps)
	db, err := extra.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Load(bytes.NewReader(dump(t, seed))); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(qIndex); err != nil {
		t.Fatal(err)
	}
	if n := queryInt(t, db, qCount); n != numEmps {
		t.Errorf("Employees: %d, want %d", n, numEmps)
	}
	if n := queryInt(t, db, `retrieve (n = count(Departments.dname))`); n != numDepts {
		t.Errorf("Departments: %d, want %d", n, numDepts)
	}
	if n := queryInt(t, db, `retrieve (n = count(K.name)) from E in Employees, K in E.kids`); n != d.Kids() {
		t.Errorf("kids: %d, want %d", n, d.Kids())
	}
	exp := newExpect(d, 1)
	for f := 1; f <= numFloors; f++ {
		src := fmt.Sprintf(`retrieve (n = count(E.name)) from E in Employees where E.dept.floor = %d`, f)
		if n := queryInt(t, db, src); n != exp.floorEmps[f] {
			t.Errorf("floor %d: %d employees, want %d", f, n, exp.floorEmps[f])
		}
	}
	if bad := db.CheckConsistency(); len(bad) > 0 {
		t.Errorf("consistency: %v", bad)
	}
	w := &worker{exp: exp}
	for _, i := range []int{0, 4321, numEmps - 1} {
		r, err := db.Query(fmt.Sprintf(qLiteral, d.Emps[i].Name))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.checkEmpRow(i)(r); err != nil {
			t.Error(err)
		}
	}
	r, err := db.Query(qAgg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.checkAggregate(r); err != nil {
		t.Error(err)
	}
}
