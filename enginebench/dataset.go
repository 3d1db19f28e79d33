package main

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/codec"
	"repro/internal/oid"
	"repro/internal/types"
	"repro/internal/value"
	"repro/internal/workload"
)

// Dataset sizes. The 16k-row Employees extent is what exposes the
// engine's O(extent) write path next to the 20-row Departments extent;
// shrinking it would hide exactly the cost the write workload exists to
// show.
const (
	numDepts  = 20
	numEmps   = 16000
	maxKids   = 2
	numFloors = 5
	maxSalary = 200000
)

// Dept, Kid and Emp are the generator's model of one object: what the
// benchmark expects the engine to return for it.
type Dept struct {
	Name          string
	Floor, Budget int
}

type Kid struct {
	Name string
	Age  int
}

type Emp struct {
	Name              string
	Age, Salary, Dept int
	Kids              []Kid
}

// Dataset is the seeded company database of internal/workload's schema.
type Dataset struct {
	Depts []Dept
	Emps  []Emp
}

// Generate builds the model for seed in O(n). The random draws follow
// internal/workload's generator field for field, so the data has the
// same shape as the engine's own experiments.
func Generate(seed int64, depts, emps int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Depts: make([]Dept, depts), Emps: make([]Emp, emps)}
	for i := range d.Depts {
		d.Depts[i] = Dept{Name: deptName(i), Floor: rng.Intn(numFloors) + 1, Budget: rng.Intn(1000000)}
	}
	for i := range d.Emps {
		e := Emp{Name: empName(i), Age: 20 + rng.Intn(45), Salary: rng.Intn(maxSalary), Dept: rng.Intn(depts)}
		e.Kids = make([]Kid, rng.Intn(maxKids+1))
		for k := range e.Kids {
			e.Kids[k] = Kid{Name: fmt.Sprintf("kid-%06d-%d", i, k), Age: 1 + rng.Intn(17)}
		}
		d.Emps[i] = e
	}
	return d
}

func deptName(i int) string { return fmt.Sprintf("dept-%03d", i) }
func empName(i int) string  { return fmt.Sprintf("emp-%06d", i) }

// Kids counts the owned kid objects.
func (d *Dataset) Kids() int {
	n := 0
	for _, e := range d.Emps {
		n += len(e.Kids)
	}
	return n
}

// firstOID is the first object id the dump assigns; ids run densely
// from there, departments first, each employee followed by its kids.
const firstOID = 3

// Tuple types by name: the engine's value codec writes only a tuple's
// type name and its fields, which WriteDump lists in the order of the
// internal/workload schema's resolved attributes.
var (
	tDept   = &types.TupleType{Name: "Department"}
	tEmp    = &types.TupleType{Name: "Employee"}
	tPerson = &types.TupleType{Name: "Person"}
)

func str(s string) value.Value { return value.NewStr(s) }
func int4(v int) value.Value   { return value.NewInt(int64(v)) }

// WriteDump renders the dataset as a dump Load accepts, in one pass
// over the model: the schema, one OBJ line per object, and the two
// scalar variables. It defines no index; set-up creates the unique
// name index with a DDL statement so its cost is measured on its own.
func (d *Dataset) WriteDump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "#extra-dump v1")
	fmt.Fprintln(bw, "--ddl")
	for _, l := range strings.Split(workload.Schema, "\n") {
		if l = strings.TrimSpace(l); l != "" {
			fmt.Fprintln(bw, l)
		}
	}
	fmt.Fprintln(bw, "--data")
	deptOID := func(i int) oid.OID { return firstOID + oid.OID(i) }
	next := firstOID + oid.OID(len(d.Depts))
	var b []byte
	obj := func(extent string, id, owner oid.OID, v value.Value) error {
		var err error
		if b, err = codec.Encode(b[:0], v); err != nil {
			return err
		}
		fmt.Fprintf(bw, "OBJ %s %d %d %s\n", extent, id, owner, hex.EncodeToString(b))
		return nil
	}
	for i, dp := range d.Depts {
		t := &value.Tuple{Type: tDept, Fields: []value.Value{str(dp.Name), int4(dp.Floor), int4(dp.Budget)}}
		if err := obj("Departments", deptOID(i), 0, t); err != nil {
			return err
		}
	}
	for _, e := range d.Emps {
		id := next
		next += 1 + oid.OID(len(e.Kids))
		kids := &value.Set{}
		for k := range e.Kids {
			kids.Elems = append(kids.Elems, value.Ref{OID: id + 1 + oid.OID(k), Type: "Person"})
		}
		t := &value.Tuple{Type: tEmp, Fields: []value.Value{str(e.Name), int4(e.Age), kids, int4(e.Salary),
			value.Ref{OID: deptOID(e.Dept), Type: "Department"}}}
		if err := obj("Employees", id, 0, t); err != nil {
			return err
		}
		for k, kid := range e.Kids {
			t := &value.Tuple{Type: tPerson, Fields: []value.Value{str(kid.Name), int4(kid.Age), value.Null{}}}
			if err := obj("-", id+1+oid.OID(k), id, t); err != nil {
				return err
			}
		}
	}
	// StarEmployee is a null ref; TopTen a fixed array of ten null refs.
	for _, v := range []struct {
		name string
		val  value.Value
	}{
		{"StarEmployee", value.Null{}},
		{"TopTen", &value.Array{Elems: make([]value.Value, 10), Fixed: true}},
	} {
		var err error
		if b, err = codec.Encode(b[:0], v.val); err != nil {
			return err
		}
		fmt.Fprintf(bw, "VAR %s %s\n", v.name, hex.EncodeToString(b))
	}
	fmt.Fprintln(bw, "--indexes")
	fmt.Fprintln(bw, "--end")
	return bw.Flush()
}
