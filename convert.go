package extra

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/oid"
	"repro/internal/types"
	"repro/internal/value"
	"repro/internal/wal"
)

// Attrs is a Go-side attribute map for bulk loading: keys are attribute
// names, values are Go natives (int, int64, float64, string, bool), Obj
// references, []any collections, or nested Attrs for embedded tuples.
type Attrs map[string]any

// Obj is an opaque handle to a stored object, returned by Insert and
// usable as a reference value in later Attrs.
type Obj struct {
	id  oid.OID
	typ string
}

// Valid reports whether the handle refers to an object.
func (o Obj) Valid() bool { return !o.id.IsNil() }

// String renders the handle for diagnostics.
func (o Obj) String() string { return fmt.Sprintf("%s<%s>", o.id, o.typ) }

// Insert bulk-loads one object into an object-set extent without going
// through the EXCESS parser — the API a loader utility would use. Nested
// own and own-ref components may be given as Attrs / []any trees; the
// store applies the usual internalization (ownership, padding, range
// checks). Like any mutation it serializes on the write lock and
// publishes a snapshot, so concurrent readers see each inserted object
// atomically.
//
// extra:acquires db.wmu.W
func (db *DB) Insert(extent string, attrs Attrs) (Obj, error) {
	v, ok := db.cat.Var(extent)
	if !ok || !v.IsObjectSet() {
		return Obj{}, fmt.Errorf("%s is not an object-set extent", extent)
	}
	elem, _ := v.ElemType()
	tt := elem.Type.(*types.TupleType)
	tv, err := db.tupleFromAttrs(tt, attrs)
	if err != nil {
		return Obj{}, err
	}
	id, lsn, err := db.insertTuple(extent, tv)
	if derr := db.waitDurable(lsn); derr != nil && err == nil {
		err = derr
	}
	if err != nil {
		return Obj{}, err
	}
	return Obj{id: id, typ: tt.Name}, nil
}

// insertTuple is Insert's critical section: store the tuple, publish,
// and log. The tuple is serialized before insertion so the WAL holds
// the pre-insert value — replay re-runs the same insertion and the
// sequential OID generator re-allocates the same identity. Recovery
// replays through here too (db.wal is nil then, so nothing re-logs).
//
// extra:acquires db.wmu.W
// extra:mutates
func (db *DB) insertTuple(extent string, tv *value.Tuple) (oid.OID, uint64, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed {
		return 0, 0, errDBClosed
	}
	var rec *wal.Record
	if db.wal != nil {
		// An unencodable or oversize tuple refuses the insert while
		// nothing has mutated: the engine has no rollback, and a
		// published insert the log cannot hold would be invisible to
		// recovery.
		enc, err := codec.Encode(nil, tv)
		if err != nil {
			return 0, 0, err
		}
		rec = &wal.Record{
			Kind: wal.RecordInsert,
			User: "dba",
			Src:  extent,
			Data: [][]byte{enc},
		}
		if sz := rec.PayloadSize(); sz > wal.MaxRecord {
			return 0, 0, fmt.Errorf("insert refused: %w (payload %d bytes, limit %d)", wal.ErrTooLarge, sz, wal.MaxRecord)
		}
	}
	id, err := db.store.Insert(extent, tv)
	published, cerr := db.store.Commit()
	if cerr != nil && err == nil {
		err = cerr
	}
	var lsn uint64
	if rec != nil && (err == nil || published) {
		rec.Erred = err != nil
		var lerr error
		lsn, lerr = db.wal.Append(rec)
		if lerr != nil && err == nil {
			err = lerr
		}
	}
	return id, lsn, err
}

// SetRef stores a reference attribute on an object (bulk wiring of
// relationships without EXCESS).
//
// extra:acquires db.wmu.W
func (db *DB) SetRef(obj Obj, attr string, target Obj) error {
	lsn, err := db.setRefLocked(obj, attr, target)
	if derr := db.waitDurable(lsn); derr != nil && err == nil {
		err = derr
	}
	return err
}

// setRefLocked is SetRef's critical section: update, publish, log.
//
// extra:acquires db.wmu.W
// extra:mutates
func (db *DB) setRefLocked(obj Obj, attr string, target Obj) (uint64, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed {
		return 0, errDBClosed
	}
	tv, ok, err := db.store.Get(obj.id)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("object %s no longer exists", obj)
	}
	if i := tv.Type.AttrIndex(attr); i < 0 {
		return 0, fmt.Errorf("type %s has no attribute %s", tv.Type.Name, attr)
	}
	var nv value.Value = value.Null{}
	if target.Valid() {
		nv = value.Ref{OID: target.id, Type: target.typ}
	}
	var rec *wal.Record
	if db.wal != nil {
		// Build and size the record before touching the store: the
		// engine has no rollback, so a published write the log cannot
		// hold would be invisible to recovery.
		targetOID, targetTyp := []byte(nil), []byte(nil)
		if target.Valid() {
			targetOID, targetTyp = oidBytes(target.id), []byte(target.typ)
		}
		rec = &wal.Record{
			Kind: wal.RecordSetRef,
			User: "dba",
			Src:  attr,
			Data: [][]byte{oidBytes(obj.id), []byte(obj.typ), targetOID, targetTyp},
		}
		if sz := rec.PayloadSize(); sz > wal.MaxRecord {
			return 0, fmt.Errorf("setref refused: %w (payload %d bytes, limit %d)", wal.ErrTooLarge, sz, wal.MaxRecord)
		}
	}
	tv.Set(attr, nv)
	err = db.store.Update(obj.id, tv)
	published, cerr := db.store.Commit()
	if cerr != nil && err == nil {
		err = cerr
	}
	var lsn uint64
	if rec != nil && (err == nil || published) {
		rec.Erred = err != nil
		var lerr error
		lsn, lerr = db.wal.Append(rec)
		if lerr != nil && err == nil {
			err = lerr
		}
	}
	return lsn, err
}

// tupleFromAttrs converts a Go attribute map into a typed tuple value.
func (db *DB) tupleFromAttrs(tt *types.TupleType, attrs Attrs) (*value.Tuple, error) {
	tv := value.NewTuple(tt)
	for name, raw := range attrs {
		a, ok := tt.Attr(name)
		if !ok {
			return nil, fmt.Errorf("type %s has no attribute %s", tt.Name, name)
		}
		vv, err := db.valueFromGo(a.Comp, raw)
		if err != nil {
			return nil, fmt.Errorf("attribute %s: %w", name, err)
		}
		tv.Set(name, vv)
	}
	return tv, nil
}

// valueFromGo converts one Go native into an EXTRA value for a slot.
func (db *DB) valueFromGo(comp types.Component, raw any) (value.Value, error) {
	switch x := raw.(type) {
	case nil:
		return value.Null{}, nil
	case int:
		return numFor(comp.Type, float64(x), int64(x), true), nil
	case int64:
		return numFor(comp.Type, float64(x), x, true), nil
	case float64:
		return numFor(comp.Type, x, int64(x), false), nil
	case string:
		return value.NewStr(x), nil
	case bool:
		return value.Bool(x), nil
	case Obj:
		return value.Ref{OID: x.id, Type: x.typ}, nil
	case value.Value:
		return x, nil
	case Attrs:
		ett, ok := elemTuple(comp)
		if !ok {
			return nil, fmt.Errorf("nested attrs need a tuple-typed slot, have %s", comp.Type)
		}
		return db.tupleFromAttrs(ett, x)
	case []any:
		elem, ok := types.ElemOf(comp.Type)
		if !ok {
			return nil, fmt.Errorf("slice needs a collection slot, have %s", comp.Type)
		}
		out := make([]value.Value, 0, len(x))
		for _, e := range x {
			ev, err := db.valueFromGo(elem, e)
			if err != nil {
				return nil, err
			}
			out = append(out, ev)
		}
		if at, isArr := comp.Type.(*types.Array); isArr {
			return &value.Array{Elems: out, Fixed: at.Fixed}, nil
		}
		return &value.Set{Elems: out}, nil
	}
	return nil, fmt.Errorf("unsupported Go value %T", raw)
}

func elemTuple(comp types.Component) (*types.TupleType, bool) {
	if tt, ok := comp.Type.(*types.TupleType); ok {
		return tt, true
	}
	return nil, false
}

// numFor shapes a Go number for the declared slot type.
func numFor(t types.Type, f float64, i int64, isInt bool) value.Value {
	switch t.Kind() {
	case types.KFloat4, types.KFloat8:
		return value.NewFloat(f)
	case types.KInt1, types.KInt2, types.KInt4:
		return value.Int{K: t.Kind(), V: i}
	}
	if isInt {
		return value.NewInt(i)
	}
	return value.NewFloat(f)
}
