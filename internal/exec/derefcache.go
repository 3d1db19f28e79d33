package exec

import (
	"repro/internal/oid"
	"repro/internal/value"
)

// The deref memoization cache: an OID → decoded-tuple map over the whole
// store, valid for exactly one store version. Implicit joins dereference
// the same handful of objects once per outer binding — E.dept.floor for
// every employee decodes each department thousands of times — and inner
// extents of nested-loop plans are rescanned once per outer row; both
// route through here and pay the heap fetch and decode once per object
// per store version. Extents scanned whole are additionally kept as
// slices in heap order, so a repeated scan is a tight loop with no pool
// traffic and no hashing.
//
// Cached tuples are shared: callers must not mutate them. Update
// statements bypass this path and re-fetch through store.Get so their
// in-place edits never touch a cached value.

// cachedExtent is one fully scanned object extent, in heap order (the
// order ScanExtent produces, which query results are allowed to expose).
type cachedExtent struct {
	ids []oid.OID
	tvs []*value.Tuple
}

// ensureCache flushes the cache when the store has mutated since it was
// populated (any insert/update/delete/variable write bumps the version).
func (ex *State) ensureCache() {
	ver := ex.reader().Version()
	if ex.derefCache == nil {
		ex.derefCache = make(map[oid.OID]*value.Tuple)
		ex.extentCache = make(map[string]*cachedExtent)
		ex.derefVersion = ver
		return
	}
	if ex.derefVersion != ver {
		clear(ex.derefCache)
		clear(ex.extentCache)
		ex.derefVersion = ver
	}
}

// derefGet is store.Get behind the cache.
func (ex *State) derefGet(id oid.OID) (*value.Tuple, bool, error) {
	if ex.opts.NoDerefCache {
		return ex.reader().Get(id)
	}
	ex.ensureCache()
	if tv, ok := ex.derefCache[id]; ok {
		ex.derefHits++
		if ex.cDerefHit != nil {
			ex.cDerefHit.Inc()
		}
		return tv, true, nil
	}
	tv, live, err := ex.reader().Get(id)
	if err != nil {
		return nil, false, err
	}
	ex.derefMisses++
	if ex.cDerefMiss != nil {
		ex.cDerefMiss.Inc()
	}
	if live {
		ex.derefCache[id] = tv
	}
	return tv, live, nil
}

// scanExtentCached enumerates an object extent through the cache. The
// first scan after a mutation decodes records exactly as the uncached
// path does, populating the cache as a side effect; once the extent has
// been scanned whole at the current version, later scans (an inner
// extent rescanned per outer binding, or a repeated query) iterate the
// retained slice directly.
func (ex *State) scanExtentCached(extent string, fn func(id oid.OID, tv *value.Tuple) error) error {
	ex.ensureCache()
	if ce := ex.extentCache[extent]; ce != nil {
		ex.derefHits += int64(len(ce.ids))
		if ex.cDerefHit != nil {
			ex.cDerefHit.Add(uint64(len(ce.ids)))
		}
		for i, id := range ce.ids {
			if err := fn(id, ce.tvs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	ce := &cachedExtent{}
	err := ex.reader().ScanExtent(extent, func(id oid.OID, tv *value.Tuple) error {
		if prior, seen := ex.derefCache[id]; seen {
			tv = prior // keep one canonical decoded copy per object
		} else {
			ex.derefCache[id] = tv
			ex.derefMisses++
			if ex.cDerefMiss != nil {
				ex.cDerefMiss.Inc()
			}
		}
		ce.ids = append(ce.ids, id)
		ce.tvs = append(ce.tvs, tv)
		return fn(id, tv)
	})
	if err == nil {
		// Only a completed scan proves the slice covers the extent; an
		// aborted one (error mid-scan) is discarded.
		ex.extentCache[extent] = ce
	}
	return err
}
