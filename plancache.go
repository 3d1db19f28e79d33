package extra

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/excess/ast"
	"repro/internal/excess/sema"
	"repro/internal/exec"
	"repro/internal/metrics"
)

// planCache is the engine's one cache of compiled statements: a
// text-keyed map from normalized retrieve source to its checked form,
// optimized plan and the plan's compiled closures, so a statement
// executed repeatedly (the OLTP shape the paper's application
// interfaces generate) pays check, plan and compile once, on the miss,
// and a map hit thereafter.
//
// The key embeds everything planning and compilation read besides the
// statement text:
//
//   - the catalog version, bumped by every DDL statement — a schema change
//     invalidates the whole cache at once without enumerating entries;
//   - the optimizer-option fingerprint, so toggling a knob (benchmarks do
//     this mid-run) never serves a plan built under different rules;
//   - the session's range-declaration fingerprint, because "retrieve
//     (E.name)" means different things after "range of E is ..." changes;
//   - the parameter-type signature, because a checked tree types its
//     $n / procedure-parameter references from the frame. Prepared
//     statements and procedure bodies share the one cache this way.
//
// Only retrieves without an into clause are cached: into creates schema
// (never repeated). A prepared statement additionally pins the entry it
// last executed (planPin), so a steady-state Exec compares one key and
// never touches the cache's lock or counters.
//
// Entries store the Checked form, a Cached=true Clone of the plan and
// the plan's Code. Both are shared by every hit and never mutated — a
// sampled statement that needs instrumentation clones the plan again
// before EnableRuntime and runs the clone with the same Code, whose
// closures are addressed by plan position.
type planCache struct {
	mu  sync.RWMutex // extra:lock plancache.mu
	cap int
	m   map[planKey]*planEntry
	// fifo holds keys in insertion order for eviction. Plans are tiny
	// (shared pointers into the checked tree), so recency tracking is not
	// worth a lock upgrade on the hit path.
	fifo []planKey

	hits, misses, evictions *metrics.Counter
	size                    *metrics.Gauge
}

type planKey struct {
	text   string
	catVer uint64
	optsFP uint64
	ranges string
	params string
}

// planEntry is one compiled statement: the checked tree, the plan, and
// the plan's per-row closures, all built together on a cache miss.
type planEntry struct {
	key  planKey
	cq   *sema.CheckedRetrieve
	plan *algebra.Plan
	code *exec.Code
}

// planPin is a prepared statement's hold on the cache: its key text,
// printed once at Prepare, and the entry it last executed.
type planPin struct {
	text string
	last atomic.Pointer[planEntry]
}

const defaultPlanCacheCap = 256

func newPlanCache(capacity int, reg *metrics.Registry) *planCache {
	if capacity < 1 {
		capacity = 1
	}
	return &planCache{
		cap:       capacity,
		m:         make(map[planKey]*planEntry, capacity),
		hits:      reg.Counter("plan.cache.hits"),
		misses:    reg.Counter("plan.cache.misses"),
		evictions: reg.Counter("plan.cache.evictions"),
		size:      reg.Gauge("plan.cache.size"),
	}
}

// planKey builds the cache key for statement text under the session's
// current catalog version, optimizer options, range declarations and
// parameter types. Callers hold a statement lock, so the parts agree.
func (s *Session) planKey(text string, params *paramScope) planKey {
	db := s.db
	return planKey{
		text:   text,
		catVer: db.cat.Version(),
		optsFP: db.exec.Options().Fingerprint(),
		ranges: rangesFingerprint(s.sem),
		params: params.signature(),
	}
}

// rangesFingerprint renders a session's range declarations into a stable
// string: sorted "name=decl" pairs. Sessions redeclaring a range variable
// get distinct keys; sessions with identical declarations share entries.
func rangesFingerprint(sess *sema.Session) string {
	if len(sess.Ranges) == 0 {
		return ""
	}
	names := make([]string, 0, len(sess.Ranges))
	for name := range sess.Ranges {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, name+"="+ast.Print(sess.Ranges[name]))
	}
	return strings.Join(parts, ";")
}

// get returns the cached entry for the key, or nil.
//
// extra:acquires plancache.mu.R
func (pc *planCache) get(key planKey) *planEntry {
	pc.mu.RLock()
	e := pc.m[key]
	pc.mu.RUnlock()
	if e == nil {
		pc.misses.Inc()
		return nil
	}
	pc.hits.Inc()
	return e
}

// put inserts a freshly planned statement, evicting the oldest entry at
// capacity. The stored plan is a Cached=true clone: the inserting
// statement keeps executing its own unmarked plan, and all later hits
// share the immutable marked copy.
//
// extra:acquires plancache.mu.W
func (pc *planCache) put(e *planEntry) {
	key := e.key
	marked := e.plan.Clone()
	marked.Cached = true
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if _, dup := pc.m[key]; dup {
		return // a concurrent reader planned the same statement; keep theirs
	}
	for len(pc.m) >= pc.cap && len(pc.fifo) > 0 {
		old := pc.fifo[0]
		pc.fifo = pc.fifo[1:]
		if _, ok := pc.m[old]; ok {
			delete(pc.m, old)
			pc.evictions.Inc()
		}
	}
	pc.m[key] = &planEntry{key: key, cq: e.cq, plan: marked, code: e.code}
	pc.fifo = append(pc.fifo, key)
	pc.size.Set(int64(len(pc.m)))
}

// peek is get without counter traffic, for EXPLAIN: an explain is not an
// execution, so it must not skew the hit ratio.
//
// extra:acquires plancache.mu.R
func (pc *planCache) peek(key planKey) *planEntry {
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	return pc.m[key]
}

// len returns the live entry count (tests).
//
// extra:acquires plancache.mu.R
func (pc *planCache) len() int {
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	return len(pc.m)
}
