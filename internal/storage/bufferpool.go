package storage

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// PoolStats reports buffer pool activity, used by the buffer-pool
// benchmarks (experiment B10), the executor's cost accounting and
// EXPLAIN ANALYZE's per-scan I/O attribution.
type PoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Flushes counts every dirty page written back to the store,
	// whatever the trigger (FlushAll or eviction).
	Flushes uint64
	// WriteBacks counts the subset of Flushes forced by evicting a
	// dirty victim — the I/O-amplification signal: a working set
	// larger than the pool turns reads into writes.
	WriteBacks uint64
}

// Sub returns the counter deltas s - prev. Counters are monotonic, so
// bracketing a run with two Stats() calls and subtracting attributes
// the traffic in between (approximately, under concurrent statements).
func (s PoolStats) Sub(prev PoolStats) PoolStats {
	return PoolStats{
		Hits:       s.Hits - prev.Hits,
		Misses:     s.Misses - prev.Misses,
		Evictions:  s.Evictions - prev.Evictions,
		Flushes:    s.Flushes - prev.Flushes,
		WriteBacks: s.WriteBacks - prev.WriteBacks,
	}
}

// HitRate returns hits / (hits + misses), or 0 when idle.
func (s PoolStats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

type frame struct {
	id    PageID
	buf   []byte
	pins  int
	dirty bool
	lru   *list.Element // position in the LRU list when unpinned
}

// poolShard is one independently locked slice of the pool: its own frame
// map, LRU list and capacity. Pages hash to shards by PageID, so two
// concurrent readers touching different pages rarely contend on the
// same shard mutex.
type poolShard struct {
	mu     sync.Mutex
	frames map[PageID]*frame
	lru    *list.List // of *frame; front = least recently used
	cap    int
}

// maxPoolShards bounds the shard count; tiny pools get one shard per
// frame instead.
const maxPoolShards = 16

// BufferPool caches pages of a PageStore in a fixed number of frames
// with LRU replacement of unpinned frames, sharded by page ID so
// concurrent readers on different pages do not serialize on one lock.
// All page access in the system goes through a pool, so total pool size
// genuinely bounds the working set (capacity is split across shards;
// eviction is per shard, which approximates global LRU the way any
// partitioned cache does).
//
// Stat counters are lock-free atomics, incremented at the event site
// and read with single atomic loads: a Stats() snapshot never observes
// a torn counter and each counter is monotonic across snapshots.
type BufferPool struct {
	store  PageStore
	shards []poolShard

	hits, misses, evictions, flushes, writeBacks atomic.Uint64
}

// NewBufferPool returns a pool of capacity frames over store. Capacity
// must be at least 1.
func NewBufferPool(store PageStore, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	nshards := maxPoolShards
	if capacity < nshards {
		nshards = capacity
	}
	bp := &BufferPool{
		store:  store,
		shards: make([]poolShard, nshards),
	}
	base, rem := capacity/nshards, capacity%nshards
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.cap = base
		if i < rem {
			sh.cap++
		}
		sh.frames = make(map[PageID]*frame, sh.cap)
		sh.lru = list.New()
	}
	return bp
}

// shard maps a page to its shard. Heap files allocate page IDs
// sequentially, so consecutive pages round-robin across shards.
func (bp *BufferPool) shard(id PageID) *poolShard {
	return &bp.shards[uint64(id)%uint64(len(bp.shards))]
}

// Store returns the backing page store.
func (bp *BufferPool) Store() PageStore { return bp.store }

// Stats returns a snapshot of pool counters: one atomic load per
// counter, no locks. Counters are monotonic, so two snapshots bracket
// the traffic between them even while statements run.
func (bp *BufferPool) Stats() PoolStats {
	return PoolStats{ // fields load in order: WriteBacks first, see newFrame
		WriteBacks: bp.writeBacks.Load(),
		Hits:       bp.hits.Load(),
		Misses:     bp.misses.Load(),
		Evictions:  bp.evictions.Load(),
		Flushes:    bp.flushes.Load(),
	}
}

// ResetStats zeroes the counters (benchmark hygiene).
func (bp *BufferPool) ResetStats() {
	bp.hits.Store(0)
	bp.misses.Store(0)
	bp.evictions.Store(0)
	bp.flushes.Store(0)
	bp.writeBacks.Store(0)
}

// Pin fetches the page into a frame and pins it. Every Pin must be paired
// with an Unpin. The returned buffer is valid until Unpin.
func (bp *BufferPool) Pin(id PageID) ([]byte, error) {
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.frames[id]; ok {
		bp.hits.Add(1)
		if f.lru != nil {
			sh.lru.Remove(f.lru)
			f.lru = nil
		}
		f.pins++
		return f.buf, nil
	}
	bp.misses.Add(1)
	f, err := bp.newFrame(sh, id)
	if err != nil {
		return nil, err
	}
	if err := bp.store.Read(id, f.buf); err != nil {
		delete(sh.frames, id)
		return nil, err
	}
	f.pins = 1
	return f.buf, nil
}

// PinNew allocates a fresh page in the store, formats nothing, and pins a
// zeroed frame for it without a read round-trip.
func (bp *BufferPool) PinNew() (PageID, []byte, error) {
	id, err := bp.store.Allocate()
	if err != nil {
		return 0, nil, err
	}
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, err := bp.newFrame(sh, id)
	if err != nil {
		return 0, nil, err
	}
	for i := range f.buf {
		f.buf[i] = 0
	}
	f.pins = 1
	f.dirty = true
	return id, f.buf, nil
}

// newFrame finds or evicts a frame for id within one shard and registers
// it. Caller holds sh.mu.
func (bp *BufferPool) newFrame(sh *poolShard, id PageID) (*frame, error) {
	var f *frame
	if len(sh.frames) < sh.cap {
		f = &frame{buf: make([]byte, PageSize)}
	} else {
		el := sh.lru.Front()
		if el == nil {
			return nil, fmt.Errorf("buffer pool exhausted: all %d frames of the shard pinned", sh.cap)
		}
		victim := el.Value.(*frame)
		sh.lru.Remove(el)
		victim.lru = nil
		if victim.dirty {
			if err := bp.store.Write(victim.id, victim.buf); err != nil {
				return nil, fmt.Errorf("evict page %d: %w", victim.id, err)
			}
			bp.flushes.Add(1)
		}
		delete(sh.frames, victim.id)
		bp.evictions.Add(1)
		if victim.dirty {
			// Counted after its flush and eviction, and loaded before
			// them by Stats, so no snapshot shows more write-backs than
			// either.
			bp.writeBacks.Add(1)
		}
		f = victim
		f.dirty = false
	}
	f.id = id
	sh.frames[id] = f
	return f, nil
}

// MarkDirty records that the pinned page was modified.
func (bp *BufferPool) MarkDirty(id PageID) {
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.frames[id]; ok {
		f.dirty = true
	}
}

// Unpin releases one pin. When the pin count reaches zero the frame
// becomes eligible for eviction.
func (bp *BufferPool) Unpin(id PageID) {
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[id]
	if !ok || f.pins == 0 {
		return
	}
	f.pins--
	if f.pins == 0 {
		f.lru = sh.lru.PushBack(f)
	}
}

// FlushAll writes every dirty frame back to the store. Used at snapshot
// points and on close.
func (bp *BufferPool) FlushAll() error {
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			if !f.dirty {
				continue
			}
			if err := bp.store.Write(f.id, f.buf); err != nil {
				sh.mu.Unlock()
				return err
			}
			f.dirty = false
			bp.flushes.Add(1)
		}
		sh.mu.Unlock()
	}
	return nil
}

// Drop discards the frame for a freed page without writing it back.
func (bp *BufferPool) Drop(id PageID) {
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[id]
	if !ok {
		return
	}
	if f.lru != nil {
		sh.lru.Remove(f.lru)
	}
	delete(sh.frames, id)
}
