package storage

import (
	"sync"
	"testing"
)

// TestPoolConcurrentPins hammers the sharded pool from several
// goroutines, mixing hits, misses and evictions, and checks the atomic
// counters stay coherent: run with -race, and every sampled snapshot
// must be monotonic with hits+misses equal to the pins issued so far or
// less (never more). Each goroutine dirties only its own private pages,
// so the page writes themselves never race, and every shard has at
// least one frame per goroutine, so concurrent pins cannot exhaust one.
func TestPoolConcurrentPins(t *testing.T) {
	store := NewMemStore()
	const (
		goroutines = 8
		pinsEach   = 500
		private    = 8                           // pages each goroutine alone pins and dirties
		shared     = 192                         // pages every goroutine pins read-only
		pages      = goroutines*private + shared // 256
		frames     = maxPoolShards * goroutines  // half the pages fit: evictions happen
	)
	ids := make([]PageID, pages)
	for i := range ids {
		id, err := store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	bp := NewBufferPool(store, frames)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < pinsEach; i++ {
				dirty := i%3 == 0
				id := ids[goroutines*private+(i*7+g*13)%shared]
				if dirty {
					id = ids[g*private+(i/3)%private]
				}
				buf, err := bp.Pin(id)
				if err != nil {
					t.Errorf("goroutine %d: pin %d: %v", g, id, err)
					return
				}
				if dirty {
					buf[0] = byte(g)
					bp.MarkDirty(id)
				}
				bp.Unpin(id)
			}
		}(g)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	prev := bp.Stats()
	for {
		s := bp.Stats()
		if s.Hits < prev.Hits || s.Misses < prev.Misses ||
			s.Evictions < prev.Evictions || s.Flushes < prev.Flushes ||
			s.WriteBacks < prev.WriteBacks {
			t.Fatalf("pool counters went backwards: %+v -> %+v", prev, s)
		}
		if s.Hits+s.Misses > goroutines*pinsEach {
			t.Fatalf("more pins counted than issued: %+v", s)
		}
		if s.WriteBacks > s.Flushes || s.WriteBacks > s.Evictions {
			t.Fatalf("write-backs exceed flushes or evictions: %+v", s)
		}
		prev = s
		select {
		case <-done:
			final := bp.Stats()
			if final.Hits+final.Misses != goroutines*pinsEach {
				t.Fatalf("final hits+misses = %d, want %d",
					final.Hits+final.Misses, goroutines*pinsEach)
			}
			if final.Evictions == 0 {
				t.Fatalf("no evictions: %+v", final)
			}
			if err := bp.FlushAll(); err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
	}
}
