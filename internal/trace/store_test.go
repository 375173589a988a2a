package trace

import (
	"context"
	"sync"
	"testing"

	"pipecache/internal/interp"
	"pipecache/internal/obs"
)

// makeTrace builds a committed-ready trace of roughly nChunks chunks.
func makeTrace(t *testing.T, key string, nChunks int) *EventTrace {
	t.Helper()
	be := &BenchEvents{name: "b", seed: 1}
	evs := make([]interp.Event, 1024)
	for i := range evs {
		evs[i] = interp.Event{Kind: interp.EvMemLoad, A: uint32(i)}
	}
	for n := 0; n < nChunks*chunkEvents; n += len(evs) {
		be.append(evs)
	}
	return (&EventTrace{key: key, instsPerBench: 1, benches: []*BenchEvents{be}}).seal()
}

func TestStoreHitMissCommit(t *testing.T) {
	s := NewStore(1 << 30)
	reg := obs.NewRegistry()
	s.SetObs(reg)
	ctx := context.Background()

	tr, tok, err := s.Acquire(ctx, "k")
	if err != nil || tr != nil || tok == nil {
		t.Fatalf("first acquire: tr=%v tok=%v err=%v", tr, tok, err)
	}
	captured := makeTrace(t, "k", 1)
	tok.Commit(captured)
	captured.Release() // store holds its own reference

	got, tok2, err := s.Acquire(ctx, "k")
	if err != nil || tok2 != nil || got == nil {
		t.Fatalf("second acquire: tr=%v tok=%v err=%v", got, tok2, err)
	}
	if got.Key() != "k" {
		t.Fatalf("key %q", got.Key())
	}
	got.Release()

	c := reg.Snapshot().Counters
	if c["trace.store.misses"] != 1 || c["trace.store.hits"] != 1 {
		t.Fatalf("counters: %v", c)
	}
	if s.Entries() != 1 || s.Bytes() != got.Bytes() {
		t.Fatalf("residency: %d entries, %d bytes", s.Entries(), s.Bytes())
	}
}

func TestStoreLRUEviction(t *testing.T) {
	probe := makeTrace(t, "probe", 1)
	one := probe.Bytes()
	probe.Release()
	s := NewStore(2 * one) // room for two single-chunk traces
	reg := obs.NewRegistry()
	s.SetObs(reg)
	ctx := context.Background()

	add := func(key string) {
		_, tok, err := s.Acquire(ctx, key)
		if err != nil || tok == nil {
			t.Fatalf("acquire %s: %v", key, err)
		}
		tr := makeTrace(t, key, 1)
		tok.Commit(tr)
		tr.Release()
	}
	add("a")
	add("b")
	// Touch "a" so "b" is the LRU victim.
	tr, _, _ := s.Acquire(ctx, "a")
	tr.Release()
	add("c")

	if s.Bytes() > s.Budget() {
		t.Fatalf("%d bytes over budget %d", s.Bytes(), s.Budget())
	}
	if _, tok, _ := s.Acquire(ctx, "b"); tok == nil {
		t.Error("LRU key b still resident")
	} else {
		tok.Abort()
	}
	if tr, _, _ := s.Acquire(ctx, "a"); tr == nil {
		t.Error("recently used key a evicted")
	} else {
		tr.Release()
	}
	if c := reg.Snapshot().Counters; c["trace.store.evictions"] != 1 {
		t.Errorf("evictions = %d", c["trace.store.evictions"])
	}
}

func TestStoreOversizeTombstone(t *testing.T) {
	s := NewStore(1) // nothing fits
	reg := obs.NewRegistry()
	s.SetObs(reg)
	ctx := context.Background()

	_, tok, err := s.Acquire(ctx, "k")
	if err != nil || tok == nil {
		t.Fatal("expected capture token")
	}
	tr := makeTrace(t, "k", 1)
	tok.Commit(tr)
	tr.Release()

	// Tombstoned: every later acquire is a live fallback, never a token.
	for i := 0; i < 3; i++ {
		gtr, gtok, err := s.Acquire(ctx, "k")
		if err != nil || gtr != nil || gtok != nil {
			t.Fatalf("tombstoned acquire %d: tr=%v tok=%v err=%v", i, gtr, gtok, err)
		}
	}
	c := reg.Snapshot().Counters
	if c["trace.store.oversize_drops"] != 1 || c["trace.store.live_fallbacks"] != 3 {
		t.Fatalf("counters: %v", c)
	}
	if s.Entries() != 0 || s.Bytes() != 0 {
		t.Fatalf("oversize trace resident")
	}
}

// TestStoreSingleFlight: K concurrent same-key acquires perform exactly one
// capture; the waiters all see the committed trace, and the counters come
// out 1 miss + K-1 hits regardless of scheduling.
func TestStoreSingleFlight(t *testing.T) {
	s := NewStore(1 << 30)
	reg := obs.NewRegistry()
	s.SetObs(reg)
	const K = 8

	var wg sync.WaitGroup
	var mu sync.Mutex
	var tokens, traces int
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, tok, err := s.Acquire(context.Background(), "k")
			if err != nil {
				t.Error(err)
				return
			}
			if tok != nil {
				captured := makeTrace(t, "k", 1)
				tok.Commit(captured)
				captured.Release()
				mu.Lock()
				tokens++
				mu.Unlock()
				return
			}
			tr.Release()
			mu.Lock()
			traces++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if tokens != 1 || traces != K-1 {
		t.Fatalf("%d captures, %d replays; want 1 and %d", tokens, traces, K-1)
	}
	c := reg.Snapshot().Counters
	if c["trace.store.misses"] != 1 || c["trace.store.hits"] != K-1 {
		t.Fatalf("counters: %v", c)
	}
}

// TestStoreAbortReelects: an aborted capture wakes a waiter, which becomes
// the next capturer instead of failing.
func TestStoreAbortReelects(t *testing.T) {
	s := NewStore(1 << 30)
	ctx := context.Background()

	_, tok, err := s.Acquire(ctx, "k")
	if err != nil || tok == nil {
		t.Fatal("expected token")
	}
	got := make(chan *CaptureToken)
	go func() {
		_, tok2, err := s.Acquire(ctx, "k")
		if err != nil {
			t.Error(err)
		}
		got <- tok2
	}()
	tok.Abort()
	tok2 := <-got
	if tok2 == nil {
		t.Fatal("waiter not re-elected as capturer")
	}
	tok2.Abort()
}

func TestStoreAcquireCancellation(t *testing.T) {
	s := NewStore(1 << 30)
	_, tok, err := s.Acquire(context.Background(), "k")
	if err != nil || tok == nil {
		t.Fatal("expected token")
	}
	defer tok.Abort()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error)
	go func() {
		_, _, err := s.Acquire(ctx, "k")
		done <- err
	}()
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled waiter returned nil error")
	}
}
