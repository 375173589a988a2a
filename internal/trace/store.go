package trace

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"pipecache/internal/fault"
	"pipecache/internal/obs"
)

// Injection points of the store tier (see internal/fault). Acquire can
// fail, cancel, delay, or panic — it sits on every pass's path. Commit and
// Abort are pure in-memory bookkeeping whose failure has no real-world
// analogue, so they are only perturbed (delayed), never failed.
var (
	ptStoreAcquire = fault.NewPoint("trace.store.acquire")
	ptStoreCommit  = fault.NewPoint("trace.store.commit")
	ptStoreAbort   = fault.NewPoint("trace.store.abort")
)

// EventStore is a bounded, byte-budget LRU cache of EventTraces with
// single-flight capture. The single-flight discipline is load-bearing for
// determinism, not just efficiency: when several passes that share a trace
// key start concurrently, exactly one captures and the rest wait for the
// commit and then replay, so the store's counters — and the number of
// interpretations performed — are identical at any GOMAXPROCS and any
// worker-pool width.
//
// Outcome accounting is deliberately scheduling-independent: for K passes
// of one key the store reports exactly 1 miss and K-1 hits whether a pass
// waited on the in-flight capture or arrived after it committed. (A
// "waits" counter would be timing-dependent and is intentionally absent —
// the determinism tests compare full counter maps.)
//
// Oversize traces are remembered in a tombstone set so a key whose capture
// exceeds the whole budget falls back to live interpretation on every
// subsequent pass instead of thrashing capture/drop cycles.
type EventStore struct {
	mu       sync.Mutex
	budget   int64
	bytes    int64
	entries  map[string]*storeEntry
	ll       *list.List // front = most recently used
	inflight map[string]chan struct{}
	tooBig   map[string]bool

	hits          *obs.Counter
	misses        *obs.Counter
	evictions     *obs.Counter
	oversizeDrops *obs.Counter
	liveFallbacks *obs.Counter
	bytesGauge    *obs.Gauge
	entriesGauge  *obs.Gauge

	// totals are the store's authoritative lifetime outcome counts,
	// maintained under mu alongside the bound counters. They exist so
	// SetObs can rebind the store to a new registry without losing (or
	// double-counting) history: the registry counters are mirrors, these
	// are the source of truth.
	totals struct {
		hits, misses, evictions, oversizeDrops, liveFallbacks int64
	}
}

type storeEntry struct {
	key  string
	tr   *EventTrace
	elem *list.Element
}

// NewStore returns a store bounded to budgetBytes of accounted trace
// storage. The budget must be positive.
func NewStore(budgetBytes int64) *EventStore {
	s := &EventStore{
		budget:   budgetBytes,
		entries:  map[string]*storeEntry{},
		ll:       list.New(),
		inflight: map[string]chan struct{}{},
		tooBig:   map[string]bool{},
	}
	s.setObsLocked(nil)
	return s
}

// SetObs binds the store's metrics to a registry: trace.store.hits /
// misses / evictions / oversize_drops / live_fallbacks counters and
// trace.store.bytes / entries gauges. All metrics are registered eagerly
// so counter sets are identical across runs even when zero.
//
// Rebinding contract: a store outlives any one registry (the stability
// study shares one bounded store across per-seed labs), so rebinding
// carries the store's lifetime totals forward — the new registry's
// counters are topped up to the authoritative totals rather than
// restarting from zero, and rebinding to the same registry is a no-op.
func (s *EventStore) SetObs(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setObsLocked(reg)
}

func (s *EventStore) setObsLocked(reg *obs.Registry) {
	s.hits = rebind(reg, "trace.store.hits", s.totals.hits)
	s.misses = rebind(reg, "trace.store.misses", s.totals.misses)
	s.evictions = rebind(reg, "trace.store.evictions", s.totals.evictions)
	s.oversizeDrops = rebind(reg, "trace.store.oversize_drops", s.totals.oversizeDrops)
	s.liveFallbacks = rebind(reg, "trace.store.live_fallbacks", s.totals.liveFallbacks)
	s.bytesGauge = reg.Gauge("trace.store.bytes")
	s.entriesGauge = reg.Gauge("trace.store.entries")
	s.bytesGauge.Set(float64(s.bytes))
	s.entriesGauge.Set(float64(len(s.entries)))
}

// rebind looks up the named counter and tops it up to the store's
// authoritative total, so accumulated history survives a registry change
// instead of silently resetting to zero.
func rebind(reg *obs.Registry, name string, total int64) *obs.Counter {
	c := reg.Counter(name)
	if d := total - c.Value(); d > 0 {
		c.Add(d)
	}
	return c
}

// Budget returns the configured byte budget.
func (s *EventStore) Budget() int64 { return s.budget }

// Bytes returns the accounted size of the resident traces.
func (s *EventStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Entries returns the number of resident traces.
func (s *EventStore) Entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Acquire resolves a trace key to one of three outcomes:
//
//   - a resident trace (retained for the caller — Release when done) and a
//     nil token: replay it;
//   - a nil trace and a non-nil CaptureToken: the caller is the designated
//     capturer — record the trace (Record), then Commit (or Abort on
//     failure/cancellation) exactly once;
//   - nil, nil, nil: the key is tombstoned as oversize — run live without
//     capturing.
//
// If another goroutine holds the capture token for the key, Acquire blocks
// until it commits or aborts (bounded by ctx) and then retries, so
// concurrent same-key passes never interpret twice.
func (s *EventStore) Acquire(ctx context.Context, key string) (*EventTrace, *CaptureToken, error) {
	if err := ptStoreAcquire.Inject(); err != nil {
		return nil, nil, err
	}
	for {
		s.mu.Lock()
		if e, ok := s.entries[key]; ok {
			s.ll.MoveToFront(e.elem)
			e.tr.Retain()
			s.hits.Inc()
			s.totals.hits++
			s.mu.Unlock()
			return e.tr, nil, nil
		}
		if s.tooBig[key] {
			s.liveFallbacks.Inc()
			s.totals.liveFallbacks++
			s.mu.Unlock()
			return nil, nil, nil
		}
		if ch, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-ch:
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
			continue
		}
		ch := make(chan struct{})
		s.inflight[key] = ch
		s.misses.Inc()
		s.totals.misses++
		s.mu.Unlock()
		return nil, &CaptureToken{s: s, key: key, ch: ch}, nil
	}
}

// CaptureToken is the exclusive right (and obligation) to resolve one
// in-flight capture. Exactly one of Commit or Abort must be called.
type CaptureToken struct {
	s    *EventStore
	key  string
	ch   chan struct{}
	done bool
}

// Commit installs the captured trace (the store takes its own reference;
// the caller keeps, and must still Release, its creator reference) and
// wakes every waiter. A trace larger than the whole budget is not
// installed: the key is tombstoned so later passes run live.
func (t *CaptureToken) Commit(tr *EventTrace) {
	ptStoreCommit.Perturb()
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.done {
		panic("trace: capture token resolved twice")
	}
	t.done = true
	delete(s.inflight, t.key)
	close(t.ch)
	if tr.Bytes() > s.budget {
		s.tooBig[t.key] = true
		s.oversizeDrops.Inc()
		s.totals.oversizeDrops++
		return
	}
	tr.Retain()
	e := &storeEntry{key: t.key, tr: tr}
	e.elem = s.ll.PushFront(e)
	s.entries[t.key] = e
	s.bytes += tr.Bytes()
	s.evictLocked()
	s.bytesGauge.Set(float64(s.bytes))
	s.entriesGauge.Set(float64(len(s.entries)))
}

// Abort abandons the capture (pass failed or was cancelled) and wakes the
// waiters; one of them re-runs Acquire and becomes the next capturer, so an
// aborted capture never poisons the key.
func (t *CaptureToken) Abort() {
	ptStoreAbort.Perturb()
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.done {
		panic("trace: capture token resolved twice")
	}
	t.done = true
	delete(s.inflight, t.key)
	close(t.ch)
}

// Resolved reports whether Commit or Abort has run. It is only meaningful
// on the capturer's own goroutine (the token is not shared), where it lets
// a deferred cleanup abort exactly when a panic unwound past the normal
// resolution.
func (t *CaptureToken) Resolved() bool { return t.done }

// evictLocked drops least-recently-used traces until the store is back
// within budget. Evicted traces stay alive until their in-flight replays
// release them; the chunks then return to the pool.
func (s *EventStore) evictLocked() {
	for s.bytes > s.budget {
		el := s.ll.Back()
		if el == nil {
			return
		}
		e := el.Value.(*storeEntry)
		s.ll.Remove(el)
		delete(s.entries, e.key)
		s.bytes -= e.tr.Bytes()
		e.tr.Release()
		s.evictions.Inc()
		s.totals.evictions++
	}
}

// CheckIntegrity verifies the store's structural invariants: accounted
// bytes match the resident traces, the LRU list and entry map agree, no
// capture is still marked in flight, and — when the caller has released
// every replay reference — each resident trace is held by exactly the
// store's own reference. The chaos suite calls it after a run settles; any
// violation means an error path leaked or double-released state.
func (s *EventStore) CheckIntegrity() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if got, want := s.ll.Len(), len(s.entries); got != want {
		return fmt.Errorf("trace: LRU has %d elements, entry map %d", got, want)
	}
	var bytes int64
	for el := s.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*storeEntry)
		if s.entries[e.key] != e {
			return fmt.Errorf("trace: entry %q not in map", e.key)
		}
		bytes += e.tr.Bytes()
		if refs := e.tr.Refs(); refs != 1 {
			return fmt.Errorf("trace: resident %q holds %d refs, want 1 (leak or double release)", e.key, refs)
		}
	}
	if bytes != s.bytes {
		return fmt.Errorf("trace: accounted %d bytes, resident %d", s.bytes, bytes)
	}
	if s.bytes > s.budget {
		return fmt.Errorf("trace: %d bytes resident over budget %d", s.bytes, s.budget)
	}
	if n := len(s.inflight); n != 0 {
		return fmt.Errorf("trace: %d captures still in flight", n)
	}
	return nil
}
