package trace

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pipecache/internal/fault"
	"pipecache/internal/interp"
	"pipecache/internal/program"
)

// Parallel capture. One benchmark's event stream is a pure function of
// (program, seed, budget) — the interpreter never sees the quantum, the
// caches, or any other workload (the stream invariance contract in
// internal/interp) — so the streams of a multiprogrammed pass can be
// interpreted independently, each on its own goroutine into its own
// BenchEvents. Chunking is per benchmark and independent of batch
// boundaries, so the trace is byte-identical at any worker count and to
// one built by interpreting the workloads round-robin.

// ptCapture is the injection point of one benchmark's capture; it fires
// on the capturing goroutine, once per benchmark of every Record call, so
// a schedule exercises the concurrent path and its containment.
var ptCapture = fault.NewPoint("lab.trace.capture")

// ErrCapturePanic wraps the panic value of a capture goroutine. The
// goroutine recovers it, so a crashing interpreter surfaces as an
// ordinary error of Record instead of killing the process.
var ErrCapturePanic = errors.New("trace: capture panicked")

// captureQuantum is the instruction interval at which a capture goroutine
// polls its context. The stream does not depend on it.
const captureQuantum = 20_000

// errCaptureStopped marks a benchmark abandoned because another one
// failed; Record reports the failure, never this.
var errCaptureStopped = errors.New("trace: capture stopped")

// Record interprets every workload (progs[i] under seeds[i]) for at least
// insts instructions and returns the captured trace, with one reference
// held by the caller. At most workers benchmarks are interpreted at once
// (at least one); the result is identical at any worker count.
//
// Each capture goroutine polls ctx every captureQuantum instructions and
// recovers panics into ErrCapturePanic. On any failure the remaining
// benchmarks stop at their next poll, every goroutine has exited before
// Record returns, the partial streams are recycled, and the error of the
// lowest-indexed failing benchmark is returned.
func Record(ctx context.Context, key string, insts int64, progs []*program.Program, seeds []uint64, workers int) (*EventTrace, error) {
	if insts <= 0 {
		return nil, fmt.Errorf("trace: non-positive capture budget")
	}
	if len(progs) == 0 || len(progs) != len(seeds) {
		return nil, fmt.Errorf("trace: %d programs for %d seeds", len(progs), len(seeds))
	}
	t := &EventTrace{key: key, instsPerBench: insts, benches: make([]*BenchEvents, len(progs))}
	for i, p := range progs {
		t.benches[i] = &BenchEvents{name: p.Name, seed: seeds[i]}
	}
	workers = max(1, min(workers, len(progs)))
	errs := make([]error, len(progs))
	var (
		next    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]interp.Event, 4096)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(progs) {
					return
				}
				if errs[i] = recordBench(ctx, &stopped, t.benches[i], progs[i], insts, buf); errs[i] != nil {
					stopped.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	t.seal()
	for _, err := range errs {
		if err != nil && err != errCaptureStopped {
			t.Release()
			return nil, err
		}
	}
	return t, nil
}

// recordBench interprets one benchmark into its stream. The injection
// point fires before anything else, so every benchmark of a Record call
// hits it exactly once whatever the others do.
func recordBench(ctx context.Context, stopped *atomic.Bool, be *BenchEvents, prog *program.Program, insts int64, buf []interp.Event) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%w: %s: %v", ErrCapturePanic, be.name, v)
		}
	}()
	if err := ptCapture.Inject(); err != nil {
		return err
	}
	it, err := interp.New(prog, be.seed)
	if err != nil {
		return err
	}
	sink := interp.EventSinkFunc(be.append)
	for remaining := insts; remaining > 0; {
		if err := ctx.Err(); err != nil {
			return err
		}
		if stopped.Load() {
			return errCaptureStopped
		}
		remaining -= it.RunEvents(min(captureQuantum, remaining), buf, sink)
	}
	return nil
}
