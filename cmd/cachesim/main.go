// Command cachesim is a standalone trace-driven cache simulator in the
// spirit of DineroIV: it replays a binary reference trace (the format
// written by "pipecache tracegen" and examples/tracegen) against one
// instruction cache and one data cache and reports miss ratios.
//
// Usage:
//
//	cachesim -trace mix.pct -isize 8 -dsize 8 -block 4 -assoc 1
//	cachesim -trace mix.pct -dsize 16 -assoc 2 -write-through
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pipecache/internal/cache"
	"pipecache/internal/trace"
)

func main() {
	var (
		path  = flag.String("trace", "", "binary reference trace file (required)")
		isize = flag.Int("isize", 8, "instruction cache size in KW (0 disables)")
		dsize = flag.Int("dsize", 8, "data cache size in KW (0 disables)")
		block = flag.Int("block", 4, "block size in words")
		assoc = flag.Int("assoc", 1, "set associativity")
		wthru = flag.Bool("write-through", false, "write-through/no-allocate data cache (default write-back)")
	)
	flag.Parse()
	if err := run(os.Stdout, *path, *isize, *dsize, *block, *assoc, !*wthru); err != nil {
		fmt.Fprintf(os.Stderr, "cachesim: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, path string, isize, dsize, block, assoc int, writeBack bool) error {
	if path == "" {
		return fmt.Errorf("-trace is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}

	var ic, dc *cache.Bank
	if isize > 0 {
		ic, err = cache.NewBank([]cache.Config{{SizeKW: isize, BlockWords: block, Assoc: assoc, WriteBack: true}})
		if err != nil {
			return fmt.Errorf("icache: %w", err)
		}
	}
	if dsize > 0 {
		dc, err = cache.NewBank([]cache.Config{{SizeKW: dsize, BlockWords: block, Assoc: assoc, WriteBack: writeBack}})
		if err != nil {
			return fmt.Errorf("dcache: %w", err)
		}
	}

	st, err := trace.ReplayBank(r, ic, dc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "references: %d (%d fetch, %d load, %d store)\n",
		st.Refs, st.IFetches, st.Loads, st.Stores)
	if ic != nil {
		s := ic.Stats(0)
		fmt.Fprintf(w, "L1-I %s: %d misses / %d accesses = %.4f\n",
			ic.Config(0), s.Misses(), s.Accesses(), s.MissRatio())
	}
	if dc != nil {
		s := dc.Stats(0)
		fmt.Fprintf(w, "L1-D %s: %d misses / %d accesses = %.4f (writebacks %d, throughs %d)\n",
			dc.Config(0), s.Misses(), s.Accesses(), s.MissRatio(), s.Writebacks, s.Throughs)
	}
	return nil
}
