package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipecache/internal/gen"
	"pipecache/internal/interp"
	"pipecache/internal/sched"
	"pipecache/internal/trace"
)

// writeTrace captures 20k instructions of espresso, with one branch delay
// slot, into a PCT2 file and returns its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	spec, ok := gen.LookupSpec("espresso")
	if !ok {
		t.Fatal("espresso spec missing")
	}
	p, err := gen.Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	xlat, err := sched.Translate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	it, err := interp.New(p, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "espresso.pct")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	c := &trace.Capture{W: w, Xlat: xlat}
	it.Run(20_000, c)
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunOutput pins cachesim's printed report, byte for byte, over one
// captured trace under five cache organizations.
func TestRunOutput(t *testing.T) {
	path := writeTrace(t)
	const refs = "references: 25666 (20608 fetch, 3918 load, 1140 store)\n"
	cases := []struct {
		name                       string
		isize, dsize, block, assoc int
		writeBack                  bool
		want                       string
	}{
		{"direct-write-back", 1, 1, 4, 1, true, refs +
			"L1-I 1KW/4W direct write-back: 2104 misses / 20608 accesses = 0.1021\n" +
			"L1-D 1KW/4W direct write-back: 1940 misses / 5058 accesses = 0.3836 (writebacks 486, throughs 0)\n"},
		{"2-way-lru", 1, 1, 8, 2, true, refs +
			"L1-I 1KW/8W 2-way write-back: 1134 misses / 20608 accesses = 0.0550\n" +
			"L1-D 1KW/8W 2-way write-back: 1578 misses / 5058 accesses = 0.3120 (writebacks 476, throughs 0)\n"},
		{"4-way-write-through", 2, 1, 4, 4, false, refs +
			"L1-I 2KW/4W 4-way write-back: 1762 misses / 20608 accesses = 0.0855\n" +
			"L1-D 1KW/4W 4-way write-through: 2094 misses / 5058 accesses = 0.4140 (writebacks 0, throughs 1140)\n"},
		{"i-only", 1, 0, 4, 1, true, refs +
			"L1-I 1KW/4W direct write-back: 2104 misses / 20608 accesses = 0.1021\n"},
		{"d-only", 0, 2, 16, 1, true, refs +
			"L1-D 2KW/16W direct write-back: 1477 misses / 5058 accesses = 0.2920 (writebacks 435, throughs 0)\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(&out, path, tc.isize, tc.dsize, tc.block, tc.assoc, tc.writeBack); err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != tc.want {
				t.Errorf("output:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

func TestRunRejects(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "", 1, 1, 4, 1, true); err == nil {
		t.Error("missing -trace accepted")
	}
	path := writeTrace(t)
	if err := run(&out, path, 3, 1, 4, 1, true); err == nil || !strings.Contains(err.Error(), "icache") {
		t.Errorf("invalid icache size: err = %v", err)
	}
	if err := run(&out, path, 1, 1, 4, 3, true); err == nil || !strings.Contains(err.Error(), "icache") {
		t.Errorf("invalid associativity: err = %v", err)
	}
	if err := run(&out, path, 0, 5, 4, 1, true); err == nil || !strings.Contains(err.Error(), "dcache") {
		t.Errorf("invalid dcache size: err = %v", err)
	}
}
