package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var sizes = []int{1, 2, 4, 8, 16, 32}

func mixStream(seed uint64, client, n int) []mixRequest {
	g := newServeMixGen(seed, client, sizes)
	out := make([]mixRequest, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func fanoutStream(seed uint64, n int) [][]byte {
	g := newFanoutGen(seed)
	out := make([][]byte, n)
	for i := range out {
		_, out[i] = g.next()
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	if a, b := mixStream(7, 0, 500), mixStream(7, 0, 500); !reflect.DeepEqual(a, b) {
		t.Error("serve_mix: one seed gave two request streams")
	}
	if a, b := fanoutStream(7, 500), fanoutStream(7, 500); !reflect.DeepEqual(a, b) {
		t.Error("fanout: one seed gave two request streams")
	}
}

func TestOtherSeedOtherRequests(t *testing.T) {
	if a, b := mixStream(7, 0, 50), mixStream(8, 0, 50); reflect.DeepEqual(a, b) {
		t.Error("serve_mix: seeds 7 and 8 gave the same stream")
	}
	if a, b := mixStream(7, 0, 50), mixStream(7, 1, 50); reflect.DeepEqual(a, b) {
		t.Error("serve_mix: both clients of seed 7 got the same stream")
	}
	if a, b := fanoutStream(7, 50), fanoutStream(8, 50); reflect.DeepEqual(a, b) {
		t.Error("fanout: seeds 7 and 8 gave the same stream")
	}
	if a, b := fanoutStream(heldOutSeed, 50), fanoutStream(1, 50); reflect.DeepEqual(a, b) {
		t.Error("fanout: the held-out seed gave seed 1's stream")
	}
}

func TestServeMixShares(t *testing.T) {
	n := map[string]int{}
	for _, r := range mixStream(3, 0, 20000) {
		n[r.class]++
	}
	for class, want := range map[string]float64{classOnGrid: 0.60, classOffGrid: 0.35, classFIFO: 0.05} {
		if got := float64(n[class]) / 20000; got < want-0.02 || got > want+0.02 {
			t.Errorf("%s share %.3f, want %.2f", class, got, want)
		}
	}
}

func TestFanoutNeverRepeats(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range fanoutStream(5, 5000) {
		if seen[string(b)] {
			t.Fatalf("repeated request %s", b)
		}
		seen[string(b)] = true
		if bytes.Contains(b, []byte(`"l2_time_ns":35}`)) {
			t.Fatalf("request at the baked miss-service time: %s", b)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{0, 0.5, false},
	} {
		_, err := percentile(samples(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err=%v, want ok=%v", 100*c.q, c.n, err, c.ok)
		}
	}
	if v, err := percentile(samples(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if v, err := percentile(samples(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
}

// TestManifest checks that the committed BENCHMARK.json is the one the
// tables render and that it stays within the benchmark contract's limits.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh --manifest")
	}
	var doc manifestDoc
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range doc.Workloads {
		if !name.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (%s): bad or repeated name or unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	for _, m := range doc.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound outside (0, 0.25]", m.Name)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}
