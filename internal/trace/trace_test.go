package trace

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"pipecache/internal/cache"
	"pipecache/internal/isa"
	"pipecache/internal/program"
	"pipecache/internal/stats"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	refs := []Ref{
		{IFetch, 0, 0x1000},
		{Load, 5, 0xdeadbee},
		{Store, 63, 0},
		{IFetch, 1, 0xffffffff},
	}
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 4 {
		t.Fatalf("count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range refs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := rng.Range(0, 200)
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		refs := make([]Ref, n)
		for i := range refs {
			refs[i] = Ref{
				Kind: Kind(rng.Intn(3)),
				PID:  uint8(rng.Intn(64)),
				Addr: uint32(rng.Uint64()),
			}
			if w.Write(refs[i]) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for i := range refs {
			got, err := r.Read()
			if err != nil || got != refs[i] {
				return false
			}
		}
		_, err = r.Read()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterRejectsBadRecords(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.Write(Ref{PID: 64}); err == nil {
		t.Fatal("pid 64 accepted")
	}
	w2, _ := NewWriter(&buf)
	if err := w2.Write(Ref{Kind: 3}); err == nil {
		t.Fatal("kind 3 accepted")
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXX????"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReaderDetectsTruncation(t *testing.T) {
	// PCT2: a large first delta spans several varint bytes; a cut inside
	// them must surface as an error, not a clean EOF.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Ref{IFetch, 1, 0xdeadbeef})
	w.Flush()
	data := buf.Bytes()[:buf.Len()-2] // cut mid-varint
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Fatalf("PCT2 truncation not detected: %v", err)
	}

	// PCT1: cut inside the fixed 6-byte record.
	var buf1 bytes.Buffer
	w1, _ := NewWriterV1(&buf1)
	w1.Write(Ref{IFetch, 1, 2})
	w1.Flush()
	data1 := buf1.Bytes()[:buf1.Len()-2]
	r1, err := NewReader(bytes.NewReader(data1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Read(); err == nil || err == io.EOF {
		t.Fatalf("PCT1 truncation not detected: %v", err)
	}
}

func TestV1RoundTripAndVersion(t *testing.T) {
	refs := []Ref{
		{IFetch, 0, 0x1000},
		{Load, 5, 0xdeadbee},
		{Store, 63, 0},
		{IFetch, 1, 0xffffffff},
	}
	for _, v1 := range []bool{false, true} {
		var buf bytes.Buffer
		var w *Writer
		var err error
		if v1 {
			w, err = NewWriterV1(&buf)
		} else {
			w, err = NewWriter(&buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range refs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		wantVer := 2
		if v1 {
			wantVer = 1
		}
		if r.Version() != wantVer {
			t.Fatalf("version = %d, want %d", r.Version(), wantVer)
		}
		for i, want := range refs {
			got, err := r.Read()
			if err != nil || got != want {
				t.Fatalf("v1=%v record %d: got %+v (%v), want %+v", v1, i, got, err, want)
			}
		}
	}
}

func TestV2SmallerThanV1(t *testing.T) {
	// A realistic stream — mostly sequential fetches with nearby data refs
	// — has small per-PID deltas, which is exactly what the delta/varint
	// encoding exploits.
	var v1, v2 bytes.Buffer
	w1, _ := NewWriterV1(&v1)
	w2, _ := NewWriter(&v2)
	for pid := uint8(0); pid < 4; pid++ {
		for i := uint32(0); i < 1000; i++ {
			refs := []Ref{
				{IFetch, pid, 0x10000 + i},
				{Load, pid, 0x40000 + 4*(i%64)},
			}
			for _, r := range refs {
				w1.Write(r)
				w2.Write(r)
			}
		}
	}
	w1.Flush()
	w2.Flush()
	if v2.Len() >= v1.Len()/2 {
		t.Fatalf("PCT2 %d bytes vs PCT1 %d: expected at least 2x smaller", v2.Len(), v1.Len())
	}
}

func TestKindString(t *testing.T) {
	if IFetch.String() != "ifetch" || Load.String() != "load" || Store.String() != "store" {
		t.Fatal("kind strings")
	}
	if Kind(9).String() != "kind(9)" {
		t.Fatal("unknown kind string")
	}
}

func TestReplayCountsAndDrivesCaches(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Ref{IFetch, 0, 0})
	w.Write(Ref{IFetch, 0, 0})
	w.Write(Ref{Load, 0, 100})
	w.Write(Ref{Store, 0, 100})
	w.Flush()
	r, _ := NewReader(&buf)
	cfg := []cache.Config{{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: true}}
	ic, _ := cache.NewBank(cfg)
	dc, _ := cache.NewBank(cfg)
	st, err := ReplayBank(r, ic, dc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Refs != 4 || st.IFetches != 2 || st.Loads != 1 || st.Stores != 1 {
		t.Fatalf("stats %+v", st)
	}
	if ic.Stats(0).Misses() != 1 || ic.Stats(0).Accesses() != 2 {
		t.Fatalf("icache stats %+v", ic.Stats(0))
	}
	if dc.Stats(0).Misses() != 1 {
		t.Fatalf("dcache stats %+v", dc.Stats(0))
	}
}

// TestReplayBankDirectDetach holds ReplayBank's Direct-view path to plain
// Bank.Access probing: a trace replayed in two parts into one-configuration
// direct-mapped banks, then probed further through Access and flushed,
// must leave the same statistics as Access alone, so each view's state
// (tags and dirty bits) is handed back to its bank exactly.
func TestReplayBankDirectDetach(t *testing.T) {
	refs := make([]Ref, 6000)
	x := uint32(12345)
	for i := range refs {
		x = x*1664525 + 1013904223
		refs[i] = Ref{Kind: Kind(x >> 30 % 3), Addr: x >> 8 & 0x3fff}
	}
	encode := func(refs []Ref) *Reader {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		for _, r := range refs {
			w.Write(r)
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, wb := range []bool{true, false} {
		cfg := []cache.Config{{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: wb}}
		ic, _ := cache.NewBank(cfg)
		dc, _ := cache.NewBank(cfg)
		oi, _ := cache.NewBank(cfg)
		od, _ := cache.NewBank(cfg)
		if ic.Direct() == nil {
			t.Fatal("one direct-mapped configuration has no Direct view")
		}
		for _, part := range [][]Ref{refs[:2500], refs[2500:5000]} {
			if _, err := ReplayBank(encode(part), ic, dc); err != nil {
				t.Fatal(err)
			}
		}
		for i, r := range refs {
			banks := []*cache.Bank{oi, od}
			if i >= 5000 {
				banks = []*cache.Bank{ic, dc, oi, od}
			}
			for j, b := range banks {
				if (j%2 == 0) == (r.Kind == IFetch) {
					b.Access(r.Addr, r.Kind == Store)
				}
			}
		}
		for _, b := range []*cache.Bank{ic, dc, oi, od} {
			b.Flush()
		}
		if ic.Stats(0) != oi.Stats(0) || dc.Stats(0) != od.Stats(0) {
			t.Fatalf("write-back %v: replayed I %+v D %+v, probed I %+v D %+v",
				wb, ic.Stats(0), dc.Stats(0), oi.Stats(0), od.Stats(0))
		}
	}
}

func TestReplayNilCaches(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Ref{Load, 0, 1})
	w.Flush()
	r, _ := NewReader(&buf)
	if _, err := ReplayBank(r, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMixInterleavesQuanta(t *testing.T) {
	mk := func(pid uint8, n int) *Reader {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		for i := 0; i < n; i++ {
			w.Write(Ref{IFetch, pid, uint32(i)})
		}
		w.Flush()
		r, _ := NewReader(&buf)
		return r
	}
	var out bytes.Buffer
	w, _ := NewWriter(&out)
	if err := Mix(w, 2, mk(1, 5), mk(2, 3)); err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader(&out)
	var pids []uint8
	for {
		ref, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, ref.PID)
	}
	want := []uint8{1, 1, 2, 2, 1, 1, 2, 1}
	if len(pids) != len(want) {
		t.Fatalf("got %v, want %v", pids, want)
	}
	for i := range want {
		if pids[i] != want[i] {
			t.Fatalf("got %v, want %v", pids, want)
		}
	}
}

func TestCaptureRecordsProgramStream(t *testing.T) {
	// A two-block loop captured through the identity (b=0) translation
	// produces one ifetch per instruction and the data refs.
	bd := program.NewBuilder("cap", 0x100)
	main := bd.StartProc("main")
	b0 := bd.NewBlock()
	bd.Load(b0, isa.T0, isa.GP, 0, program.MemBehavior{Kind: program.MemGP, Offset: 0})
	bd.ALU(b0, isa.ADDU, isa.T1, isa.T0, isa.A0)
	bd.Jump(b0, b0)
	bd.SetEntry(main)
	p, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p.Data = program.DataLayout{GPBase: 0x1000, GPSize: 64, StackBase: 0x2000, FrameSize: 64}

	xlat, err := schedTranslate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	cap := &Capture{W: w, Xlat: xlat, PID: 3}
	it := mustInterp(t, p, 7)
	it.Run(30, cap)
	if cap.Err() != nil {
		t.Fatal(cap.Err())
	}
	w.Flush()

	r, _ := NewReader(&buf)
	st, err := ReplayBank(r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 3 instructions per iteration, 10 iterations: 30 fetches, 10 loads.
	if st.IFetches != 30 || st.Loads != 10 {
		t.Fatalf("stats %+v", st)
	}
}
