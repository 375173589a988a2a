// Package trace defines the on-disk reference-trace formats of the
// simulator, utilities to capture, mix, and replay traces, and the
// in-memory event-trace tier (EventTrace/Record/Store) that lets one
// interpreted pass be replayed against many cache configurations.
//
// The paper drove cacheSIM from long multiprogrammed address traces. This
// reproduction usually generates references on the fly (the interpreters
// are deterministic), but the trace formats let a reference stream be
// captured once and replayed against many cache configurations, exactly as
// trace files were used in 1992 — and they are what the cmd/pipecache
// "tracegen" subcommand and the examples/tracegen program exercise.
//
// Two versions exist on disk, distinguished by a 4-byte magic:
//
//   - PCT1: fixed 6-byte records — one byte packing the reference kind
//     (2 bits) with the process id (6 bits), the little-endian 32-bit word
//     address, and a reserved padding byte.
//   - PCT2: the same kind/pid byte followed by the word address encoded as
//     a zigzag-varint delta against the previous address of the same
//     process AND kind. Fetch, load, and store streams advance through
//     disjoint regions, so separating the delta bases keeps deltas short
//     (typically 1-2 bytes: sequential fetches are +1 word) even though the
//     record stream interleaves kinds and processes freely; typical traces
//     shrink well below half the PCT1 size.
//
// NewWriter emits PCT2; NewWriterV1 keeps producing the legacy format.
// NewReader auto-detects the version from the magic and reads both.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"pipecache/internal/fault"
)

// ptReaderRead injects I/O-shaped faults into on-disk trace reading (both
// PCT magics), standing in for the short reads, disk errors, and truncated
// files a production trace archive would produce.
var ptReaderRead = fault.NewPoint("trace.reader.read")

// Kind classifies a reference.
type Kind uint8

const (
	// IFetch is an instruction fetch.
	IFetch Kind = iota
	// Load is a data read.
	Load
	// Store is a data write.
	Store
)

func (k Kind) String() string {
	switch k {
	case IFetch:
		return "ifetch"
	case Load:
		return "load"
	case Store:
		return "store"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Ref is one reference record.
type Ref struct {
	Kind Kind
	PID  uint8 // process id within the multiprogrammed mix (0-63)
	Addr uint32
}

const (
	magicV1    = "PCT1"
	magicV2    = "PCT2"
	recordSize = 6 // PCT1 fixed record size
	maxPID     = 63
)

// Writer streams refs to an io.Writer.
type Writer struct {
	w       *bufio.Writer
	count   uint64
	err     error
	v1      bool
	prev    [maxPID + 1][3]uint32 // per-(pid, kind) previous address (PCT2 deltas)
	scratch [1 + binary.MaxVarintLen64]byte
}

// NewWriter writes a PCT2 header and returns a Writer. Call Flush when
// done.
func NewWriter(w io.Writer) (*Writer, error) {
	return newWriter(w, magicV2, false)
}

// NewWriterV1 writes the legacy fixed-record PCT1 format for consumers
// that have not learned PCT2.
func NewWriterV1(w io.Writer) (*Writer, error) {
	return newWriter(w, magicV1, true)
}

func newWriter(w io.Writer, magic string, v1 bool) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	return &Writer{w: bw, v1: v1}, nil
}

// Write appends one record.
func (t *Writer) Write(r Ref) error {
	if t.err != nil {
		return t.err
	}
	if r.PID > maxPID {
		t.err = fmt.Errorf("trace: pid %d exceeds %d", r.PID, maxPID)
		return t.err
	}
	if r.Kind > Store {
		t.err = fmt.Errorf("trace: bad kind %d", r.Kind)
		return t.err
	}
	if t.v1 {
		var buf [recordSize]byte
		buf[0] = uint8(r.Kind)<<6 | r.PID
		binary.LittleEndian.PutUint32(buf[1:5], r.Addr)
		if _, err := t.w.Write(buf[:]); err != nil {
			t.err = err
			return err
		}
		t.count++
		return nil
	}
	buf := t.scratch[:0]
	buf = append(buf, uint8(r.Kind)<<6|r.PID)
	delta := int64(r.Addr) - int64(t.prev[r.PID][r.Kind])
	buf = binary.AppendUvarint(buf, zigzag(delta))
	t.prev[r.PID][r.Kind] = r.Addr
	if _, err := t.w.Write(buf); err != nil {
		t.err = err
		return err
	}
	t.count++
	return nil
}

// zigzag folds a signed delta into an unsigned varint-friendly value
// (small magnitudes of either sign encode short).
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Count returns the number of records written.
func (t *Writer) Count() uint64 { return t.count }

// Flush flushes buffered records.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Reader streams refs from an io.Reader, accepting both PCT1 and PCT2.
type Reader struct {
	r     *bufio.Reader
	count uint64
	v1    bool
	prev  [maxPID + 1][3]uint32
}

// NewReader validates the header, detects the format version, and returns
// a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(magicV1))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	switch string(head) {
	case magicV1:
		return &Reader{r: br, v1: true}, nil
	case magicV2:
		return &Reader{r: br}, nil
	}
	return nil, fmt.Errorf("trace: bad magic %q", head)
}

// Version returns the detected format version (1 or 2).
func (t *Reader) Version() int {
	if t.v1 {
		return 1
	}
	return 2
}

// Read returns the next record, or io.EOF at a clean end of trace.
func (t *Reader) Read() (Ref, error) {
	if err := ptReaderRead.Inject(); err != nil {
		return Ref{}, fmt.Errorf("trace: record %d: %w", t.count, err)
	}
	if t.v1 {
		return t.readV1()
	}
	return t.readV2()
}

func (t *Reader) readV1() (Ref, error) {
	var buf [recordSize]byte
	if _, err := io.ReadFull(t.r, buf[:]); err != nil {
		if err == io.EOF {
			return Ref{}, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Ref{}, fmt.Errorf("trace: truncated record after %d records", t.count)
		}
		return Ref{}, err
	}
	kind := Kind(buf[0] >> 6)
	if kind > Store {
		return Ref{}, fmt.Errorf("trace: bad kind %d at record %d", kind, t.count)
	}
	t.count++
	return Ref{
		Kind: kind,
		PID:  buf[0] & maxPID,
		Addr: binary.LittleEndian.Uint32(buf[1:5]),
	}, nil
}

func (t *Reader) readV2() (Ref, error) {
	head, err := t.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return Ref{}, io.EOF
		}
		return Ref{}, err
	}
	kind := Kind(head >> 6)
	if kind > Store {
		return Ref{}, fmt.Errorf("trace: bad kind %d at record %d", kind, t.count)
	}
	pid := head & maxPID
	u, err := binary.ReadUvarint(t.r)
	if err != nil {
		if err == io.EOF {
			return Ref{}, fmt.Errorf("trace: truncated record after %d records", t.count)
		}
		return Ref{}, fmt.Errorf("trace: record %d: %w", t.count, err)
	}
	addr := int64(t.prev[pid][kind]) + unzigzag(u)
	if addr < 0 || addr > math.MaxUint32 {
		return Ref{}, fmt.Errorf("trace: record %d: address delta out of range", t.count)
	}
	t.prev[pid][kind] = uint32(addr)
	t.count++
	return Ref{Kind: kind, PID: pid, Addr: uint32(addr)}, nil
}

// Count returns the number of records read so far.
func (t *Reader) Count() uint64 { return t.count }
