package snapshot

import (
	"encoding/binary"
	"math"
)

// Hand-rolled binary wire primitives: uvarints for counts and refs, fixed
// 64-bit words for float bits and hashes, length-prefixed byte strings.
// Everything is explicit-length, so a truncated or corrupted blob fails
// decoding with an error instead of reading out of bounds.

type writer struct {
	buf []byte
}

func (w *writer) u8(b byte) { w.buf = append(w.buf, b) }
func (w *writer) uvarint(n uint64) {
	w.buf = binary.AppendUvarint(w.buf, n)
}
func (w *writer) u64(n uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, n)
}
func (w *writer) f64(f float64) { w.u64(math.Float64bits(f)) }
func (w *writer) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}
func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) bool(b bool) {
	if b {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail() { r.failf("truncated at offset %d", r.off) }

func (r *reader) u8() byte {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	n, k := binary.Uvarint(r.buf[r.off:])
	if k <= 0 {
		r.fail()
		return 0
	}
	r.off += k
	return n
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	n := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return n
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) bytes() []byte {
	n := r.uvarint()
	// Compare against the remaining bytes, not off+n: a crafted length near
	// 2^64 would wrap the addition and slip past the check.
	if r.err != nil || n > uint64(len(r.buf)-r.off) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *reader) str() string { return string(r.bytes()) }

func (r *reader) bool() bool { return r.u8() != 0 }

// ref reads a uvarint that will be used as a table index or ordinal. Values
// that do not fit in a non-negative int are rejected here, so callers never
// see a wire value wrap to a negative index.
func (r *reader) ref() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(math.MaxInt) {
		r.fail()
		return 0
	}
	return int(n)
}

// count reads a length that will be used to allocate a slice, bounding it
// by what the remaining bytes could possibly encode (at least one byte per
// element) so a corrupted length cannot force a huge allocation.
func (r *reader) count() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail()
		return 0
	}
	return int(n)
}

// failf records a corrupt-blob error unless an earlier one stands.
func (r *reader) failf(format string, args ...interface{}) {
	if r.err == nil {
		r.err = corruptf(format, args...)
	}
}
