// Package snapshot is the versioned binary container used to
// checkpoint and restore simulator state (DESIGN.md §14).
//
// The format is deliberately minimal and fully deterministic: a fixed
// magic string and format version, followed by tagged sections of
// little-endian / varint-encoded primitives, terminated by a CRC32
// trailer over everything that precedes it. The same state always
// serialises to the same bytes, so snapshot equality is byte equality —
// the property the restore-vs-rerun bit-identity tests lean on.
//
// The encoding layer knows nothing about simulator structures; it
// provides primitives (Uvarint, Varint, U64, Bool, String) plus section
// tags that catch reader/writer drift early with a precise error
// instead of garbage decoding. Readers are sticky-error: after the
// first failure every subsequent read is a cheap no-op returning zero,
// so decode loops need only one error check at the end. Hostile or
// truncated input must surface as an error, never a panic: String and
// the caller-side count validations bound every allocation.
//
// Both sides own a fixed buffer and move bytes in bulk: primitives are
// encoded into, and decoded out of, the buffer directly, the CRC is
// folded in once per buffer-full, and the underlying stream sees one
// Read or Write per buffer-full. Like any buffered reader, Reader may
// consume more of the underlying stream than the snapshot occupies.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic identifies a flatnet snapshot stream.
const Magic = "FNETSNAP"

// Version is the current format version. Readers reject snapshots
// written by a different version: state layout is tied to the simulator
// build, and silently misreading a stale checkpoint is worse than
// asking the caller to regenerate it. Version 2 added the workload
// section (per-source arrival-process state) and dropped the per-source
// burst bit. Version 3 writes the event calendar, round-robin pointers
// and backlog destinations in the cycle core's own layout. Version 4
// drops the transfer section and the per-arrival transfer index: a
// restored transfer's arrivals and packets are ordinary ones.
const Version = 4

// maxStringLen bounds String allocations against hostile length
// prefixes. Snapshot strings are short identifiers (algorithm names,
// pattern names), never bulk data.
const maxStringLen = 1 << 16

// maxBytesLen bounds Bytes allocations. Byte blobs carry per-node
// workload state (a few bytes per terminal), so 16 MiB covers networks
// far beyond the simulator's practical scale.
const maxBytesLen = 1 << 24

// bufSize is the buffer each Writer and Reader owns: large enough that a
// sweep-sized snapshot (~100 kB) costs a handful of stream calls and CRC
// passes, small enough to stay cache-resident.
const bufSize = 32 << 10

// Writer serialises primitives to an underlying stream while
// accumulating the CRC32 trailer. Errors are sticky; check Close.
type Writer struct {
	w   io.Writer
	crc uint32 // of everything flushed so far
	err error
	n   int // buf[:n] is encoded and not yet flushed
	buf [bufSize]byte
}

// NewWriter starts a snapshot stream: magic then format version.
func NewWriter(w io.Writer) *Writer {
	sw := &Writer{w: w}
	sw.raw([]byte(Magic))
	sw.Uvarint(Version)
	return sw
}

// flush folds the buffered bytes into the CRC and hands them to the
// stream. After an error the buffer is simply discarded, so encoding
// into it stays a harmless no-op.
func (w *Writer) flush() {
	if w.err == nil {
		w.crc = crc32.Update(w.crc, crc32.IEEETable, w.buf[:w.n])
		w.write(w.buf[:w.n])
	}
	w.n = 0
}

func (w *Writer) write(b []byte) {
	n, err := w.w.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	w.err = err
}

// room returns the unwritten tail of the buffer, at least n bytes long
// (n is a primitive's maximum encoded size).
func (w *Writer) room(n int) []byte {
	if len(w.buf)-w.n < n {
		w.flush()
	}
	return w.buf[w.n:]
}

func (w *Writer) raw(b []byte) {
	for len(b) > 0 {
		n := copy(w.room(1), b)
		w.n += n
		b = b[n:]
	}
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.n += binary.PutUvarint(w.room(binary.MaxVarintLen64), v)
}

// Varint writes a signed varint (zig-zag encoded).
func (w *Writer) Varint(v int64) {
	w.Uvarint(uint64(v<<1) ^ uint64(v>>63))
}

// U64 writes a fixed-width little-endian uint64 (RNG state words,
// where varint encoding would obscure the fixed layout).
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.room(8), v)
	w.n += 8
}

// Bool writes a single 0/1 byte.
func (w *Writer) Bool(v bool) {
	b := w.room(1)
	b[0] = 0
	if v {
		b[0] = 1
	}
	w.n++
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	if len(s) > maxStringLen {
		if w.err == nil {
			w.err = fmt.Errorf("snapshot: string of %d bytes exceeds limit %d", len(s), maxStringLen)
		}
		return
	}
	w.Uvarint(uint64(len(s)))
	w.raw([]byte(s))
}

// Bytes writes a length-prefixed byte blob (workload state, where the
// payload is opaque to the container).
func (w *Writer) Bytes(b []byte) {
	if len(b) > maxBytesLen {
		if w.err == nil {
			w.err = fmt.Errorf("snapshot: byte blob of %d bytes exceeds limit %d", len(b), maxBytesLen)
		}
		return
	}
	w.Uvarint(uint64(len(b)))
	w.raw(b)
}

// Section writes a section tag marking the start of a logical group.
func (w *Writer) Section(tag uint64) {
	w.Uvarint(tag)
}

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Close writes the CRC32 trailer and flushes. It does not close the
// underlying stream.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	tail := w.room(4)
	// The trailer itself is not covered by the CRC.
	crc := crc32.Update(w.crc, crc32.IEEETable, w.buf[:w.n])
	binary.LittleEndian.PutUint32(tail, crc)
	w.write(w.buf[:w.n+4])
	w.n = 0
	return w.err
}

// Reader decodes a snapshot stream written by Writer. Errors are
// sticky: after the first failure every read returns the zero value,
// and Err / Finish report what went wrong.
type Reader struct {
	r       io.Reader
	rerr    error  // the stream's own error, surfaced once the buffer runs dry
	crc     uint32 // of everything consumed before buf[sum]
	err     error
	version uint64
	// buf[pos:end] is read from the stream and not yet decoded;
	// buf[sum:pos] is decoded and not yet folded into crc. A failed
	// reader holds an empty buffer, so decoding falls through to the
	// sticky error.
	sum, pos, end int
	buf           [bufSize]byte
}

// maxEmptyReads is how many consecutive (0, nil) reads the stream may
// answer with before the reader gives up, as bufio does.
const maxEmptyReads = 100

// NewReader validates the magic and format version and positions the
// reader at the first section.
func NewReader(r io.Reader) (*Reader, error) {
	sr := &Reader{r: r}
	var magic [len(Magic)]byte
	sr.full(magic[:])
	if sr.err == nil && string(magic[:]) != Magic {
		sr.fail(errors.New("snapshot: bad magic (not a flatnet snapshot)"))
	}
	sr.version = sr.Uvarint()
	if sr.err == nil && sr.version != Version {
		sr.fail(fmt.Errorf("snapshot: format version %d, this build reads version %d", sr.version, Version))
	}
	if sr.err != nil {
		return nil, sr.err
	}
	return sr, nil
}

// Version reports the stream's format version.
func (r *Reader) Version() uint64 { return r.version }

// fail records the first error and empties the buffer.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.sum, r.pos, r.end = 0, 0, 0
}

// fill folds the decoded bytes into the CRC, slides the undecoded ones
// to the front of the buffer and reads more of the stream behind them.
// It reports false, with the sticky error set, when the stream has no
// more to give.
func (r *Reader) fill() bool {
	if r.err != nil {
		return false
	}
	r.crc = crc32.Update(r.crc, crc32.IEEETable, r.buf[r.sum:r.pos])
	r.end = copy(r.buf[:], r.buf[r.pos:r.end])
	r.sum, r.pos = 0, 0
	for i := 0; i < maxEmptyReads && r.rerr == nil; i++ {
		var n int
		n, r.rerr = r.r.Read(r.buf[r.end:])
		if n > 0 {
			r.end += n
			return true
		}
	}
	switch r.rerr {
	case nil:
		r.fail(io.ErrNoProgress)
	case io.EOF, io.ErrUnexpectedEOF:
		r.fail(errors.New("snapshot: truncated stream"))
	default:
		r.fail(r.rerr)
	}
	return false
}

func (r *Reader) full(b []byte) {
	for len(b) > 0 {
		if r.pos == r.end && !r.fill() {
			return
		}
		n := copy(b, r.buf[r.pos:r.end])
		r.pos += n
		b = b[n:]
	}
}

func (r *Reader) byte() byte {
	if r.pos == r.end && !r.fill() {
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if v, n := binary.Uvarint(r.buf[r.pos:r.end]); n > 0 {
		r.pos += n
		return v
	}
	// The varint straddles a refill, is malformed, or the reader failed.
	var v uint64
	for shift := uint(0); ; shift += 7 {
		b := r.byte()
		if r.err != nil {
			return 0
		}
		if shift == 63 && b > 1 {
			r.fail(errors.New("snapshot: varint overflows uint64"))
			return 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
	}
}

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 {
	var b [8]byte
	r.full(b[:])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

// Bool reads a 0/1 byte; any other value is a format error.
func (r *Reader) Bool() bool {
	b := r.byte()
	if r.err == nil && b > 1 {
		r.fail(fmt.Errorf("snapshot: invalid bool byte %#x", b))
	}
	return b == 1
}

// String reads a length-prefixed string, bounding the allocation.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxStringLen {
		r.fail(fmt.Errorf("snapshot: string length %d exceeds limit %d", n, maxStringLen))
		return ""
	}
	b := make([]byte, n)
	r.full(b)
	if r.err != nil {
		return ""
	}
	return string(b)
}

// Bytes reads a length-prefixed byte blob, bounding the allocation.
// A zero-length blob decodes as nil.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > maxBytesLen {
		r.fail(fmt.Errorf("snapshot: byte blob length %d exceeds limit %d", n, maxBytesLen))
		return nil
	}
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	r.full(b)
	if r.err != nil {
		return nil
	}
	return b
}

// Section consumes a section tag and errors unless it matches want.
func (r *Reader) Section(want uint64) {
	got := r.Uvarint()
	if r.err == nil && got != want {
		r.fail(fmt.Errorf("snapshot: expected section %d, found %d (corrupt or mismatched stream)", want, got))
	}
}

// Count reads a uvarint length prefix and validates it against max so
// hostile streams cannot force huge allocations or out-of-range
// indices. Use for every slice length and index read from the stream.
func (r *Reader) Count(max int, what string) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if max < 0 || n > uint64(max) {
		r.fail(fmt.Errorf("snapshot: %s count %d exceeds limit %d", what, n, max))
		return 0
	}
	return int(n)
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Finish validates the CRC32 trailer. Call after the last section has
// been decoded; a mismatch means the stream was corrupted in flight.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	// The trailer itself is not covered by the CRC.
	r.crc = crc32.Update(r.crc, crc32.IEEETable, r.buf[r.sum:r.pos])
	r.sum = r.pos
	want := r.crc
	var tail [4]byte
	if r.full(tail[:]); r.err != nil {
		r.err = errors.New("snapshot: truncated stream (missing CRC trailer)")
		return r.err
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		r.fail(fmt.Errorf("snapshot: CRC mismatch (stream %#08x, computed %#08x)", got, want))
		return r.err
	}
	return nil
}
