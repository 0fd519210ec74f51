package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	uvals := []uint64{0, 1, 127, 128, 1<<32 - 1, math.MaxUint64}
	ivals := []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64}
	w.Section(7)
	for _, v := range uvals {
		w.Uvarint(v)
	}
	for _, v := range ivals {
		w.Varint(v)
	}
	w.U64(0xdeadbeefcafef00d)
	w.Bool(true)
	w.Bool(false)
	w.String("ugal-s")
	w.String("")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r.Section(7)
	for _, want := range uvals {
		if got := r.Uvarint(); got != want {
			t.Fatalf("uvarint: got %d, want %d", got, want)
		}
	}
	for _, want := range ivals {
		if got := r.Varint(); got != want {
			t.Fatalf("varint: got %d, want %d", got, want)
		}
	}
	if got := r.U64(); got != 0xdeadbeefcafef00d {
		t.Fatalf("u64: got %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool round-trip failed")
	}
	if got := r.String(); got != "ugal-s" {
		t.Fatalf("string: got %q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("empty string: got %q", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicBytes(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Section(1)
		w.Varint(-42)
		w.U64(99)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(emit(), emit()) {
		t.Fatal("identical writes produced different bytes")
	}
}

func TestRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section(1)
	w.Uvarint(5)
	w.String("hello")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	readAll := func(b []byte) error {
		r, err := NewReader(bytes.NewReader(b))
		if err != nil {
			return err
		}
		r.Section(1)
		r.Uvarint()
		_ = r.String()
		return r.Finish()
	}
	if err := readAll(data); err != nil {
		t.Fatalf("pristine stream failed: %v", err)
	}
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x80
		if readAll(mut) == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
	for l := 0; l < len(data); l++ {
		if readAll(data[:l]) == nil {
			t.Fatalf("truncation to %d bytes went undetected", l)
		}
	}
}

func TestReaderGuards(t *testing.T) {
	// Bad magic.
	if _, err := NewReader(strings.NewReader("NOTASNAP\x01")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Wrong version.
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.WriteByte(Version + 1)
	if _, err := NewReader(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("future version accepted")
	}

	// Section mismatch.
	buf.Reset()
	w := NewWriter(&buf)
	w.Section(2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r.Section(3)
	if r.Err() == nil {
		t.Fatal("section mismatch accepted")
	}

	// Count cap.
	buf.Reset()
	w = NewWriter(&buf)
	w.Uvarint(1000)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err = NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Count(10, "widget"); got != 0 || r.Err() == nil {
		t.Fatalf("count over limit returned %d, err %v", got, r.Err())
	}

	// Hostile string length must not allocate.
	buf.Reset()
	w = NewWriter(&buf)
	w.Uvarint(1 << 40)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err = NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != "" || r.Err() == nil {
		t.Fatalf("hostile string length returned %q, err %v", got, r.Err())
	}
}

// encodeStream writes a stream of primitives long enough to span several
// buffers, with a varint, a U64, a String and a Bytes blob each placed so
// that it straddles a buffer boundary, and returns the bytes together
// with a function that decodes and checks them from any reader.
func encodeStream(t *testing.T) ([]byte, func(r *Reader)) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var checks []func(r *Reader)
	// pad fills the stream with one-byte varints up to offset off.
	written := len(Magic) + 1
	pad := func(off int) {
		k := off - written
		if k < 0 {
			t.Fatalf("stream is already at %d, past %d", written, off)
		}
		for i := 0; i < k; i++ {
			w.Uvarint(uint64(i % 128))
		}
		checks = append(checks, func(r *Reader) {
			for i := 0; i < k; i++ {
				if got := r.Uvarint(); got != uint64(i%128) {
					t.Fatalf("pad varint %d: got %d", i, got)
				}
			}
		})
		written = off
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), (bufSize+4096)/16) // longer than a buffer
	str := strings.Repeat("s", 300)

	pad(bufSize - 3) // a 10-byte varint across the first boundary
	w.Uvarint(math.MaxUint64)
	written += 10
	checks = append(checks, func(r *Reader) {
		if got := r.Uvarint(); got != math.MaxUint64 {
			t.Fatalf("straddling varint: got %#x", got)
		}
	})
	pad(2*bufSize - 5) // a U64 across the second
	w.U64(0x0123456789abcdef)
	written += 8
	checks = append(checks, func(r *Reader) {
		if got := r.U64(); got != 0x0123456789abcdef {
			t.Fatalf("straddling U64: got %#x", got)
		}
	})
	pad(3*bufSize - 100) // a String across the third
	w.String(str)
	written += 2 + len(str)
	checks = append(checks, func(r *Reader) {
		if got := r.String(); got != str {
			t.Fatalf("straddling string: got %d bytes", len(got))
		}
	})
	w.Bytes(big) // and a blob that outgrows the buffer altogether
	w.Bool(true)
	w.Varint(-7)
	checks = append(checks, func(r *Reader) {
		if got := r.Bytes(); !bytes.Equal(got, big) {
			t.Fatalf("oversized blob: got %d bytes, want %d", len(got), len(big))
		}
		if !r.Bool() || r.Varint() != -7 {
			t.Fatal("primitives after the blob did not round-trip")
		}
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), func(r *Reader) {
		t.Helper()
		for _, c := range checks {
			c(r)
		}
		if err := r.Finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}
	}
}

// stutterReader answers every other Read with (0, nil) before handing
// over at most three bytes.
type stutterReader struct {
	r     io.Reader
	calls int
}

func (s *stutterReader) Read(p []byte) (int, error) {
	if s.calls++; s.calls%2 == 1 {
		return 0, nil
	}
	return s.r.Read(p[:min(3, len(p))])
}

// TestBufferedRoundTrip sends more than three buffers' worth through
// Writer and Reader: primitives straddling every refill decode intact,
// the trailer is the IEEE CRC of exactly the bytes before it, and the
// result does not depend on how the underlying stream fragments its
// reads (whole, one byte at a time, data and EOF together, stuttering).
func TestBufferedRoundTrip(t *testing.T) {
	data, decode := encodeStream(t)
	if len(data) < 3*bufSize {
		t.Fatalf("stream is %d bytes, want at least three %d-byte buffers", len(data), bufSize)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		t.Fatalf("trailer %#08x, CRC of the %d bytes before it %#08x", got, len(body), want)
	}
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"whole":   func(r io.Reader) io.Reader { return r },
		"onebyte": iotest.OneByteReader,
		"dataerr": iotest.DataErrReader,
		"half":    iotest.HalfReader,
		"stutter": func(r io.Reader) io.Reader { return &stutterReader{r: r} },
	} {
		r, err := NewReader(wrap(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		decode(r)
	}

	// A Writer whose stream fails reports the first failure from Close
	// and stops writing; a short write counts as one.
	fw := &failingWriter{failAt: 2, err: errors.New("disk full")}
	w := NewWriter(fw)
	w.Bytes(make([]byte, 4*bufSize))
	if err := w.Close(); err != fw.err || w.Err() != fw.err || fw.calls != 2 {
		t.Fatalf("failing stream: Close returned %v after %d writes", err, fw.calls)
	}
	w = NewWriter(&failingWriter{failAt: 1})
	w.Bytes(make([]byte, 2*bufSize))
	if err := w.Close(); err != io.ErrShortWrite {
		t.Fatalf("short write: Close returned %v", err)
	}
}

// failingWriter accepts writes until call number failAt, which returns
// err — or, with a nil err, silently takes one byte too few.
type failingWriter struct {
	failAt, calls int
	err           error
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.calls++; f.calls == f.failAt {
		return len(p) - 1, f.err
	}
	return len(p), nil
}

// TestReaderStreamErrors holds the reader's treatment of a failing
// stream: the stream's own error comes back verbatim and stays, even if
// the stream would recover; a stream that never makes progress is an
// error, not a hang; and end of stream is a truncation wherever it falls.
func TestReaderStreamErrors(t *testing.T) {
	data, _ := encodeStream(t)

	// TimeoutReader fails its second Read and would succeed after that.
	r, err := NewReader(iotest.TimeoutReader(iotest.HalfReader(bytes.NewReader(data))))
	if err != nil {
		t.Fatal(err)
	}
	for r.Err() == nil {
		r.Uvarint()
	}
	if r.Err() != iotest.ErrTimeout {
		t.Fatalf("stream error surfaced as %v, want it verbatim", r.Err())
	}
	if v, s, b := r.Uvarint(), r.String(), r.Bytes(); v != 0 || s != "" || b != nil || r.U64() != 0 || r.Bool() {
		t.Fatal("reads after a failure must return zero values")
	}
	if r.Err() != iotest.ErrTimeout || r.Finish() != iotest.ErrTimeout {
		t.Fatalf("error did not stick: %v", r.Err())
	}

	broken := errors.New("disk on fire")
	if _, err := NewReader(iotest.ErrReader(broken)); err != broken {
		t.Fatalf("NewReader on a broken stream: %v", err)
	}

	// (0, nil) for ever.
	if _, err := NewReader(&stutterReader{r: iotest.ErrReader(nil)}); err != io.ErrNoProgress {
		t.Fatalf("stalled stream: %v, want io.ErrNoProgress", err)
	}

	for _, cut := range []int{0, 3, len(Magic), bufSize - 1, bufSize + 4, len(data) - 4, len(data) - 1} {
		r, err := NewReader(bytes.NewReader(data[:cut]))
		for err == nil {
			if r.Uvarint(); r.Err() != nil {
				err = r.Err()
			}
		}
		if err.Error() != "snapshot: truncated stream" {
			t.Fatalf("cut at %d: %v", cut, err)
		}
	}
	// A stream that ends inside the trailer says so.
	r, err = NewReader(bytes.NewReader([]byte(Magic + "\x02\x05\xaa\xbb")))
	if err != nil {
		t.Fatal(err)
	}
	r.Uvarint()
	if err := r.Finish(); err == nil || err.Error() != "snapshot: truncated stream (missing CRC trailer)" {
		t.Fatalf("short trailer: %v", err)
	}
}
