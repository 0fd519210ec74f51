package nocsvc

import (
	"encoding/json"
	"strconv"
)

// The estimate round trip crosses the codec four times (client encode,
// server decode, server encode, client decode), so its one hot shape is
// scanned and appended by hand:
//
//	{"v":1,"id":7,"verb":"estimate","session":"s1","est":{"src":0,"dst":5,"bytes":64}}
//	{"v":1,"id":7,"ok":true,"est":{"cycles":12,"hops":2,"packets":8}}
//
// The scanners take exactly-spelled keys of those objects, each at most
// once and in any order, plain printable-ASCII strings without escapes,
// integers of at most 18 digits without fraction or exponent, true and
// false, and JSON whitespace between tokens. Anything else (another
// verb or payload, an escape or non-ASCII byte, an unknown, duplicated
// or differently-cased key, a fraction, an exponent, null, trailing
// bytes) is declined and the line takes the encoding/json path, so every
// accept or reject, decoded value and error message is that path's. The
// encoders append the shape with strconv, byte for byte what json.Marshal
// emits, and hand every other value to json.Marshal. The fuzz targets
// hold all four to encoding/json.

// scanner walks one line of the hot shape. Every method reports false
// on the first byte outside the shape; the caller then declines the line.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, if c is next.
func (s *scanner) consume(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// done reports whether only whitespace is left.
func (s *scanner) done() bool {
	s.skipSpace()
	return s.i == len(s.b)
}

// str scans a string of printable ASCII without escapes and returns its
// contents, aliasing the line.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// int64 scans -?(0|[1-9][0-9]*) of at most 18 digits, which no int64
// overflows. A fraction or exponent is left unread, so the caller's
// next consume fails on it.
func (s *scanner) int64() (int64, bool) {
	s.skipSpace()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var v int64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		v = v*10 + int64(s.b[s.i]-'0')
		s.i++
		if s.i-start == 1 && v == 0 {
			break // a leading 0 is the whole integer part
		}
	}
	if n := s.i - start; n == 0 || n > 18 {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// int is int64 for an int field: it declines what int cannot hold.
func (s *scanner) int() (int, bool) {
	v, ok := s.int64()
	return int(v), ok && int64(int(v)) == v
}

func (s *scanner) bool() (bool, bool) {
	s.skipSpace()
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false, true
	}
	return false, false
}

// object scans one object, calling field after each key's colon; field
// scans the value and reports whether it stayed in the shape.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.consume(':') || !field(key) {
			return false
		}
		if s.consume('}') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

// once marks a key's bit in seen and reports whether it was clear: a
// repeated key declines the line.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// scanRequest decodes an estimate request line, or declines it.
func scanRequest(line []byte) (Request, bool) {
	var req Request
	s := scanner{b: line}
	var seen uint8
	ok := s.object(func(key []byte) bool {
		var bit uint8
		var ok bool
		switch string(key) {
		case "v":
			bit = 1
			req.Version, ok = s.int()
		case "id":
			bit = 2
			req.ID, ok = s.int64()
		case "verb":
			bit = 4
			var v []byte
			v, ok = s.str()
			ok = ok && string(v) == VerbEstimate
			req.Verb = VerbEstimate
		case "session":
			bit = 8
			var v []byte
			v, ok = s.str()
			req.Session = string(v)
		case "est":
			bit = 16
			req.Est = new(EstimateParams)
			ok = s.estimateParams(req.Est)
		}
		return ok && once(&seen, bit)
	})
	return req, ok && s.done()
}

func (s *scanner) estimateParams(e *EstimateParams) bool {
	var seen uint8
	return s.object(func(key []byte) bool {
		var bit uint8
		var ok bool
		switch string(key) {
		case "src":
			bit = 1
			e.Src, ok = s.int()
		case "dst":
			bit = 2
			e.Dst, ok = s.int()
		case "bytes":
			bit = 4
			e.Bytes, ok = s.int()
		}
		return ok && once(&seen, bit)
	})
}

// scanResponse decodes an estimate's success response line, or declines it.
func scanResponse(line []byte) (Response, bool) {
	var resp Response
	s := scanner{b: line}
	var seen uint8
	ok := s.object(func(key []byte) bool {
		var bit uint8
		var ok bool
		switch string(key) {
		case "v":
			bit = 1
			resp.Version, ok = s.int()
		case "id":
			bit = 2
			resp.ID, ok = s.int64()
		case "ok":
			bit = 4
			resp.OK, ok = s.bool()
		case "est":
			bit = 8
			resp.Est = new(EstimateResult)
			ok = s.estimateResult(resp.Est)
		}
		return ok && once(&seen, bit)
	})
	return resp, ok && s.done()
}

func (s *scanner) estimateResult(e *EstimateResult) bool {
	var seen uint8
	return s.object(func(key []byte) bool {
		var bit uint8
		var ok bool
		switch string(key) {
		case "cycles":
			bit = 1
			e.Cycles, ok = s.int64()
		case "hops":
			bit = 2
			e.Hops, ok = s.int()
		case "packets":
			bit = 4
			e.Packets, ok = s.int()
		case "saturated":
			bit = 8
			e.Saturated, ok = s.bool()
		}
		return ok && once(&seen, bit)
	})
}

// plain reports whether json.Marshal writes s verbatim: printable ASCII
// with nothing it escapes (quote, backslash, and the HTML-sensitive <, >, &).
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// EncodeRequest renders one request line (without the trailing newline),
// stamped with ProtocolVersion: the client side of EncodeResponse.
func EncodeRequest(r *Request) ([]byte, error) {
	r.Version = ProtocolVersion
	if r.Est == nil || r.Open != nil || len(r.Batch) != 0 || r.Checkpoint != "" ||
		!plain(r.Verb) || !plain(r.Session) {
		return json.Marshal(r)
	}
	b := make([]byte, 0, 96)
	b = append(b, `{"v":`...)
	b = strconv.AppendInt(b, int64(r.Version), 10)
	b = append(b, `,"id":`...)
	b = strconv.AppendInt(b, r.ID, 10)
	b = append(b, `,"verb":"`...)
	b = append(b, r.Verb...)
	if r.Session != "" {
		b = append(b, `","session":"`...)
		b = append(b, r.Session...)
	}
	b = append(b, `","est":{"src":`...)
	b = strconv.AppendInt(b, int64(r.Est.Src), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(r.Est.Dst), 10)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, int64(r.Est.Bytes), 10)
	return append(b, "}}"...), nil
}

// EncodeResponse renders one response line (without the trailing
// newline, which the writer frames), stamped with ProtocolVersion.
func EncodeResponse(r *Response) ([]byte, error) {
	r.Version = ProtocolVersion
	if r.Est == nil || r.Err != nil || r.Session != "" || r.Info != nil ||
		r.Checkpoint != "" || len(r.Batch) != 0 || r.Stats != nil {
		return json.Marshal(r)
	}
	b := make([]byte, 0, 96)
	b = append(b, `{"v":`...)
	b = strconv.AppendInt(b, int64(r.Version), 10)
	b = append(b, `,"id":`...)
	b = strconv.AppendInt(b, r.ID, 10)
	b = append(b, `,"ok":`...)
	b = strconv.AppendBool(b, r.OK)
	b = append(b, `,"est":{"cycles":`...)
	b = strconv.AppendInt(b, r.Est.Cycles, 10)
	b = append(b, `,"hops":`...)
	b = strconv.AppendInt(b, int64(r.Est.Hops), 10)
	b = append(b, `,"packets":`...)
	b = strconv.AppendInt(b, int64(r.Est.Packets), 10)
	if r.Est.Saturated {
		b = append(b, `,"saturated":true`...)
	}
	return append(b, "}}"...), nil
}
