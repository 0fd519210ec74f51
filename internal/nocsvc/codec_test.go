package nocsvc

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// checkEncodeRequest holds EncodeRequest to json.Marshal on req.
func checkEncodeRequest(t *testing.T, req Request) {
	t.Helper()
	got, err := EncodeRequest(&req)
	want, werr := json.Marshal(req)
	if (err == nil) != (werr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("EncodeRequest(%+v) = %s, %v; json.Marshal gives %s, %v", req, got, err, want, werr)
	}
}

// checkEncodeResponse holds EncodeResponse to json.Marshal on resp.
func checkEncodeResponse(t *testing.T, resp Response) {
	t.Helper()
	got, err := EncodeResponse(&resp)
	want, werr := json.Marshal(resp)
	if (err == nil) != (werr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("EncodeResponse(%+v) = %s, %v; json.Marshal gives %s, %v", resp, got, err, want, werr)
	}
}

// sameResponse compares two DecodeResponse outcomes, errors by text.
func sameResponse(a Response, aErr error, b Response, bErr error) bool {
	if (aErr == nil) != (bErr == nil) || aErr != nil && aErr.Error() != bErr.Error() {
		return false
	}
	return reflect.DeepEqual(a, b)
}

// TestCodecHotShape proves the estimate round trip takes the hand-written
// path: every encoded hot request and response is accepted by its
// scanner, decodes to the value it came from, and equals json.Marshal's
// bytes, across the int range each field can carry.
func TestCodecHotShape(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ints := []int64{0, 1, 9, 10, 63, 4096, MaxTransferBytes, 999999999999999999, -1, -999999999999999999}
	pick := func() int64 {
		if r.Intn(2) == 0 {
			return ints[r.Intn(len(ints))]
		}
		return r.Int63n(1<<40) - 1<<39
	}
	sessions := []string{"", "s1", "s42", "a b~{}[]:,", "x'y"}
	for i := 0; i < 2000; i++ {
		req := Request{ID: pick(), Verb: VerbEstimate, Session: sessions[i%len(sessions)],
			Est: &EstimateParams{Src: int(pick()), Dst: int(pick()), Bytes: int(pick())}}
		checkEncodeRequest(t, req)
		line, _ := EncodeRequest(&req)
		got, ok := scanRequest(line)
		if !ok || !reflect.DeepEqual(got, req) {
			t.Fatalf("scanRequest(%s) = %+v, %v; want %+v", line, got, ok, req)
		}

		resp := Response{ID: pick(), OK: i%3 != 0,
			Est: &EstimateResult{Cycles: pick(), Hops: int(pick()), Packets: int(pick()), Saturated: i%5 == 0}}
		checkEncodeResponse(t, resp)
		line, _ = EncodeResponse(&resp)
		gotResp, ok := scanResponse(line)
		if !ok || !reflect.DeepEqual(gotResp, resp) {
			t.Fatalf("scanResponse(%s) = %+v, %v; want %+v", line, gotResp, ok, resp)
		}
	}
}

// TestCodecDeclines lists one line per way out of the hot shape: the
// scanner must decline each, and DecodeRequest must answer exactly as
// encoding/json does.
func TestCodecDeclines(t *testing.T) {
	for name, line := range map[string]string{
		"escape":         `{"v":1,"id":2,"verb":"estimate","session":"s\u0031","est":{"src":0,"dst":5,"bytes":64}}`,
		"non-ascii":      `{"v":1,"id":2,"verb":"estimate","session":"sé","est":{"src":0,"dst":5,"bytes":64}}`,
		"key case":       `{"v":1,"id":2,"verb":"estimate","Session":"s1","est":{"src":0,"dst":5,"bytes":64}}`,
		"inner key case": `{"v":1,"id":2,"verb":"estimate","session":"s1","est":{"SRC":0,"dst":5,"bytes":64}}`,
		"duplicate key":  `{"v":1,"id":2,"verb":"estimate","session":"s1","est":{"src":0,"dst":5,"bytes":64},"id":3}`,
		"duplicate est":  `{"v":1,"id":2,"verb":"estimate","session":"s1","est":{"src":7},"est":{"dst":5,"bytes":64}}`,
		"exponent":       `{"v":1,"id":2,"verb":"estimate","session":"s1","est":{"src":0,"dst":5,"bytes":6e1}}`,
		"fraction":       `{"v":1,"id":2,"verb":"estimate","session":"s1","est":{"src":0,"dst":5,"bytes":64.0}}`,
		"null":           `{"v":1,"id":2,"verb":"estimate","session":"s1","est":null}`,
		"trailing brace": `{"v":1,"id":2,"verb":"estimate","session":"s1","est":{"src":0,"dst":5,"bytes":64}}}`,
		"trailing data":  `{"v":1,"id":2,"verb":"estimate","session":"s1","est":{"src":0,"dst":5,"bytes":64}} {}`,
		"leading zero":   `{"v":1,"id":02,"verb":"estimate","session":"s1","est":{"src":0,"dst":5,"bytes":64}}`,
		"19 digits":      `{"v":1,"id":9223372036854775807,"verb":"estimate","session":"s1","est":{"src":0,"dst":5,"bytes":64}}`,
		"unknown key":    `{"v":1,"id":2,"verb":"estimate","session":"s1","est":{"src":0,"dst":5,"bytes":64},"x":1}`,
		"other verb":     `{"v":1,"id":2,"verb":"stats","session":"s1"}`,
		"other payload":  `{"v":1,"id":2,"verb":"estimate","session":"s1","batch":[{"src":0,"dst":5,"bytes":64}]}`,
	} {
		if _, ok := scanRequest([]byte(line)); ok {
			t.Errorf("%s: scanner accepted %s", name, line)
		}
		req, perr := DecodeRequest([]byte(line))
		ref, refErr := decodeRequestJSON([]byte(line))
		if !reflect.DeepEqual(req, ref) || !reflect.DeepEqual(perr, refErr) {
			t.Errorf("%s: DecodeRequest %+v, %v; encoding/json %+v, %v", name, req, perr, ref, refErr)
		}
	}
	// Whitespace between tokens and keys in any order stay in the shape.
	line := []byte(" { \"est\" : {\"bytes\":64,\"dst\":5,\"src\":0} ,\t\"session\":\"s1\",\"verb\":\"estimate\",\"id\":2,\"v\":1 }\r\n")
	req, ok := scanRequest(line)
	ref, refErr := decodeRequestJSON(line)
	if !ok || refErr != nil || !reflect.DeepEqual(req, ref) {
		t.Errorf("reordered request: scanner %+v, %v; encoding/json %+v, %v", req, ok, ref, refErr)
	}
	// A string json.Marshal escapes sends EncodeRequest to json.Marshal.
	for _, sess := range []string{"a<b", "a>b", "a&b", `a"b`, `a\b`, "a\tb", "\x7f", "é", "\u2028", "\xff"} {
		checkEncodeRequest(t, Request{ID: 1, Verb: VerbEstimate, Session: sess, Est: &EstimateParams{}})
	}
	// Out-of-shape values still go to json.Marshal, which keeps its errors.
	if _, err := EncodeRequest(&Request{Verb: VerbOpen, Open: &OpenParams{Load: math.NaN()}}); err == nil {
		t.Error("EncodeRequest encoded a NaN load")
	}
}

// FuzzDecodeResponse holds the client side of the codec to
// encoding/json: DecodeResponse must agree with decodeResponseJSON on
// every input (same value, same error text), and EncodeResponse must
// emit json.Marshal's bytes for every response the reference decodes.
func FuzzDecodeResponse(f *testing.F) {
	f.Add([]byte(`{"v":1,"id":7,"ok":true,"est":{"cycles":12,"hops":2,"packets":8}}`))
	f.Add([]byte(`{"v":1,"id":7,"ok":true,"est":{"cycles":65536,"hops":3,"packets":1,"saturated":true}}`))
	f.Add([]byte(`{"v":1,"id":3,"ok":true,"batch":[{"cycles":4,"hops":1,"packets":1}]}`))
	f.Add([]byte(`{"v":1,"id":4,"ok":false,"err":{"code":"no_session","message":"no session \"s9\""}}`))
	f.Add([]byte(`{"v":1,"id":1,"ok":true,"session":"s1","info":{"nodes":16,"routers":4,"vcs":2,"packet_size":1,"flit_bytes":8,"algorithm":"UGAL","warm_cycles":1000}}`))
	f.Add([]byte(`{"v":1,"id":5,"ok":true,"stats":{"server":{"sessions":1,"service_latency":{"count":3,"p50_us":12.5}}}}`))
	f.Add([]byte(`{"v":1,"id":8,"ok":true,"session":"s1","checkpoint":"c1"}`))
	f.Add([]byte(`{"v":1,"id":1,"ok":false}`))
	f.Add([]byte(`{"v":2,"id":1,"ok":true,"est":{"cycles":1,"hops":1,"packets":1}}`))
	f.Add([]byte(`{"V":1,"ID":7,"OK":true,"Est":{"Cycles":12}}`))
	f.Add([]byte(`{"v":1,"id":7,"ok":true,"est":{"cycles":1.5e3,"hops":2,"packets":8},"extra":null}`))
	f.Add([]byte(`{"v":1,"id":7,"ok":true,"est":{"cycles":12,"hops":2,"packets":8}} trailing`))
	f.Fuzz(func(t *testing.T, line []byte) {
		resp, err := DecodeResponse(line)
		ref, refErr := decodeResponseJSON(line)
		if !sameResponse(resp, err, ref, refErr) {
			t.Fatalf("%q: scanner decoded %+v, %v; encoding/json %+v, %v", line, resp, err, ref, refErr)
		}
		checkEncodeResponse(t, ref)
		if err == nil && !resp.OK && resp.Err == nil {
			t.Fatalf("accepted a failure response without its error payload: %q", line)
		}
	})
}
