package nocsvc

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestDecodeRequestValid(t *testing.T) {
	lines := map[string]string{
		"open":  `{"v":1,"id":1,"verb":"open_session","open":{"topology":"flatfly","k":4,"n":2}}`,
		"openw": `{"v":1,"id":6,"verb":"open_session","open":{"topology":"flatfly","k":4,"n":2,"workers":4}}`,
		"est":   `{"v":1,"id":2,"verb":"estimate","session":"s1","est":{"src":0,"dst":5,"bytes":64}}`,
		"batch": `{"v":1,"id":3,"verb":"batch_estimate","session":"s1","batch":[{"src":0,"dst":1,"bytes":8},{"src":2,"dst":3,"bytes":0}]}`,
		"close": `{"v":1,"id":4,"verb":"close_session","session":"s1"}`,
		"stats": `{"v":1,"id":5,"verb":"stats"}`,
	}
	for name, line := range lines {
		req, perr := DecodeRequest([]byte(line))
		if perr != nil {
			t.Errorf("%s: unexpected error: %v", name, perr)
			continue
		}
		if req.ID == 0 {
			t.Errorf("%s: lost the request id", name)
		}
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	cases := []struct {
		name, line, code string
	}{
		{"empty", ``, CodeBadRequest},
		{"not json", `hello world`, CodeBadRequest},
		{"truncated", `{"v":1,"id":9,"verb":"stat`, CodeBadRequest},
		{"unknown field", `{"v":1,"id":1,"verb":"stats","bogus":true}`, CodeBadRequest},
		{"trailing data", `{"v":1,"id":1,"verb":"stats"} {"x":1}`, CodeBadRequest},
		{"bad version", `{"v":2,"id":1,"verb":"stats"}`, CodeBadVersion},
		{"missing version", `{"id":1,"verb":"stats"}`, CodeBadVersion},
		{"negative id", `{"v":1,"id":-4,"verb":"stats"}`, CodeBadRequest},
		{"missing verb", `{"v":1,"id":1}`, CodeBadRequest},
		{"unknown verb", `{"v":1,"id":1,"verb":"frobnicate"}`, CodeUnknownVerb},
		{"open without params", `{"v":1,"id":1,"verb":"open_session"}`, CodeBadRequest},
		{"open foreign params", `{"v":1,"id":1,"verb":"open_session","open":{"topology":"flatfly","k":4,"n":2},"session":"s1"}`, CodeBadRequest},
		{"open bad topology", `{"v":1,"id":1,"verb":"open_session","open":{"topology":"mesh","k":4,"n":2}}`, CodeBadRequest},
		{"open k out of range", `{"v":1,"id":1,"verb":"open_session","open":{"topology":"flatfly","k":5000,"n":2}}`, CodeBadRequest},
		{"open n out of range", `{"v":1,"id":1,"verb":"open_session","open":{"topology":"flatfly","k":4,"n":0}}`, CodeBadRequest},
		{"open load out of range", `{"v":1,"id":1,"verb":"open_session","open":{"topology":"flatfly","k":4,"n":2,"load":1.5}}`, CodeBadRequest},
		{"open workers over range", `{"v":1,"id":1,"verb":"open_session","open":{"topology":"flatfly","k":4,"n":2,"workers":257}}`, CodeBadRequest},
		{"open workers negative", `{"v":1,"id":1,"verb":"open_session","open":{"topology":"flatfly","k":4,"n":2,"workers":-1}}`, CodeBadRequest},
		{"est without session", `{"v":1,"id":1,"verb":"estimate","est":{"src":0,"dst":1,"bytes":8}}`, CodeBadRequest},
		{"est without params", `{"v":1,"id":1,"verb":"estimate","session":"s1"}`, CodeBadRequest},
		{"est negative src", `{"v":1,"id":1,"verb":"estimate","session":"s1","est":{"src":-1,"dst":1,"bytes":8}}`, CodeBadRequest},
		{"est negative bytes", `{"v":1,"id":1,"verb":"estimate","session":"s1","est":{"src":0,"dst":1,"bytes":-8}}`, CodeBadRequest},
		{"est foreign params", `{"v":1,"id":1,"verb":"estimate","session":"s1","est":{"src":0,"dst":1,"bytes":8},"batch":[{"src":0,"dst":1,"bytes":8}]}`, CodeBadRequest},
		{"batch empty", `{"v":1,"id":1,"verb":"batch_estimate","session":"s1","batch":[]}`, CodeBadRequest},
		{"batch bad item", `{"v":1,"id":1,"verb":"batch_estimate","session":"s1","batch":[{"src":0,"dst":-2,"bytes":8}]}`, CodeBadRequest},
		{"close without session", `{"v":1,"id":1,"verb":"close_session"}`, CodeBadRequest},
		{"stats foreign params", `{"v":1,"id":1,"verb":"stats","est":{"src":0,"dst":1,"bytes":8}}`, CodeBadRequest},
	}
	for _, tc := range cases {
		_, perr := DecodeRequest([]byte(tc.line))
		if perr == nil {
			t.Errorf("%s: decoded without error", tc.name)
			continue
		}
		if perr.Code != tc.code {
			t.Errorf("%s: code %q, want %q (%s)", tc.name, perr.Code, tc.code, perr.Message)
		}
	}
}

func TestDecodeRequestRecoversID(t *testing.T) {
	// Malformed payloads should still surface the id so the server can
	// correlate the error response.
	req, perr := DecodeRequest([]byte(`{"v":1,"id":77,"verb":"stats","bogus":1}`))
	if perr == nil {
		t.Fatal("want an error for the unknown field")
	}
	if req.ID != 77 {
		t.Fatalf("recovered id %d, want 77", req.ID)
	}
}

func TestDecodeRequestOversizedBatch(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"v":1,"id":1,"verb":"batch_estimate","session":"s1","batch":[`)
	for i := 0; i <= MaxBatch; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"src":0,"dst":1,"bytes":8}`)
	}
	sb.WriteString(`]}`)
	_, perr := DecodeRequest([]byte(sb.String()))
	if perr == nil || perr.Code != CodeBadRequest {
		t.Fatalf("oversized batch: got %v, want %s", perr, CodeBadRequest)
	}
}

func TestEncodeDecodeResponseRoundTrip(t *testing.T) {
	in := &Response{
		ID: 9, OK: true, Session: "s3",
		Est: &EstimateResult{Cycles: 12, Hops: 2, Packets: 3},
	}
	b, err := EncodeResponse(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 9 || !out.OK || out.Session != "s3" || out.Est == nil || out.Est.Cycles != 12 {
		t.Fatalf("round trip lost data: %+v", out)
	}
	if _, err := DecodeResponse([]byte(`{"v":1,"id":1,"ok":false}`)); err == nil {
		t.Fatal("failure response without err payload should not decode")
	}
}

// FuzzDecodeRequest proves the strict decoder never panics and always
// answers hostile input with a structured error: malformed JSON,
// unknown verbs, out-of-range coordinates, deeply nested and oversized
// payloads alike.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"v":1,"id":1,"verb":"open_session","open":{"topology":"flatfly","k":4,"n":2}}`))
	f.Add([]byte(`{"v":1,"id":2,"verb":"estimate","session":"s1","est":{"src":0,"dst":5,"bytes":64}}`))
	f.Add([]byte(`{"v":1,"id":3,"verb":"batch_estimate","session":"s1","batch":[{"src":0,"dst":1,"bytes":8}]}`))
	f.Add([]byte(`{"v":1,"id":4,"verb":"close_session","session":"s1"}`))
	f.Add([]byte(`{"v":1,"id":5,"verb":"stats"}`))
	f.Add([]byte(`{"v":9,"verb":"??","est":{"src":-1}}`))
	f.Add([]byte(`{"v":1,"id":-1,"verb":"estimate","session":"","est":{"src":1e18,"dst":-5,"bytes":999999999999}}`))
	f.Add([]byte(`[[[[[[[[{"a":1}]]]]]]]]`))
	f.Add([]byte("\x00\xff\xfe garbage"))
	f.Add([]byte(strings.Repeat(`{"v":1,`, 512)))
	f.Add([]byte(`{"v":1,"id":6,"verb":"open_session","open":{"topology":"flatfly","k":4,"n":2,"workers":257}}`))
	f.Add([]byte(`{"v":1,"id":7,"verb":"open_session","open":{"topology":"flatfly","k":4,"n":2,"workers":-1}}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		req, perr := DecodeRequest(line)
		if perr == nil {
			// Accepted input must be well-formed enough to execute: a known
			// verb, a supported version, and a re-encodable structure.
			switch req.Verb {
			case VerbOpen, VerbEstimate, VerbBatch, VerbClose, VerbStats:
			default:
				t.Fatalf("accepted unknown verb %q", req.Verb)
			}
			if req.Version != ProtocolVersion {
				t.Fatalf("accepted version %d", req.Version)
			}
			if _, err := json.Marshal(req); err != nil {
				t.Fatalf("accepted request does not re-encode: %v", err)
			}
			return
		}
		if perr.Code == "" || perr.Message == "" {
			t.Fatalf("unstructured error for %q: %+v", line, perr)
		}
	})
}
