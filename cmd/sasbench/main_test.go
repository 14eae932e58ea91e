package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"structaware/internal/cliutil"
)

// TestIngestHTTPHonorsRetryAfter pins the client half of the back-pressure
// contract: a 429 with Retry-After makes the client sleep the advertised
// (positive) time and resend the same frame, never spinning — and a 429
// with an adversarial hint falls back to the jittered backoff, whose
// first wait is at least one second (wire.Backoff's d/2 jitter floor on
// the 2s base).
func TestIngestHTTPHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0") // adversarial zero hint
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"pushed":10}`))
	}))
	defer srv.Close()

	var slept []time.Duration
	sleepFn = func(d time.Duration) { slept = append(slept, d) }
	defer func() { sleepFn = time.Sleep }()

	gen := newKeyGen(1, 2, 8, 10)
	if err := runIngestHTTP(srv.URL, "flows", 10, gen); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d posts, want 3 (2 rejected + 1 accepted)", got)
	}
	if len(slept) != 2 {
		t.Fatalf("client slept %d times, want 2", len(slept))
	}
	for _, d := range slept {
		if d < time.Second {
			t.Fatalf("backoff %v below the 1s floor — hot loop", d)
		}
	}
}

// TestIngestRequiresBaseURL: -ingest speaks HTTP only, so a bare
// host:port (or unix:/path) is a usage error — exit 2, naming the flag —
// not a runtime dial failure. Likewise -ingest-bits outside [1, 63]: at 64
// the key domain 1<<bits wraps to 0 and the generator divides by zero.
func TestIngestRequiresBaseURL(t *testing.T) {
	const url = "http://127.0.0.1:8337"
	for _, tc := range []struct {
		addr string
		bits int
		flag string
	}{
		{"127.0.0.1:8337", 12, "-ingest "},
		{"unix:ingest.sock", 12, "-ingest "},
		{"localhost", 12, "-ingest "},
		{"ftp://h:1", 12, "-ingest "},
		{url, 0, "-ingest-bits"},
		{url, 64, "-ingest-bits"},
		{url, 70, "-ingest-bits"},
	} {
		var stderr strings.Builder
		code := -1
		tool := &cliutil.Tool{Name: "sasbench", Stderr: &stderr, Exit: func(c int) { code = c }}
		tool.CheckUsage(checkIngest(tc.addr, tc.bits))
		if code != 2 || !strings.Contains(stderr.String(), tc.flag) {
			t.Errorf("-ingest %q -ingest-bits %d: exit %d, stderr %q; want exit 2 naming %s",
				tc.addr, tc.bits, code, stderr.String(), tc.flag)
		}
	}
	for _, tc := range []struct {
		addr string
		bits int
	}{{url, 12}, {"https://example.test/", 12}, {url, 1}, {url, 63}} {
		if err := checkIngest(tc.addr, tc.bits); err != nil {
			t.Errorf("-ingest %q -ingest-bits %d rejected: %v", tc.addr, tc.bits, err)
		}
	}
}
