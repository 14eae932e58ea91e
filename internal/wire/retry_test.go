package wire

import (
	"testing"
	"time"
)

// TestBackoffScheduleAndCap pins the deterministic core of the schedule:
// with jitter pinned to 0 the n-th Next is exactly (Base<<n)/2 capped at
// Max/2, and Reset restarts from Base.
func TestBackoffScheduleAndCap(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Rand: func() float64 { return 0 }}
	want := []time.Duration{
		50 * time.Millisecond,  // 100ms / 2
		100 * time.Millisecond, // 200ms / 2
		200 * time.Millisecond, // 400ms / 2
		400 * time.Millisecond, // 800ms / 2
		500 * time.Millisecond, // capped at 1s / 2
		500 * time.Millisecond, // stays capped
	}
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Fatalf("Next #%d = %v, want %v", i, got, w)
		}
	}
	b.Reset()
	if got := b.Next(); got != 50*time.Millisecond {
		t.Fatalf("Next after Reset = %v, want 50ms", got)
	}
}

// TestBackoffJitterRange checks the jitter window: with the default Rand,
// every wait lands in [d/2, d) — never zero, never above the doubling.
func TestBackoffJitterRange(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second}
	d := 100 * time.Millisecond
	for i := 0; i < 8; i++ {
		got := b.Next()
		if got < d/2 || got >= d {
			t.Fatalf("Next #%d = %v outside [%v, %v)", i, got, d/2, d)
		}
		if d = d * 2; d > time.Second {
			d = time.Second
		}
	}
}

// TestBackoffZeroValue: the zero value must be usable and never return a
// zero wait — that is the hot-loop bug this type exists to prevent.
func TestBackoffZeroValue(t *testing.T) {
	var b Backoff
	for i := 0; i < 10; i++ {
		if got := b.Next(); got <= 0 || got > DefaultBackoffMax {
			t.Fatalf("zero-value Next #%d = %v", i, got)
		}
	}
}

func TestRetryAfter(t *testing.T) {
	fallback := 123 * time.Millisecond
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"1", time.Second},
		{"7", 7 * time.Second},
		{" 2 ", 2 * time.Second},
		// An absurd hint is clamped, not obeyed: the header is a request
		// for breathing room, not a license to park the client forever.
		{"31", RetryAfterMax},
		{"999999999", RetryAfterMax},
		{"99999999999", RetryAfterMax},    // ×1e9 would overflow time.Duration
		{"9999999999999999999", fallback}, // overflows Atoi itself → unusable hint
		// A zero or garbage hint must never produce a zero wait.
		{"0", fallback},
		{"-3", fallback},
		{"soon", fallback},
		{"Wed, 21 Oct 2026 07:28:00 GMT", fallback},
		{"", fallback},
	}
	for _, c := range cases {
		if got := RetryAfter(c.header, fallback); got != c.want {
			t.Errorf("RetryAfter(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}
