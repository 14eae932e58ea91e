package wire

// retry.go is the client-side resilience half of frame ingest: a capped
// exponential backoff with jitter, and a Retry-After parser that can never
// be talked into a hot loop. Retries belong in the client, not the
// protocol: the server's only job is to answer or refuse (429) quickly, and
// every policy knob (base, cap) stays with the caller who knows what the
// stream is worth.

import (
	"math/rand/v2"
	"strconv"
	"strings"
	"time"
)

// Backoff defaults; see Backoff.
const (
	DefaultBackoffBase = 100 * time.Millisecond
	DefaultBackoffMax  = 5 * time.Second

	// RetryAfterMax caps how long a Retry-After hint can make a client
	// wait. A hint is the server asking for breathing room, not an
	// instruction the client owes unbounded obedience — without a ceiling
	// a misbehaving server could park a client for years with one header.
	RetryAfterMax = 30 * time.Second
)

// Backoff produces capped exponentially growing waits with equal jitter:
// the n-th Next is drawn uniformly from [d/2, d) where d = Base<<n capped
// at Max. The jitter keeps a fleet of clients that failed together from
// retrying together (and failing together again); the d/2 floor keeps the
// wait meaningful — a jittered backoff that can return ~0 is a hot loop
// with extra steps. The zero value is ready to use with the defaults
// above.
type Backoff struct {
	Base time.Duration // first wait before jitter (default DefaultBackoffBase)
	Max  time.Duration // growth cap before jitter (default DefaultBackoffMax)
	// Rand returns a uniform sample in [0, 1); nil uses math/rand/v2.
	// Tests pin it to make waits deterministic.
	Rand func() float64

	attempts int
}

// Next returns the wait before the next retry and advances the schedule.
func (b *Backoff) Next() time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if max <= 0 {
		max = DefaultBackoffMax
	}
	d := base
	// Grow by doubling, saturating at the cap (a shift could overflow
	// time.Duration long before attempts gets large).
	for i := 0; i < b.attempts && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	b.attempts++
	r := b.Rand
	if r == nil {
		r = rand.Float64
	}
	return d/2 + time.Duration(r()*float64(d/2))
}

// Reset restarts the schedule after a success, so the next failure backs
// off from Base again.
func (b *Backoff) Reset() { b.attempts = 0 }

// RetryAfter converts a Retry-After header into a wait: a positive whole
// number of seconds is honored up to RetryAfterMax, and anything else —
// zero, negatives, HTTP-dates, garbage, an absent header — yields
// fallback. Callers pass their backoff's Next as the fallback, so a
// server that sends no usable hint gets the client's own growing
// schedule, and a misbehaving one can never advertise its way into a hot
// retry loop (zero hint) or an unbounded stall (absurd hint).
func RetryAfter(h string, fallback time.Duration) time.Duration {
	if s, err := strconv.Atoi(strings.TrimSpace(h)); err == nil && s > 0 {
		// Clamp before multiplying: a 19-digit hint would overflow the
		// duration math into a negative wait.
		if s >= int(RetryAfterMax/time.Second) {
			return RetryAfterMax
		}
		return time.Duration(s) * time.Second
	}
	return fallback
}
