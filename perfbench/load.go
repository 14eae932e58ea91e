package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"structaware/internal/loadgen"
	"structaware/internal/wire"
	"structaware/internal/xmath"
)

const (
	keysPath     = "/v1/summaries/" + summaryName + "/keys"
	snapPath     = "/v1/summaries/" + summaryName + "/snapshot"
	estimatePath = "/v1/summaries/" + summaryName + "/estimate"
	metaPath     = "/v1/summaries/" + summaryName

	// snapEveryFrames is the closed-loop ingest's publish cadence: a forced
	// snapshot after every 64 frames (256 Ki keys) acknowledged.
	snapEveryFrames = 64
	// mixedKeysPerSec is mixed's offered ingest rate, about a third of the
	// 3.2M keys/s that closed-loop ingest sustained on a 2-vCPU box at the
	// commit that introduced the benchmark. At half that rate the writes
	// and the query loop saturate both vCPUs, and mixed's query and ack
	// figures spread by 20-60% between runs. It is a constant so that it
	// does not follow the code under test.
	mixedKeysPerSec = 1_000_000
	// mixedSnapEvery is mixed's publish schedule.
	mixedSnapEvery = time.Second

	// The query mix: half single-range GETs from a uniform-area pool four
	// times the server's 4096-answer cache, half from a Zipf-hot pool that
	// fits in it, and a fixed share of batched multi-range POSTs.
	uniformPool = 16384
	hotPool     = 1024
	zipfSkew    = 1.1
	batchShare  = 0.1
	batchRanges = 16
	batchBodies = 256
	areaMaxFrac = 0.5
)

// ops counts client operations: every request sent, those refused with
// 429, and those that failed outright.
type ops struct{ attempted, refused, failed int64 }

func (o *ops) add(p ops) {
	o.attempted += p.attempted
	o.refused += p.refused
	o.failed += p.failed
}

// ack is one acknowledged frame: when the ack arrived, its latency (from
// when the frame was due), its admission time (from when it was sent), and
// the acknowledged key count including this frame.
type ack struct {
	at       time.Time
	lat, adm time.Duration
	cum      int64
}

// snap is one forced snapshot: sent and answered, and the keys it covers.
type snap struct {
	sent, done time.Time
	pushed     int64
}

func (s snap) lat() time.Duration { return s.done.Sub(s.sent) }

// writeLog is what an ingest phase observed.
type writeLog struct {
	first   time.Time // first frame sent
	lastAck time.Time
	acks    []ack
	snaps   []snap // scheduled or threshold snapshots
	final   snap   // the snapshot after the last ack
	keys    int64
	counts  []int64 // acknowledgements per pool frame
	late    []time.Duration
	hits    int64 // answer-cache hits and misses, traced open loop only
	misses  int64
	ops
}

// freshness returns, for each acknowledged frame, the time from its ack
// until the client first saw a published snapshot whose pushed count
// covers it.
func (w *writeLog) freshness() []timed {
	all := w.published()
	var out []timed
	for _, a := range w.acks {
		for _, s := range all {
			if s.done.After(a.at) && s.pushed >= a.cum {
				out = append(out, timed{a.at, s.done.Sub(a.at)})
				break
			}
		}
	}
	return out
}

// published returns every snapshot of the phase in completion order.
func (w *writeLog) published() []snap {
	all := append(append([]snap(nil), w.snaps...), w.final)
	slices.SortFunc(all, func(a, b snap) int { return a.done.Compare(b.done) })
	return all
}

// publishRates returns, for each pair of consecutive publishes, the keys
// the later one made queryable per second since the earlier one.
func (w *writeLog) publishRates() []float64 {
	all := w.published()
	var out []float64
	for i := 1; i < len(all); i++ {
		if dt := all[i].done.Sub(all[i-1].done); dt > 0 {
			out = append(out, float64(all[i].pushed-all[i-1].pushed)/dt.Seconds())
		}
	}
	return out
}

// ackLats returns each frame's latency from when it was due.
func (w *writeLog) ackLats() []timed {
	out := make([]timed, len(w.acks))
	for i, a := range w.acks {
		out[i] = timed{a.at, a.lat}
	}
	return out
}

// admissions returns each frame's time from send to ack.
func (w *writeLog) admissions() []time.Duration {
	out := make([]time.Duration, len(w.acks))
	for i, a := range w.acks {
		out[i] = a.adm
	}
	return out
}

// keysIn returns the keys acknowledged in [from, to).
func (w *writeLog) keysIn(from, to time.Time) int64 {
	n := int64(0)
	for _, a := range w.acks {
		if !a.at.Before(from) && a.at.Before(to) {
			n += frameKeys
		}
	}
	return n
}

func (w *writeLog) snapLats() []time.Duration {
	out := make([]time.Duration, len(w.snaps))
	for i, s := range w.snaps {
		out[i] = s.lat()
	}
	return out
}

// readLog is what a query phase observed.
type readLog struct {
	lats []timed
	ops
}

// postFrame pushes pool frame f, honoring 429 + Retry-After, and returns
// when the frame was admitted.
func postFrame(c *client, f *frame, o *ops) error {
	sp := c.tr.begin("client.keys", ref{})
	defer func() { c.tr.end(sp, frameKeys) }()
	bo := wire.Backoff{Base: time.Second, Max: 5 * time.Second}
	for {
		o.attempted++
		st, body, retry, err := c.doHdr("POST", keysPath, wire.ContentType, f.body)
		if err != nil {
			o.failed++
			return fmt.Errorf("POST keys: %w", err)
		}
		switch st {
		case http.StatusOK:
			return nil
		case http.StatusTooManyRequests:
			o.refused++
			time.Sleep(wire.RetryAfter(retry, bo.Next()))
		default:
			o.failed++
			return fmt.Errorf("POST keys: status %d: %s", st, strings.TrimSpace(string(body)))
		}
	}
}

// forceSnapshot publishes a snapshot and returns the keys it covers.
func forceSnapshot(c *client, o *ops) (snap, error) {
	sp := c.tr.begin("client.snapshot", ref{})
	s := snap{sent: time.Now()}
	o.attempted++
	st, body, err := c.do("POST", snapPath, "", nil)
	s.done = time.Now()
	c.tr.end(sp, 1)
	if err != nil || st != http.StatusOK {
		o.failed++
		return s, fmt.Errorf("POST snapshot: status %d: %v %s", st, err, strings.TrimSpace(string(body)))
	}
	var resp struct {
		Pushed int64 `json:"pushed"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		o.failed++
		return s, fmt.Errorf("POST snapshot: %w", err)
	}
	s.pushed = resp.Pushed
	return s, nil
}

// closedIngest drives two connections that each post the next pool frame
// as soon as the previous one is acknowledged, from frame index from, until
// the deadline passes or frames frames have been sent (frames > 0). Every
// snapEvery acknowledged frames (0 = never), the goroutine that crossed
// the threshold forces a snapshot while the other keeps posting. With
// final, a snapshot after the last ack publishes every key. base is the
// number of keys the server accepted before this phase.
func closedIngest(ctx context.Context, cs [2]*client, pool *keyPool, from, frames int, deadline time.Time, snapEvery int, final bool, base int64) (*writeLog, error) {
	w := &writeLog{counts: make([]int64, len(pool.frames)), first: time.Now()}
	var next, acked atomic.Int64
	var nextSnap atomic.Int64
	next.Store(int64(from))
	acked.Store(base)
	nextSnap.Store(base + int64(snapEvery)*frameKeys)
	stop := int64(from + frames)
	type part struct {
		acks   []ack
		snaps  []snap
		counts []int64
		ops
	}
	parts := [2]part{}
	errs := [2]error{}
	var wg sync.WaitGroup
	for g := range cs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := &parts[g]
			p.counts = make([]int64, len(pool.frames))
			c := cs[g]
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if (frames > 0 && i >= stop) || (frames == 0 && time.Now().After(deadline)) {
					return
				}
				f := int(i % int64(len(pool.frames)))
				t0 := time.Now()
				if err := postFrame(c, &pool.frames[f], &p.ops); err != nil {
					errs[g] = err
					return
				}
				now := time.Now()
				cum := acked.Add(frameKeys)
				p.acks = append(p.acks, ack{at: now, lat: now.Sub(t0), adm: now.Sub(t0), cum: cum})
				p.counts[f]++
				if th := nextSnap.Load(); snapEvery > 0 && cum >= th && nextSnap.CompareAndSwap(th, th+int64(snapEvery)*frameKeys) {
					s, err := forceSnapshot(c, &p.ops)
					if err != nil {
						errs[g] = err
						return
					}
					p.snaps = append(p.snaps, s)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range parts {
		if errs[g] != nil {
			return nil, errs[g]
		}
		p := &parts[g]
		w.acks = append(w.acks, p.acks...)
		w.snaps = append(w.snaps, p.snaps...)
		for i, c := range p.counts {
			w.counts[i] += c
		}
		w.ops.add(p.ops)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, a := range w.acks {
		if a.at.After(w.lastAck) {
			w.lastAck = a.at
		}
	}
	w.keys = acked.Load() - base
	if final {
		var err error
		if w.final, err = forceSnapshot(cs[0], &w.ops); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// queryMix is the read traffic: request paths and bodies drawn from the
// seed before the run.
type queryMix struct {
	uniform []string // GET paths
	hot     []string
	zipf    *loadgen.Zipf
	batches [][]byte // POST bodies
	// texts of both pools, for the in-process replay
	uniformTexts, hotTexts []string
	batchTexts             [][]string
}

func newQueryMix(seed uint64) *queryMix {
	doms := []uint64{keyDomain, keyDomain}
	m := &queryMix{zipf: loadgen.NewZipf(hotPool, zipfSkew)}
	m.uniformTexts = loadgen.RangeTexts(loadgen.AreaBoxes(doms, uniformPool, areaMaxFrac, seed^0xa11a))
	m.hotTexts = loadgen.RangeTexts(loadgen.AreaBoxes(doms, hotPool, areaMaxFrac, seed^0x407))
	for _, t := range m.uniformTexts {
		m.uniform = append(m.uniform, estimatePath+"?range="+t)
	}
	for _, t := range m.hotTexts {
		m.hot = append(m.hot, estimatePath+"?range="+t)
	}
	r := xmath.NewRand(seed ^ 0xba7c)
	for i := 0; i < batchBodies; i++ {
		texts := make([]string, batchRanges)
		for j := range texts {
			texts[j] = m.uniformTexts[r.Intn(uniformPool)]
		}
		body, _ := json.Marshal(map[string][]string{"ranges": texts}) // a []string always encodes
		m.batches = append(m.batches, body)
		m.batchTexts = append(m.batchTexts, texts)
	}
	return m
}

// query kinds drawn by pick.
const (
	qUniform = iota
	qHot
	qBatch
)

// pick draws the next request: its kind and index in that kind's pool.
func (m *queryMix) pick(r *xmath.SplitMix) (kind, idx int) {
	u := r.Float64()
	switch {
	case u < batchShare:
		return qBatch, r.Intn(len(m.batches))
	case u < batchShare+(1-batchShare)/2:
		return qUniform, r.Intn(len(m.uniform))
	default:
		return qHot, m.zipf.Pick(r.Float64())
	}
}

// send sends one estimate request and checks that it was answered.
func (m *queryMix) send(c *client, r *xmath.SplitMix, o *ops) error {
	kind, i := m.pick(r)
	o.attempted++
	var st int
	var body []byte
	var err error
	if kind == qBatch {
		sp := c.tr.begin("client.estimate_batch", ref{})
		st, body, err = c.do("POST", estimatePath, "application/json", m.batches[i])
		c.tr.end(sp, batchRanges)
	} else {
		path := m.uniform[i]
		if kind == qHot {
			path = m.hot[i]
		}
		sp := c.tr.begin("client.estimate", ref{})
		st, body, err = c.do("GET", path, "", nil)
		c.tr.end(sp, 1)
	}
	if err != nil {
		o.failed++
		return fmt.Errorf("estimate: %w", err)
	}
	if st != http.StatusOK || !strings.Contains(string(body), `"estimates":[`) {
		o.failed++
		return fmt.Errorf("estimate: status %d: %s", st, strings.TrimSpace(string(body)))
	}
	return nil
}

// closedQuery runs the query mix on the given connections, each sending its
// next request when the previous one is answered, until the deadline.
func closedQuery(ctx context.Context, cs []*client, m *queryMix, seed uint64, deadline time.Time) (*readLog, error) {
	l := &readLog{}
	lats := make([][]timed, len(cs))
	parts := make([]ops, len(cs))
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for g := range cs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := xmath.NewRand(seed + uint64(g))
			for ctx.Err() == nil && time.Now().Before(deadline) {
				t0 := time.Now()
				if err := m.send(cs[g], r, &parts[g]); err != nil {
					errs[g] = err
					return
				}
				now := time.Now()
				lats[g] = append(lats[g], timed{now, now.Sub(t0)})
			}
		}(g)
	}
	wg.Wait()
	for g := range cs {
		if errs[g] != nil {
			return nil, errs[g]
		}
		l.lats = append(l.lats, lats[g]...)
		l.ops.add(parts[g])
	}
	return l, ctx.Err()
}

// openIngest posts frames on one connection on a fixed schedule — frame k
// is due at start + k/rate — with a forced snapshot due every
// mixedSnapEvery, until the deadline. Ack latency is timed from when each
// frame was due, so a stall also charges the frames queued behind it; how
// late each send started is recorded too. A final snapshot after the
// deadline publishes every key. base is the number of keys the server
// accepted before this phase.
func openIngest(ctx context.Context, c *client, pool *keyPool, start, deadline time.Time, base int64) (*writeLog, error) {
	w := &writeLog{counts: make([]int64, len(pool.frames)), first: start}
	period := time.Duration(float64(time.Second) * frameKeys / mixedKeysPerSec)
	var k, j int64 // frames and snapshots sent
	for ctx.Err() == nil {
		frameDue := start.Add(time.Duration(k) * period)
		snapDue := start.Add(time.Duration(j+1) * mixedSnapEvery)
		due := frameDue
		isSnap := snapDue.Before(frameDue)
		if isSnap {
			due = snapDue
		}
		if !due.Before(deadline) {
			break
		}
		sleepUntil(due)
		w.late = append(w.late, max(time.Since(due), 0))
		if isSnap {
			if c.tr != nil {
				// Each publish empties the answer cache and its counters, so
				// a traced run reads them just before the publish.
				h, m, err := cacheStats(c)
				if err != nil {
					return nil, err
				}
				w.hits, w.misses = w.hits+h, w.misses+m
			}
			s, err := forceSnapshot(c, &w.ops)
			if err != nil {
				return nil, err
			}
			w.snaps = append(w.snaps, s)
			j++
			continue
		}
		f := int(k % int64(len(pool.frames)))
		sent := time.Now()
		if err := postFrame(c, &pool.frames[f], &w.ops); err != nil {
			return nil, err
		}
		now := time.Now()
		w.keys += frameKeys
		w.acks = append(w.acks, ack{at: now, lat: now.Sub(due), adm: now.Sub(sent), cum: base + w.keys})
		w.lastAck = now
		w.counts[f]++
		k++
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var err error
	if w.final, err = forceSnapshot(c, &w.ops); err != nil {
		return nil, err
	}
	return w, nil
}

// sleepUntil returns at t. A runtime timer can fire up to a millisecond
// late on Linux, which would count the generator's own lateness as
// latency, so the wait is a nanosleep, which blocks only its thread.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
