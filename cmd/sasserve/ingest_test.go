package main

// Tests for the frame ingest plane: binary frames over HTTP, the sharded
// live builders behind the /keys endpoint, the bounded-queue 429 contract,
// and refusal after shutdown.

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"structaware/internal/cliutil"
	"structaware/internal/core"
	"structaware/internal/structure"
	"structaware/internal/wire"
	"structaware/internal/xmath"
)

// shardedStore builds a store with one live summary "net" over the usual
// 2×10-bit domain, with explicit shard and queue geometry.
func shardedStore(t *testing.T, size int, shards, queue int) *store {
	t.Helper()
	st := newStore(nil, 4096, t.Logf)
	err := st.initLive(
		[]cliutil.Assignment{{Name: "net", Value: liveAxesSpec}},
		liveConfig{size: size, seed: liveTestCfg.Seed, shards: shards, queue: queue},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.closeLive)
	return st
}

// postFrame pushes one batch as a binary frame over HTTP and returns the
// response status (decoding the push response into pr when non-nil).
func postFrame(t *testing.T, url string, coords [][]uint64, weights []float64, pr *pushResponse) int {
	t.Helper()
	frame, err := wire.AppendFrame(nil, coords, weights)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if pr != nil {
		v = pr
	}
	return postJSON(t, url+"/v1/summaries/net/keys", frameContentType, frame, v)
}

// TestIngestFrameHTTP: a binary frame pushed over HTTP lands in the same
// builder state as the JSON body — the published snapshot is bit-identical
// to an offline Builder fed the same stream.
func TestIngestFrameHTTP(t *testing.T) {
	st := liveStore(t, "")
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	coords, weights := genKeys(2500, 51)
	var pr pushResponse
	if code := postFrame(t, srv.URL, coords, weights, &pr); code != http.StatusOK {
		t.Fatalf("frame push status %d", code)
	}
	if pr.Pushed != 2500 || pr.TotalPushed != 2500 {
		t.Fatalf("push response %+v", pr)
	}
	if _, err := st.rotate(st.lives["net"], true); err != nil {
		t.Fatal(err)
	}

	axes, err := structure.ParseAxisSpec(liveAxesSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBuilder(axes, liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PushBatch(coords, weights); err != nil {
		t.Fatal(err)
	}
	want, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := st.get("net")
	full := structure.Range{{Lo: 0, Hi: 1023}, {Lo: 0, Hi: 1023}}
	if math.Float64bits(e.be.EstimateRange(full)) != math.Float64bits(want.EstimateRange(full)) {
		t.Fatalf("frame-fed snapshot %v, offline builder %v", e.be.EstimateRange(full), want.EstimateRange(full))
	}

	// Frame rejection paths ride the same decode-error plumbing as JSON.
	frame, err := wire.AppendFrame(nil, coords, weights)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"corrupt frame":   append([]byte("XXXX"), frame[4:]...),
		"truncated frame": frame[:len(frame)-3],
		"trailing bytes":  append(append([]byte(nil), frame...), 0),
	} {
		if code := postJSON(t, srv.URL+"/v1/summaries/net/keys", frameContentType, body, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, code)
		}
	}
	// Out-of-domain coordinates decode fine but fail admission.
	bad, err := wire.AppendFrame(nil, [][]uint64{{5000}, {1}}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, srv.URL+"/v1/summaries/net/keys", frameContentType, bad, nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-domain frame: status %d, want 400", code)
	}
}

// TestShardedLiveIngest is the correctness contract of the per-core shard
// plane: with N shards fed round-robin, the merged snapshot still
// preserves the stream's total weight exactly (VarOpt invariant through
// the HT merge), range estimates stay within sampling tolerance of truth,
// construction is deterministic (two identical stores produce
// byte-identical summaries), the published bytes equal an offline serial
// reference (so closing the shards concurrently changes nothing), and the
// published summary round-trips SAS2 bit for bit.
func TestShardedLiveIngest(t *testing.T) {
	const shards, size, n, per = 4, 500, 10000, 250
	var seq uint64
	run := func(t *testing.T) *core.Summary {
		st := shardedStore(t, size, shards, 0)
		srv := httptest.NewServer(st.handler())
		defer srv.Close()
		coords, weights := genKeys(n, 71)
		// Sequential frame pushes → deterministic round-robin routing.
		for off := 0; off < n; off += per {
			c := [][]uint64{coords[0][off : off+per], coords[1][off : off+per]}
			if code := postFrame(t, srv.URL, c, weights[off:off+per], nil); code != http.StatusOK {
				t.Fatalf("frame at offset %d: status %d", off, code)
			}
		}
		e, err := st.rotate(st.lives["net"], true)
		if err != nil {
			t.Fatal(err)
		}
		if e.pushed != n {
			t.Fatalf("entry pushed %d, want %d", e.pushed, n)
		}
		seq = e.seq
		s := e.sample()
		if s == nil {
			t.Fatal("merged live snapshot is not a sample backend")
		}
		return s.Summary()
	}
	sum := run(t)

	coords, weights := genKeys(n, 71)
	exact := func(box structure.Range) float64 {
		total := 0.0
		for i := range weights {
			if box[0].Contains(coords[0][i]) && box[1].Contains(coords[1][i]) {
				total += weights[i]
			}
		}
		return total
	}
	full := structure.Range{{Lo: 0, Hi: 1023}, {Lo: 0, Hi: 1023}}
	// The HT merge preserves the exact total weight (up to float rounding):
	// the strongest checkable consequence of unbiasedness.
	if got, want := sum.EstimateTotal(), exact(full); !xmath.AlmostEqual(got, want, 1e-6) {
		t.Fatalf("merged total %v, want exactly ~%v", got, want)
	}
	// Large sub-ranges estimate within sampling tolerance of ground truth
	// (deterministic seeds; the bound has generous slack over the observed
	// error, it exists to catch gross bias, not to certify variance).
	for _, box := range []structure.Range{
		{{Lo: 0, Hi: 511}, {Lo: 0, Hi: 1023}},
		{{Lo: 512, Hi: 1023}, {Lo: 0, Hi: 1023}},
		{{Lo: 0, Hi: 1023}, {Lo: 0, Hi: 511}},
		{{Lo: 256, Hi: 767}, {Lo: 256, Hi: 767}},
	} {
		got, want := sum.EstimateRange(box), exact(box)
		if relerr := math.Abs(got-want) / want; relerr > 0.15 {
			t.Fatalf("box %s: estimate %v vs exact %v (%.1f%% off)", box, got, want, 100*relerr)
		}
	}

	// Determinism: an identical second run reproduces the merged summary
	// byte for byte, and the bytes survive a SAS2 round trip bit-identically.
	again := run(t)
	raw1, err := sum.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := again.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("two identical sharded runs produced different summary bytes")
	}

	// Serial reference: one offline Builder per shard (seeded Seed+i), fed
	// the frames in enqueue's routing order — the routing counter is
	// incremented before use, so frame k lands on shard (k+1) mod shards —
	// snapshotted one after another and merged with the epoch's seed.
	axes, err := structure.ParseAxisSpec(liveAxesSpec)
	if err != nil {
		t.Fatal(err)
	}
	builders := make([]*core.Builder, shards)
	for i := range builders {
		if builders[i], err = core.NewBuilder(axes, core.Config{Size: size, Seed: liveTestCfg.Seed + uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for k, off := 0, 0; off < n; k, off = k+1, off+per {
		c := [][]uint64{coords[0][off : off+per], coords[1][off : off+per]}
		if err := builders[(k+1)%shards].PushBatch(c, weights[off:off+per]); err != nil {
			t.Fatal(err)
		}
	}
	var parts []*core.Summary
	for _, b := range builders {
		snap, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, snap)
	}
	ref, err := core.MergeSummaries(size, liveTestCfg.Seed+seq, parts...)
	if err != nil {
		t.Fatal(err)
	}
	rawRef, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, rawRef) {
		t.Fatal("published sharded snapshot differs from the serial offline reference")
	}
	var rt core.Summary
	if err := rt.UnmarshalBinary(raw1); err != nil {
		t.Fatal(err)
	}
	raw3, err := rt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw3) {
		t.Fatal("merged snapshot does not round-trip SAS2 bit-identically")
	}
}

// TestIngestQueueFull is the backpressure contract: with the queue
// saturated (worker wedged on the builder lock, one slot filled), a
// further HTTP push answers 429 with a Retry-After hint, and the
// accepted batches — and only those — survive into the next snapshot.
func TestIngestQueueFull(t *testing.T) {
	st := shardedStore(t, liveTestCfg.Size, 1, 1)
	srv := httptest.NewServer(st.handler())
	defer srv.Close()
	ls := st.lives["net"]
	sh := ls.shards[0]

	// Wedge the shard: the worker pops the first batch and blocks on the
	// builder lock we hold; the second fills the one queue slot.
	sh.mu.Lock()
	c1, w1 := genKeys(100, 81)
	if code := postFrame(t, srv.URL, c1, w1, nil); code != http.StatusOK {
		t.Fatalf("first push status %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(sh.q) != 0 {
		if time.Now().After(deadline) {
			sh.mu.Unlock()
			t.Fatal("worker never picked up the first batch")
		}
		time.Sleep(time.Millisecond)
	}
	c2, w2 := genKeys(100, 82)
	if code := postFrame(t, srv.URL, c2, w2, nil); code != http.StatusOK {
		t.Fatalf("second push status %d", code)
	}

	frame, err := wire.AppendFrame(nil, c1, w1)
	if err != nil {
		sh.mu.Unlock()
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/summaries/net/keys", frameContentType, bytes.NewReader(frame))
	if err != nil {
		sh.mu.Unlock()
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		sh.mu.Unlock()
		t.Fatalf("saturated push status %d, want 429", resp.StatusCode)
	}
	// The hint must be a parseable positive whole number of seconds —
	// sasbench's client treats zero or garbage as a misbehaving server and
	// falls back to its own floor, so a regression here would silently
	// disable the advertised back-pressure.
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs <= 0 {
		sh.mu.Unlock()
		t.Fatalf("429 Retry-After %q is not a positive integer of seconds", ra)
	}

	// Release the worker: both accepted batches (and nothing else) land.
	sh.mu.Unlock()
	e, err := st.rotate(ls, true)
	if err != nil {
		t.Fatal(err)
	}
	if e.pushed != int64(len(w1)+len(w2)) {
		t.Fatalf("snapshot covers %d keys, want %d", e.pushed, len(w1)+len(w2))
	}
	exact := 0.0
	for _, w := range append(append([]float64(nil), w1...), w2...) {
		exact += w
	}
	if got := e.be.EstimateTotal(); !xmath.AlmostEqual(got, exact, 1e-6) {
		t.Fatalf("post-429 total %v, want ~%v (the rejected batch must not leak in)", got, exact)
	}
}

// TestIngestAfterShutdown: once closeLive has stopped the write plane, a
// frame push is refused with 503 instead of hanging on a closed queue, and
// the final flush covers exactly the keys acknowledged before the stop.
func TestIngestAfterShutdown(t *testing.T) {
	st := liveStore(t, "")
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	coords, weights := genKeys(100, 91)
	if code := postFrame(t, srv.URL, coords, weights, nil); code != http.StatusOK {
		t.Fatalf("pre-shutdown push status %d", code)
	}
	st.closeLive()
	if code := postFrame(t, srv.URL, [][]uint64{{1}, {2}}, []float64{1}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown push status %d, want 503", code)
	}
	e, err := st.rotate(st.lives["net"], false)
	if err != nil {
		t.Fatal(err)
	}
	if e == nil || e.pushed != int64(len(weights)) {
		t.Fatalf("final flush %+v, want %d keys", e, len(weights))
	}
}
