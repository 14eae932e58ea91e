package main

// Ingest-plane benchmarks: the same 2^18-key stream pushed as HTTP frame
// bodies (with and without a write-ahead log) and as HTTP JSON bodies, all
// reported in keys/s so they compare directly with the root
// BenchmarkBuilderPushBatch ceiling (the in-process PushBatch rate the
// transports are trying to approach), plus BenchmarkRotate, the cost of
// publishing one snapshot of that stream. Run with
//
//	go test -run '^$' -bench '^BenchmarkIngest' ./cmd/sasserve
//	go test -run '^$' -bench '^BenchmarkRotate$' -cpu 1,2 ./cmd/sasserve
//
// They price single stages in isolation; the end-to-end ingest rate, with
// the real binary and its publish latency, is perfbench's ingest workload.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"structaware/internal/cliutil"
	"structaware/internal/structure"
	"structaware/internal/wal"
	"structaware/internal/wire"
	"structaware/internal/xmath"
)

const (
	benchKeys     = 1 << 18
	benchPerFrame = 4096
)

var (
	ingOnce    sync.Once
	ingCoords  [][]uint64
	ingWeights []float64
)

// ingestFixture is a 2^18-key heavy-tailed stream over the root benchmark's
// 2×10-bit domain.
func ingestFixture(b *testing.B) ([][]uint64, []float64) {
	b.Helper()
	ingOnce.Do(func() {
		r := xmath.NewRand(77)
		ingCoords = [][]uint64{make([]uint64, benchKeys), make([]uint64, benchKeys)}
		ingWeights = make([]float64, benchKeys)
		for i := 0; i < benchKeys; i++ {
			ingCoords[0][i], ingCoords[1][i] = r.Uint64()%1024, r.Uint64()%1024
			ingWeights[i] = math.Pow(1-r.Float64(), -0.6)
		}
	})
	return ingCoords, ingWeights
}

// benchLiveStore builds a live store of the given shard count with the root
// benchmark's summary size, with queue depth comfortably above the frames in
// flight so the HTTP benchmarks measure throughput, not 429 shedding. A
// non-empty dir is the snapshot directory, where pol decides whether a WAL
// is kept.
func benchLiveStore(b *testing.B, shards int, dir string, pol wal.Policy) *store {
	b.Helper()
	st := newStore(nil, 4096, func(string, ...any) {})
	err := st.initLive(
		[]cliutil.Assignment{{Name: "net", Value: "bittrie:10,bittrie:10"}},
		liveConfig{size: 4096, seed: 1, shards: shards, queue: 4096, dir: dir, walSync: pol},
	)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(st.closeWALs)
	b.Cleanup(st.closeLive)
	return st
}

// frameSlices cuts the fixture into per-frame column windows.
func frameSlices(coords [][]uint64, weights []float64) ([][][]uint64, [][]float64) {
	var cs [][][]uint64
	var ws [][]float64
	for off := 0; off < len(weights); off += benchPerFrame {
		end := off + benchPerFrame
		cs = append(cs, [][]uint64{coords[0][off:end], coords[1][off:end]})
		ws = append(ws, weights[off:end])
	}
	return cs, ws
}

// frameBodies encodes the fixture as one binary frame per window.
func frameBodies(b *testing.B) [][]byte {
	b.Helper()
	cs, ws := frameSlices(ingestFixture(b))
	var bodies [][]byte
	for f := range ws {
		frame, err := wire.AppendFrame(nil, cs[f], ws[f])
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, frame)
	}
	return bodies
}

// benchIngestHTTP posts one pre-encoded body per frame window through the
// live /keys endpoint, resending a frame the server sheds with 429 after its
// Retry-After hint. Each iteration ends by quiescing the live summary inside
// the timed region, so keys/s counts keys through the builder, not just
// admissions.
func benchIngestHTTP(b *testing.B, st *store, ctype string, bodies [][]byte) {
	srv := httptest.NewServer(st.handler())
	b.Cleanup(srv.Close)
	url := srv.URL + "/v1/summaries/net/keys"
	client := srv.Client()
	ls := st.live("net")
	var bo wire.Backoff
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			for {
				resp, err := client.Post(url, ctype, bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				_, _ = jsonDiscard(resp)
				if resp.StatusCode == http.StatusTooManyRequests {
					time.Sleep(wire.RetryAfter(resp.Header.Get("Retry-After"), bo.Next()))
					continue
				}
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("push status %d", resp.StatusCode)
				}
				bo.Reset()
				break
			}
		}
		ls.quiesce()
	}
	b.ReportMetric(float64(benchKeys)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// jsonDiscard drains and closes a response body (keep-alive reuse).
func jsonDiscard(resp *http.Response) (int64, error) {
	defer resp.Body.Close()
	var buf [512]byte
	n := int64(0)
	for {
		m, err := resp.Body.Read(buf[:])
		n += int64(m)
		if err != nil {
			return n, nil
		}
	}
}

// BenchmarkIngestHTTPFrame is the binary ingest path: the fixture as one
// frame per HTTP POST.
func BenchmarkIngestHTTPFrame(b *testing.B) {
	benchIngestHTTP(b, benchLiveStore(b, 1, "", wal.PolicyOff), frameContentType, frameBodies(b))
}

// BenchmarkIngestHTTPJSON is the pre-existing ingest path and the baseline
// the binary paths are measured against: the same stream as columnar JSON
// bodies.
func BenchmarkIngestHTTPJSON(b *testing.B) {
	coords, weights := ingestFixture(b)
	cs, ws := frameSlices(coords, weights)
	var bodies [][]byte
	for f := range ws {
		body, err := json.Marshal(pushRequest{Coords: cs[f], Weights: ws[f]})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	benchIngestHTTP(b, benchLiveStore(b, 1, "", wal.PolicyOff), "application/json", bodies)
}

// BenchmarkIngestDecodeJSON isolates the server-side JSON decode +
// admission check into a pooled batch — the allocation trend of the JSON
// ingest path (run with -benchmem; the pooled buffers keep steady-state
// allocations to what encoding/json itself needs).
func BenchmarkIngestDecodeJSON(b *testing.B) {
	coords, weights := ingestFixture(b)
	cs, ws := frameSlices(coords, weights)
	axes := []structure.Axis{structure.BitTrieAxis(10), structure.BitTrieAxis(10)}
	var bodies [][]byte
	for f := range ws {
		body, err := json.Marshal(pushRequest{Coords: cs[f], Weights: ws[f]})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			batch := getBatch()
			if err := decodeColumnarBody(body, batch); err != nil {
				b.Fatal(err)
			}
			if err := validateBatch(axes, &batch.Batch); err != nil {
				b.Fatal(err)
			}
			batch.release()
		}
	}
	b.ReportMetric(float64(benchKeys)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkIngestDecodeFrame is the frame-path counterpart of
// BenchmarkIngestDecodeJSON: decode + admission of the identical stream
// from binary frames (zero steady-state allocations — the contract pinned
// by the wire package's AllocsPerRun test).
func BenchmarkIngestDecodeFrame(b *testing.B) {
	bodies := frameBodies(b)
	axes := []structure.Axis{structure.BitTrieAxis(10), structure.BitTrieAxis(10)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			batch := getBatch()
			if err := decodeFrameBody(body, 2, batch); err != nil {
				b.Fatal(err)
			}
			if err := validateBatch(axes, &batch.Batch); err != nil {
				b.Fatal(err)
			}
			batch.release()
		}
	}
	b.ReportMetric(float64(benchKeys)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkIngestWAL prices the durability contract on the frame path:
// the BenchmarkIngestHTTPFrame stream against a store whose write-ahead log
// is off (snapshot-only durability — the baseline the 2× bound is measured
// from), interval (write(2) before every ack, background fsync), and
// always (fsync before every ack). No rotation happens inside the timed
// region, so the differences isolate the per-append WAL cost.
func BenchmarkIngestWAL(b *testing.B) {
	bodies := frameBodies(b)
	for _, pol := range []wal.Policy{wal.PolicyOff, wal.PolicyInterval, wal.PolicyAlways} {
		b.Run(pol.String(), func(b *testing.B) {
			st := benchLiveStore(b, 1, b.TempDir(), pol)
			b.SetBytes(int64(wire.FrameSize(2, benchPerFrame) * len(bodies)))
			benchIngestHTTP(b, st, frameContentType, bodies)
		})
	}
}

// BenchmarkRotate times one forced rotation of a 2-shard live summary whose
// reservoirs are full (the fixture's 2^17 keys per shard overflow the
// default 5×size buffer): the barrier, the two shard closes, the merge and
// the index compile; there is no snapshot directory, so nothing is
// persisted. Run it at -cpu 1,2: at GOMAXPROCS 1 the shard closes run one
// after another, at 2 they run concurrently.
func BenchmarkRotate(b *testing.B) {
	st := benchLiveStore(b, 2, "", wal.PolicyOff)
	ls := st.live("net")
	cs, ws := frameSlices(ingestFixture(b))
	for f := range ws {
		if err := ls.enqueue(&ingestBatch{Batch: wire.Batch{Coords: cs[f], Weights: ws[f]}}); err != nil {
			b.Fatal(err)
		}
	}
	ls.quiesce()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.rotate(ls, true); err != nil {
			b.Fatal(err)
		}
	}
}
