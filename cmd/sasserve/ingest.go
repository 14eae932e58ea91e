package main

// ingest.go is the decode half of the HTTP write path: POST
// /v1/summaries/{name}/keys accepts one batch per request as binary
// columnar frames (Content-Type application/x-sas-frame, the wire-speed
// path), columnar JSON (the default), or NDJSON rows, normalizes all three
// into a wire.Batch, validates it completely, and hands it to the shard
// queues in live.go. Validation runs before enqueue on every path, so a
// 4xx always means nothing was ingested and an accepted batch can never
// fail inside a shard worker. Decode buffers (bodies and batches) are
// pooled: steady-state ingest does not allocate per request beyond what
// encoding/json itself needs, and the frame path not even that.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"sync"

	"structaware/internal/fault"
	"structaware/internal/ipps"
	"structaware/internal/structure"
	"structaware/internal/wire"
)

// maxIngestBody bounds the POST /keys body. NDJSON runs ~40 bytes per 2-D
// key and frames 24, so one request carries on the order of 100k keys;
// heavier traffic is split across requests.
const maxIngestBody = 8 << 20

// maxKeysPerPush bounds the rows of one ingest batch, mirroring
// maxRangesPerRequest on the query side: each row costs queue space and a
// reservoir update, so an unbounded batch would let one request monopolize
// a shard.
const maxKeysPerPush = 1 << 17

// frameContentType selects the binary columnar frame body (internal/wire).
const frameContentType = wire.ContentType

// ingestBatch is one decoded batch on its way to a shard queue. Pooled
// batches recycle themselves once their worker has pushed them; the pooled
// flag lets tests (and any other owner of a stack batch) enqueue a batch
// the worker must not recycle.
type ingestBatch struct {
	wire.Batch
	pooled bool
}

var batchPool = sync.Pool{New: func() any { return &ingestBatch{pooled: true} }}

func getBatch() *ingestBatch { return batchPool.Get().(*ingestBatch) }

// release returns a pooled batch (with its column capacity) to the pool.
func (b *ingestBatch) release() {
	if b.pooled {
		batchPool.Put(b)
	}
}

// bodyPool recycles full-request-body buffers across POST /keys requests.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

// withLive resolves {name} to a live summary. Pushing into a file-backed
// summary is a conflict (it exists, but is read-only), not a 404.
func (st *store) withLive(h func(http.ResponseWriter, *http.Request, *liveSummary)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		ls := st.live(name)
		if ls == nil {
			if _, ok := st.get(name); ok {
				writeError(w, http.StatusConflict,
					"summary %q is file-backed and read-only (declare it with -live to ingest)", name)
				return
			}
			writeError(w, http.StatusNotFound, "no live summary named %q", name)
			return
		}
		h(w, r, ls)
	}
}

// handlePushKeys ingests one batch of weighted keys into the live summary.
// The batch is atomic: every coordinate and weight is validated before it
// reaches a shard queue, so a 4xx means nothing was ingested. A full queue
// is 429 with a Retry-After hint — the server sheds load explicitly rather
// than buffering without bound.
func (st *store) handlePushKeys(w http.ResponseWriter, r *http.Request, ls *liveSummary) {
	batch, ok := decodePushBody(w, r, len(ls.axes))
	if !ok {
		return
	}
	rows := batch.Rows()
	if err := validateBatch(ls.axes, &batch.Batch); err != nil {
		batch.release()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := ls.enqueue(batch); err != nil {
		batch.release()
		if err == errIngestQueueFull {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests,
				"live summary %q ingest queue is full; retry shortly", ls.name)
			return
		}
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, pushResponse{
		Summary: ls.name, Pushed: rows, TotalPushed: ls.accepted.Load(), Snapshot: ls.snapSeq(),
	})
	// Torture crashpoint: the ack is written but any background WAL fsync
	// (-wal-sync=interval) has not necessarily run — the widest window a
	// kill -9 gets to disprove the durability contract.
	fault.Point(faultPostAck)
}

// validateBatch is the single admission check every body encoding (HTTP
// frame, JSON, and NDJSON) runs before a batch may enter a shard queue:
// shape, row cap, axis domains, weight validity. Frame decoding already
// guarantees rectangularity; the JSON paths get it checked here.
func validateBatch(axes []structure.Axis, b *wire.Batch) error {
	rows := len(b.Weights)
	if rows == 0 {
		return fmt.Errorf("at least one key is required")
	}
	if rows > maxKeysPerPush {
		return fmt.Errorf("%d keys exceed the per-request limit of %d", rows, maxKeysPerPush)
	}
	if len(b.Coords) != len(axes) {
		return fmt.Errorf("coords has %d columns, want %d (one per axis)", len(b.Coords), len(axes))
	}
	for d := range b.Coords {
		if len(b.Coords[d]) != rows {
			return fmt.Errorf("coords[%d] has %d rows for %d weights", d, len(b.Coords[d]), rows)
		}
		dom := axes[d].DomainSize()
		for i, x := range b.Coords[d] {
			if x >= dom {
				return fmt.Errorf("key %d: coordinate %d out of domain on axis %d", i, x, d)
			}
		}
	}
	for i, wt := range b.Weights {
		if err := ipps.ValidateWeight(wt); err != nil {
			return fmt.Errorf("key %d: %v", i, err)
		}
	}
	return nil
}

// pushRequest is the columnar JSON ingest body: coords[d][i] is key i's
// coordinate on axis d and weights[i] its weight — Builder.PushBatch over
// the wire. Coordinates decode into uint64 directly (no float64 round
// trip), so the full 64-bit domain survives.
type pushRequest struct {
	Coords  [][]uint64 `json:"coords"`
	Weights []float64  `json:"weights"`
}

// pushKey is one NDJSON ingest row: {"point":[x,y],"weight":w}.
type pushKey struct {
	Point  []uint64 `json:"point"`
	Weight float64  `json:"weight"`
}

type pushResponse struct {
	Summary string `json:"summary"`
	// Pushed counts this request's keys; TotalPushed every key accepted
	// since this process started.
	Pushed      int   `json:"pushed"`
	TotalPushed int64 `json:"total_pushed"`
	// Snapshot is the sequence number of the last published snapshot; keys
	// become queryable when a later snapshot publishes.
	Snapshot uint64 `json:"snapshot"`
}

// readBody reads the capped request body into a pooled buffer. The caller
// must return the buffer via putBody once decoding is done.
func readBody(w http.ResponseWriter, r *http.Request) (*[]byte, error) {
	bp := bodyPool.Get().(*[]byte)
	buf := (*bp)[:0]
	rd := http.MaxBytesReader(w, r.Body, maxIngestBody)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			*bp = buf
			return bp, nil
		}
		if err != nil {
			*bp = buf
			bodyPool.Put(bp)
			return nil, err
		}
	}
}

func putBody(bp *[]byte) { bodyPool.Put(bp) }

// decodePushBody decodes the ingest body by Content-Type — binary frame,
// NDJSON rows, or columnar JSON (the default) — into a pooled batch.
// Responses for malformed input are written here; on ok the caller owns
// the batch and must enqueue or release it.
func decodePushBody(w http.ResponseWriter, r *http.Request, dims int) (*ingestBatch, bool) {
	ctype, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	what := ctype
	if what == "" {
		what, ctype = "JSON", "application/json"
	}
	bp, err := readBody(w, r)
	if err != nil {
		writeDecodeError(w, what, err)
		return nil, false
	}
	defer putBody(bp)
	body := *bp
	batch := getBatch()
	switch {
	case ctype == frameContentType:
		err = decodeFrameBody(body, dims, batch)
	case strings.HasSuffix(ctype, "ndjson"):
		err = decodeNDJSONBody(body, batch)
	default:
		err = decodeColumnarBody(body, batch)
	}
	if err != nil {
		batch.release()
		writeDecodeError(w, what, err)
		return nil, false
	}
	return batch, true
}

// decodeFrameBody decodes the body as exactly one binary frame for the
// summary's axis count; the decoder enforces the row cap from the header,
// before any allocation.
func decodeFrameBody(body []byte, dims int, batch *ingestBatch) error {
	dec := wire.Decoder{Dims: dims, MaxRows: maxKeysPerPush}
	return dec.Decode(body, &batch.Batch)
}

// decodeNDJSONBody decodes {"point":[...],"weight":w} rows into columns,
// reusing the batch's capacity across requests. The column count is set by
// the first row; later rows must match it.
func decodeNDJSONBody(body []byte, batch *ingestBatch) error {
	cols := batch.Coords[:0]
	weights := batch.Weights[:0]
	var point []uint64
	dims := -1
	dec := json.NewDecoder(bytes.NewReader(body))
	n := 0
	for dec.More() {
		// Reset Point to length zero but keep its capacity; a row that omits
		// "point" then decodes to zero coordinates and fails the dims check
		// instead of silently reusing the previous row's coordinates.
		row := pushKey{Point: point[:0]}
		if err := dec.Decode(&row); err != nil {
			return err
		}
		point = row.Point
		if dims == -1 {
			// Re-expose recycled column headers (keeping their capacity)
			// before growing, then truncate each to empty.
			dims = len(row.Point)
			for cap(cols) < dims {
				cols = append(cols, nil)
			}
			cols = cols[:dims]
			for d := range cols {
				cols[d] = cols[d][:0]
			}
		}
		if len(row.Point) != dims {
			return fmt.Errorf("key %d has %d coordinates, want %d", n, len(row.Point), dims)
		}
		if n >= maxKeysPerPush {
			return fmt.Errorf("more than %d keys in one request", maxKeysPerPush)
		}
		for d := range cols {
			cols[d] = append(cols[d], row.Point[d])
		}
		weights = append(weights, row.Weight)
		n++
	}
	batch.Coords, batch.Weights = cols, weights
	return nil
}

// decodeColumnarBody decodes the default columnar JSON body, steering
// encoding/json into the batch's existing column capacity.
func decodeColumnarBody(body []byte, batch *ingestBatch) error {
	req := pushRequest{Coords: batch.Coords, Weights: batch.Weights}
	for d := range req.Coords {
		req.Coords[d] = req.Coords[d][:0]
	}
	req.Coords = req.Coords[:0]
	req.Weights = req.Weights[:0]
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	batch.Coords, batch.Weights = req.Coords, req.Weights
	return nil
}
