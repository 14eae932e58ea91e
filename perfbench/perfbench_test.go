package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"structaware/internal/wire"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct{ n, want, bp int }{
		{0, 9900, 0},
		{10, 9900, 0},     // the median of 10 has only 5 above it
		{20, 9900, 5000},  // exactly 10 above the median
		{100, 9900, 9000}, // p90 of 100 leaves 10
		{999, 9900, 9000}, // p99 of 999 is rank 990: 9 above
		{1000, 9900, 9900},
		{1000, 9990, 9900}, // p99.9 of 1000 leaves 1
		{10000, 9990, 9990},
		{10000, 9900, 9900}, // never above the percentile asked for
	} {
		if got := tailBP(tc.n, tc.want); got != tc.bp {
			t.Errorf("tailBP(%d, %d) = %d, want %d", tc.n, tc.want, got, tc.bp)
		}
		if tc.bp != 0 && tc.n-rankOf(tc.n, tc.bp) < minBeyond {
			t.Errorf("n=%d bp=%d leaves %d samples beyond", tc.n, tc.bp, tc.n-rankOf(tc.n, tc.bp))
		}
	}
	xs := make([]time.Duration, 1000)
	for i := range xs {
		xs[i] = time.Duration(1000 - i) // 1..1000, unsorted
	}
	d := newDist(xs)
	if got, label := d.tail(9900); got != 990 || label != "p99 of 1000" {
		t.Errorf("tail = %v %q, want 990 \"p99 of 1000\"", got, label)
	}
	if got := d.median(); got != 500 {
		t.Errorf("median = %v, want 500", got)
	}
}

func TestBlockTailIsMedianOfBlockP99(t *testing.T) {
	t0 := time.Now()
	var xs []timed
	// Blocks whose p99s are 1..minBlocks, plus one disturbed block whose
	// p99 is huge: the disturbed block does not move the median much.
	p99s := []time.Duration{1000}
	for i := 1; i <= minBlocks; i++ {
		p99s = append(p99s, time.Duration(i))
	}
	for b, p99 := range p99s {
		for i := 0; i < tailBlock; i++ {
			d := time.Duration(0)
			if i >= tailBlock-11 {
				d = p99
			}
			xs = append(xs, timed{t0.Add(time.Duration(b*tailBlock + i)), d})
		}
	}
	if got, _ := blockTail(xs); got != 6 {
		t.Errorf("blockTail = %v, want the median block p99 6", got)
	}
	// Below minBlocks blocks the samples are pooled.
	if got, label := blockTail(xs[:tailBlock]); got != 1000 || label != "p99 of 1000, pooled" {
		t.Errorf("blockTail of one block = %v %q, want 1000 \"p99 of 1000, pooled\"", got, label)
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name may contain spaces and parentheses.
	stat := "4242 (sas serve) (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 75 0 0 20 0 9 0 123 456 789"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 325 * clockTick; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Error("short stat line parsed without error")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tsasserve\nVmPeak:\t  900000 kB\nVmHWM:\t   56552 kB\nVmRSS:\t   40000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(56552) << 10; got != want {
		t.Errorf("VmHWM = %d, want %d", got, want)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM parsed without error")
	}
}

func TestExactBoxSumsMatchBruteForce(t *testing.T) {
	p, err := newKeyPool(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int64{2, 0, 1}
	total, boxes := p.exact(counts)
	wantTotal := 0.0
	wantBoxes := make([]float64, len(p.boxes))
	var batch wire.Batch
	for i, c := range counts {
		if err := (wire.Decoder{Dims: 2}).Decode(p.frames[i].body, &batch); err != nil {
			t.Fatal(err)
		}
		for k, w := range batch.Weights {
			wantTotal += float64(c) * w
			for b, box := range p.boxes {
				if box.Contains([]uint64{batch.Coords[0][k], batch.Coords[1][k]}) {
					wantBoxes[b] += float64(c) * w
				}
			}
		}
	}
	if math.Abs(total-wantTotal) > 1e-9*wantTotal {
		t.Errorf("total %v, brute force %v", total, wantTotal)
	}
	for b := range boxes {
		if wantBoxes[b] <= 0 {
			t.Fatalf("box %v holds no weight", p.boxes[b])
		}
		if math.Abs(boxes[b]-wantBoxes[b]) > 1e-9*wantBoxes[b] {
			t.Errorf("box %v: %v, brute force %v", p.boxes[b], boxes[b], wantBoxes[b])
		}
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	var frames, pushed atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case keysPath:
			if frames.Add(1) == 1 {
				time.Sleep(stall) // the first frame stalls the ones behind it
			}
			pushed.Add(frameKeys)
			fmt.Fprint(w, `{}`)
		case snapPath:
			json.NewEncoder(w).Encode(map[string]int64{"pushed": pushed.Load()})
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	p, err := newKeyPool(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(srv.URL, nil)
	defer c.close()
	start := time.Now()
	w, err := openIngest(context.Background(), c, p, start, start.Add(100*time.Millisecond), 0)
	if err != nil {
		t.Fatal(err)
	}
	period := time.Duration(float64(time.Second) * frameKeys / mixedKeysPerSec)
	if len(w.acks) < 10 {
		t.Fatalf("%d frames acknowledged, want at least 10", len(w.acks))
	}
	// Frame 1 was due one period after the start but could only be sent
	// once frame 0's stalled response arrived.
	a := w.acks[1]
	if a.lat < stall-period {
		t.Errorf("frame 1 latency %v is not timed from its due time (stall %v)", a.lat, stall)
	}
	if a.adm >= stall/2 {
		t.Errorf("frame 1 admission %v should exclude the wait behind frame 0", a.adm)
	}
	if w.late[1] < stall-period-5*time.Millisecond {
		t.Errorf("generator lateness %v for frame 1, want about %v", w.late[1], stall-period)
	}
	if w.final.pushed != w.keys {
		t.Errorf("final snapshot covers %d keys, %d acknowledged", w.final.pushed, w.keys)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{id: 1, name: "root", start: 0, end: 100},
		{id: 2, parent: 1, name: "a", start: 10, end: 40},
		{id: 3, parent: 1, name: "b", start: 30, end: 60}, // overlaps a by 10
		{id: 4, parent: 2, name: "c", start: 15, end: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int32]time.Duration{1: 50, 2: 25, 3: 30, 4: 5} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
}

func TestMidMeanDropsOuterQuarters(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{1, 2, 3}, 2},
		{[]float64{100, 1, 2, 3, 4, 5, 6, -50}, 3.5}, // drops -50, 1 and 6, 100
	} {
		if got := midMean(tc.xs); got != tc.want {
			t.Errorf("midMean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
