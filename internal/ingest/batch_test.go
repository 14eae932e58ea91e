package ingest

import (
	"testing"

	"structaware/internal/xmath"
)

// batchFixture generates a columnar stream with mixed zero weights.
func batchFixture(n int) (cols [][]uint64, ws []float64) {
	r := xmath.NewRand(21)
	cols = [][]uint64{make([]uint64, n), make([]uint64, n)}
	ws = make([]float64, n)
	for i := 0; i < n; i++ {
		cols[0][i] = r.Uint64() % 1024
		cols[1][i] = r.Uint64() % 1024
		if i%11 != 0 {
			ws[i] = 1 + 30*r.Float64()
		}
	}
	return cols, ws
}

// TestPushBatchMatchesPush: a columnar batch must be byte-equivalent to the
// same keys pushed one at a time — same reservoir, same threshold, same
// retained coordinates (the batch path is a fast path, not a variant).
func TestPushBatchMatchesPush(t *testing.T) {
	const n, capacity = 3000, 64
	cols, ws := batchFixture(n)
	one, err := New(Config{Capacity: capacity, Dims: 2, ThresholdSize: 16}, xmath.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	pt := make([]uint64, 2)
	for i := 0; i < n; i++ {
		pt[0], pt[1] = cols[0][i], cols[1][i]
		if err := one.Push(pt, ws[i]); err != nil {
			t.Fatal(err)
		}
	}
	bat, err := New(Config{Capacity: capacity, Dims: 2, ThresholdSize: 16}, xmath.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	// Split the batch at an arbitrary boundary to exercise batch resumption.
	if err := bat.PushBatch([][]uint64{cols[0][:1234], cols[1][:1234]}, ws[:1234]); err != nil {
		t.Fatal(err)
	}
	if err := bat.PushBatch([][]uint64{cols[0][1234:], cols[1][1234:]}, ws[1234:]); err != nil {
		t.Fatal(err)
	}

	itemsOne, tauOne := one.Guide()
	itemsBat, tauBat := bat.Guide()
	if tauOne != tauBat {
		t.Fatalf("tau0 %v vs %v", tauOne, tauBat)
	}
	to, okO := one.Tau()
	tb, okB := bat.Tau()
	if to != tb || okO != okB {
		t.Fatalf("tau_s %v/%v vs %v/%v", to, okO, tb, okB)
	}
	if len(itemsOne) != len(itemsBat) {
		t.Fatalf("reservoir sizes %d vs %d", len(itemsOne), len(itemsBat))
	}
	for k := range itemsOne {
		if itemsOne[k] != itemsBat[k] {
			t.Fatalf("item %d: %+v vs %+v", k, itemsOne[k], itemsBat[k])
		}
		a, okA := one.Point(itemsOne[k].Index)
		b, okB := bat.Point(itemsBat[k].Index)
		if !okA || !okB || a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("item %d coordinates: %v(%v) vs %v(%v)", k, a, okA, b, okB)
		}
	}
}

// TestPushWeightsMatchesPush: the weight-only batch must match scalar pushes.
func TestPushWeightsMatchesPush(t *testing.T) {
	const n, capacity = 3000, 64
	_, ws := batchFixture(n)
	one, err := New(Config{Capacity: capacity, ThresholdSize: 16}, xmath.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if err := one.Push(nil, w); err != nil {
			t.Fatal(err)
		}
	}
	bat, err := New(Config{Capacity: capacity, ThresholdSize: 16}, xmath.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := bat.PushWeights(ws); err != nil {
		t.Fatal(err)
	}
	itemsOne, tauOne := one.Guide()
	itemsBat, tauBat := bat.Guide()
	if tauOne != tauBat || len(itemsOne) != len(itemsBat) {
		t.Fatalf("tau0 %v/%v sizes %d/%d", tauOne, tauBat, len(itemsOne), len(itemsBat))
	}
	for k := range itemsOne {
		if itemsOne[k] != itemsBat[k] {
			t.Fatalf("item %d: %+v vs %+v", k, itemsOne[k], itemsBat[k])
		}
	}
}

func TestPushWeightsRejectsCoordinateTracking(t *testing.T) {
	g, err := New(Config{Capacity: 4, Dims: 1}, xmath.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.PushWeights([]float64{1}); err == nil {
		t.Fatal("PushWeights on a coordinate-tracking ingester must error")
	}
}

func TestBatchErrors(t *testing.T) {
	g, err := New(Config{Capacity: 4, Dims: 2}, xmath.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.PushBatch([][]uint64{{1}}, []float64{1}); err == nil {
		t.Fatal("wrong column count must error")
	}
	if err := g.PushBatch([][]uint64{{1}, {2, 3}}, []float64{1}); err == nil {
		t.Fatal("ragged columns must error")
	}
	g.Guide()
	if err := g.PushBatch([][]uint64{{1}, {2}}, []float64{1}); err != ErrFinalized {
		t.Fatalf("batch after Guide: %v want ErrFinalized", err)
	}
	if err := g.PushWeights(nil); err != ErrFinalized {
		t.Fatalf("weights after Guide: %v want ErrFinalized", err)
	}
}

// TestIngesterPushZeroAllocSteadyState: the coordinate-tracking per-key path
// (slot arena + reservoir + free list) must be allocation-free once warm.
func TestIngesterPushZeroAllocSteadyState(t *testing.T) {
	const capacity = 128
	g, err := New(Config{Capacity: capacity, Dims: 2}, xmath.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	r := xmath.NewRand(3)
	pt := make([]uint64, 2)
	idx := 0
	push := func() {
		pt[0], pt[1] = r.Uint64()%512, r.Uint64()%512
		if err := g.Push(pt, 1+10*r.Float64()); err != nil {
			t.Fatal(err)
		}
		idx++
	}
	// Warm well past overflow so every buffer reaches its steady-state
	// capacity.
	for idx < 12*4*capacity {
		push()
	}
	// Average over many reservoir turnovers: evictions that recycle slots
	// must also be allocation-free, not just the fast-path rejections.
	if allocs := testing.AllocsPerRun(8*4*capacity, push); allocs != 0 {
		t.Fatalf("steady-state Push allocated %v times per call", allocs)
	}
}
