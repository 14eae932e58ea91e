package core

import (
	"testing"

	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// TestBuilderPushZeroAllocSteadyState: once the builder's reservoir has
// overflowed, Push does zero allocations — the reservoir and the coordinate
// arena are pre-sized, and evicted slots are recycled.
func TestBuilderPushZeroAllocSteadyState(t *testing.T) {
	axes := []structure.Axis{structure.BitTrieAxis(10), structure.BitTrieAxis(10)}
	b, err := NewBuilder(axes, Config{Size: 64, Buffer: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := xmath.NewRand(4)
	pt := make([]uint64, 2)
	push := func() {
		pt[0], pt[1] = r.Uint64()%1024, r.Uint64()%1024
		if err := b.Push(pt, 1+10*r.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	// Warm well past the reservoir capacity.
	for b.Pushed() < 16*4*256 {
		push()
	}
	// Average over many reservoir turnovers so evictions are covered by the
	// zero-allocation requirement, not just fast-path rejections.
	if allocs := testing.AllocsPerRun(8*4*256, push); allocs != 0 {
		t.Fatalf("steady-state Builder.Push allocated %v times per call", allocs)
	}
	if _, err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexedEstimateRangeZeroAlloc: serving reads must not allocate — the
// query bitmap is pooled and the answer is a scalar.
func TestIndexedEstimateRangeZeroAlloc(t *testing.T) {
	const n, bits = 4000, 9
	r := xmath.NewRand(8)
	mask := uint64(1)<<bits - 1
	pts := make([][]uint64, n)
	ws := make([]float64, n)
	for i := range pts {
		pts[i] = []uint64{r.Uint64() & mask, r.Uint64() & mask}
		ws[i] = 1 + 20*r.Float64()
	}
	axes := []structure.Axis{structure.BitTrieAxis(bits), structure.BitTrieAxis(bits)}
	ds, err := structure.NewDataset(axes, pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Build(ds, Config{Size: 500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	is, err := sum.Index()
	if err != nil {
		t.Fatal(err)
	}
	boxes := make([]structure.Range, 16)
	for i := range boxes {
		lo0, lo1 := r.Uint64()%(mask/2), r.Uint64()%(mask/2)
		boxes[i] = structure.Range{
			{Lo: lo0, Hi: lo0 + mask/4},
			{Lo: lo1, Hi: lo1 + mask/4},
		}
	}
	var sink float64
	i := 0
	query := func() {
		sink += is.EstimateRange(boxes[i%len(boxes)])
		i++
	}
	for i < 64 { // warm the bitmap pool
		query()
	}
	if allocs := testing.AllocsPerRun(500, query); allocs != 0 {
		t.Fatalf("steady-state EstimateRange allocated %v times per call (sink %v)", allocs, sink)
	}
}
