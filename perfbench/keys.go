package main

import (
	"math"

	"structaware/internal/loadgen"
	"structaware/internal/structure"
	"structaware/internal/wire"
	"structaware/internal/xmath"
)

// The key stream is sasbench -ingest's: uniform coordinates over a 2-D
// 16-bit domain with heavy-tailed weights w = (1-u)^-0.6, in 4096-key
// frames. The client cycles through a pool of distinct frames generated
// from the seed before the run, so generating keys costs the client no CPU
// while it measures the server.
const (
	keyBits    = 16
	keyDomain  = 1 << keyBits
	frameKeys  = 4096
	poolFrames = 256 // 1 Mi distinct keys, 25 MB of encoded frames

	// Exact sums are kept per cell of a gridSide × gridSide grid; the
	// verification boxes are aligned to cells so that their exact sums
	// follow from the cell totals.
	gridSide   = 256
	cellShift  = keyBits - 8
	checkBoxes = 1024
)

// frame is one pre-generated ingest frame.
type frame struct {
	body   []byte    // application/x-sas-frame encoding
	weight float64   // sum of the keys' weights
	boxSum []float64 // exact weight inside each check box
}

// keyPool is a workload's generated input: the frames and the boxes the
// served estimates are checked against.
type keyPool struct {
	frames []frame
	boxes  []structure.Range
	texts  []string
}

func newKeyPool(seed uint64, frames int) (*keyPool, error) {
	r := xmath.NewRand(seed)
	p := &keyPool{frames: make([]frame, frames)}
	p.boxes = checkBoxSet(seed^0x5eed_b0c5, checkBoxes)
	p.texts = loadgen.RangeTexts(p.boxes)
	grid := make([]float64, gridSide*gridSide)
	cols := [][]uint64{make([]uint64, frameKeys), make([]uint64, frameKeys)}
	ws := make([]float64, frameKeys)
	for i := range p.frames {
		f := &p.frames[i]
		clear(grid)
		for k := range ws {
			for d := range cols {
				cols[d][k] = r.Uint64() % keyDomain
			}
			w := math.Pow(1-r.Float64(), -0.6)
			ws[k] = w
			f.weight += w
			grid[(cols[0][k]>>cellShift)*gridSide+(cols[1][k]>>cellShift)] += w
		}
		var err error
		if f.body, err = wire.AppendFrame(nil, cols, ws); err != nil {
			return nil, err
		}
		f.boxSum = boxSums(grid, p.boxes)
	}
	return p, nil
}

// checkBoxSet draws n cell-aligned boxes spanning 1/32 to 1/8 of each
// axis. Their exact sums are far from zero, so each estimate's relative
// error is well defined, and they are small enough that their errors are
// nearly independent: the mean over n of them barely moves with the seed,
// where boxes of 1/8 to 1/2 of each axis share most of their error and
// their mean moves by a fifth.
func checkBoxSet(seed uint64, n int) []structure.Range {
	r := xmath.NewRand(seed)
	boxes := make([]structure.Range, n)
	for i := range boxes {
		box := make(structure.Range, 2)
		for d := range box {
			ext := uint64(gridSide/32 + r.Intn(gridSide/8-gridSide/32+1))
			lo := uint64(r.Intn(int(gridSide - ext + 1)))
			box[d] = structure.Interval{Lo: lo << cellShift, Hi: (lo+ext)<<cellShift - 1}
		}
		boxes[i] = box
	}
	return boxes
}

// boxSums returns the total of grid's cells inside each cell-aligned box,
// by inclusion-exclusion over the grid's 2-D prefix sums.
func boxSums(grid []float64, boxes []structure.Range) []float64 {
	const w = gridSide + 1
	pre := make([]float64, w*w) // pre[x*w+y] sums cells [0,x) × [0,y)
	for x := 1; x <= gridSide; x++ {
		row := 0.0
		for y := 1; y <= gridSide; y++ {
			row += grid[(x-1)*gridSide+y-1]
			pre[x*w+y] = pre[(x-1)*w+y] + row
		}
	}
	out := make([]float64, len(boxes))
	for i, b := range boxes {
		x0, x1 := b[0].Lo>>cellShift, b[0].Hi>>cellShift+1
		y0, y1 := b[1].Lo>>cellShift, b[1].Hi>>cellShift+1
		out[i] = pre[x1*w+y1] - pre[x0*w+y1] - pre[x1*w+y0] + pre[x0*w+y0]
	}
	return out
}

// exact returns the exact total and per-box weights of a stream in which
// pool frame i was acknowledged counts[i] times.
func (p *keyPool) exact(counts []int64) (total float64, boxes []float64) {
	boxes = make([]float64, len(p.boxes))
	var t xmath.KahanSum
	for i, c := range counts {
		if c == 0 {
			continue
		}
		f := &p.frames[i]
		t.Add(float64(c) * f.weight)
		for b, s := range f.boxSum {
			boxes[b] += float64(c) * s
		}
	}
	return t.Sum(), boxes
}
