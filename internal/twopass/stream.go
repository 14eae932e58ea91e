package twopass

import (
	"fmt"

	"structaware/internal/ingest"
	"structaware/internal/ipps"
	"structaware/internal/kd"
	"structaware/internal/paggr"
	"structaware/internal/structure"
	"structaware/internal/varopt"
	"structaware/internal/xmath"
)

// Item is a sampled key with its original weight.
type Item struct {
	Point  []uint64
	Weight float64
}

// StreamResult is the output of the fully out-of-core construction.
type StreamResult struct {
	Items     []Item
	Tau       float64
	GuideSize int
	Cells     int
}

// AdjustedWeight returns the HT adjusted weight for one of the items.
func (sr *StreamResult) AdjustedWeight(it Item) float64 {
	return ipps.AdjustedWeight(it.Weight, sr.Tau)
}

// Size returns the number of sampled items.
func (sr *StreamResult) Size() int { return len(sr.Items) }

// ProductStream is the fully streaming version of Product: the data is read
// from src exactly twice (Reset between passes) and working memory is
// O(oversample·s) regardless of the stream length. axes describe the key
// domain (needed for the guide kd-tree's coordinate space).
func ProductStream(src Source, axes []structure.Axis, s int, cfg Config, r xmath.Rand) (*StreamResult, error) {
	if s <= 0 {
		return nil, ipps.ErrBadSize
	}
	if len(axes) == 0 {
		return nil, fmt.Errorf("twopass: no axes")
	}
	sPrime := cfg.oversample() * s

	// ---- Pass 1: guide reservoir (with retained coordinates) + τ_s,
	// through the shared ingestion pipeline. The ingester frees an evicted
	// key's coordinate slot at once, so memory stays O(s′).
	ing, err := ingest.New(ingest.Config{Capacity: sPrime, Dims: len(axes), ThresholdSize: s}, r)
	if err != nil {
		return nil, err
	}
	if cs, ok := src.(ColumnSource); ok {
		// Columnar fast path: batch the whole pass through the ingester
		// without materializing a point per key.
		for {
			cols, ws, err := cs.NextColumns()
			if err != nil {
				return nil, err
			}
			if ws == nil {
				break
			}
			if err := ing.PushBatch(cols, ws); err != nil {
				return nil, err
			}
		}
	} else {
		for {
			pt, w, ok, err := src.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if err := ing.Push(pt, w); err != nil {
				return nil, err
			}
		}
	}
	guideItems, _ := ing.Guide()
	tau, _ := ing.Tau()

	if tau <= 0 {
		// Fewer than s positive keys: re-read and keep everything.
		if err := src.Reset(); err != nil {
			return nil, err
		}
		res := &StreamResult{Tau: 0, GuideSize: len(guideItems)}
		for {
			pt, w, ok, err := src.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if w > 0 {
				res.Items = append(res.Items, Item{Point: append([]uint64(nil), pt...), Weight: w})
			}
		}
		if len(res.Items) == 0 {
			return nil, varopt.ErrEmpty
		}
		return res, nil
	}

	// Build the guide kd-tree over the small-weight guide keys.
	var guidePts [][]uint64
	var guideP []float64
	for _, it := range guideItems {
		if it.Weight >= tau {
			continue
		}
		pt, ok := ing.Point(it.Index)
		if !ok {
			return nil, fmt.Errorf("twopass: internal: lost coordinates for guide key %d", it.Index)
		}
		guidePts = append(guidePts, pt)
		guideP = append(guideP, it.Weight/tau)
	}
	var tree *kd.Tree
	cells := 1
	if len(guidePts) > 1 {
		guideDS := &structure.Dataset{Axes: axes, Coords: columns(guidePts, len(axes))}
		guideDS.Weights = guideP // masses for balancing
		items := make([]int, len(guidePts))
		for i := range items {
			items[i] = i
		}
		tree, err = kd.Build(guideDS, items, guideP, kd.Config{})
		if err != nil {
			return nil, err
		}
		cells = tree.NumLeaves()
	}

	// ---- Pass 2: IO-AGGREGATE with point-carrying actives.
	if err := src.Reset(); err != nil {
		return nil, err
	}
	activePt := make([][]uint64, cells)
	activeP := make([]float64, cells) // current (aggregated) probability
	activeW := make([]float64, cells) // original weight of the active key
	var sample []Item
	locate := func(pt []uint64) int {
		if tree == nil {
			return 0
		}
		return tree.Locate(pt)
	}
	for {
		pt, w, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if w <= 0 {
			continue
		}
		if w >= tau {
			sample = append(sample, Item{Point: append([]uint64(nil), pt...), Weight: w})
			continue
		}
		cell := locate(pt)
		pi := w / tau
		if activePt[cell] == nil {
			activePt[cell] = append([]uint64(nil), pt...)
			activeP[cell] = pi
			activeW[cell] = w
			continue
		}
		pi2, pa2 := paggr.PairValues(pi, activeP[cell], r)
		prevPt, prevW := activePt[cell], activeW[cell]
		activePt[cell] = nil
		if pa2 >= 1 {
			sample = append(sample, Item{Point: prevPt, Weight: prevW})
		} else if pa2 > 0 {
			activePt[cell] = prevPt
			activeP[cell] = pa2
			activeW[cell] = prevW
		}
		if pi2 >= 1 {
			sample = append(sample, Item{Point: append([]uint64(nil), pt...), Weight: w})
		} else if pi2 > 0 {
			activePt[cell] = append([]uint64(nil), pt...)
			activeP[cell] = pi2
			activeW[cell] = w
		}
	}

	// ---- Final aggregation of actives along the kd hierarchy.
	var finalize func(n *kd.Node) int
	finalize = func(n *kd.Node) int {
		if n.IsLeaf() {
			if activePt[n.LeafID] != nil {
				return n.LeafID
			}
			return -1
		}
		a, b := finalize(n.Left), finalize(n.Right)
		if a < 0 {
			return b
		}
		if b < 0 {
			return a
		}
		pa2, pb2 := paggr.PairValues(activeP[a], activeP[b], r)
		survivor := -1
		if pa2 >= 1 {
			sample = append(sample, Item{Point: activePt[a], Weight: activeW[a]})
			activePt[a] = nil
		} else if pa2 <= 0 {
			activePt[a] = nil
		} else {
			activeP[a] = pa2
			survivor = a
		}
		if pb2 >= 1 {
			sample = append(sample, Item{Point: activePt[b], Weight: activeW[b]})
			activePt[b] = nil
		} else if pb2 <= 0 {
			activePt[b] = nil
		} else {
			activeP[b] = pb2
			survivor = b
		}
		return survivor
	}
	left := -1
	if tree != nil {
		left = finalize(tree.Root)
	} else if activePt[0] != nil {
		left = 0
	}
	if left >= 0 && activePt[left] != nil {
		if r.Float64() < activeP[left] {
			sample = append(sample, Item{Point: activePt[left], Weight: activeW[left]})
		}
	}
	if len(sample) == 0 {
		return nil, varopt.ErrEmpty
	}
	return &StreamResult{Items: sample, Tau: tau, GuideSize: len(guideItems), Cells: cells}, nil
}

// columns converts row-major points to the columnar layout of Dataset.
func columns(pts [][]uint64, dims int) [][]uint64 {
	out := make([][]uint64, dims)
	for d := range out {
		out[d] = make([]uint64, len(pts))
		for i, pt := range pts {
			out[d][i] = pt[d]
		}
	}
	return out
}
