// Package ingest is the repository's single streaming ingestion pipeline:
// a bounded-memory front end that every construction path pushes weighted
// keys through, whether the keys come from an in-memory Dataset, a CSV
// stream, stdin, or a shard of a partitioned population.
//
// An Ingester combines the three things pass 1 of every construction needs:
//
//   - a stream VarOpt reservoir (internal/varopt) of fixed capacity that
//     retains a mergeable sample of everything pushed so far, with its own
//     IPPS threshold τ₀ (0 until the reservoir overflows);
//   - optionally, the retained items' coordinates, kept in a flat columnar
//     arena of exactly Capacity+1 slots: the reservoir holds at most
//     Capacity items, and the one spare slot stages each arrival until the
//     reservoir decides whether to keep it. The reservoir's items are slot
//     numbers, and the slot of whichever item it drops goes straight back to
//     the free list, so memory stays O(capacity) regardless of stream
//     length with no sweeps; and
//   - optionally, the streaming IPPS threshold τ_s for a separate target
//     size (the paper's Algorithm 4), which the two-pass construction of §5
//     needs alongside its guide sample.
//
// The per-key path is allocation-free in steady state: coordinate slots are
// recycled through the free list, and weight validation is scalar. A key
// the reservoir rejects on arrival never touches the arena. Columnar batches
// (PushBatch, PushWeights) avoid even the per-key point materialization,
// which is how the dataset-backed and batch-file paths feed the pipeline.
//
// Consumers: core.Builder (streaming public API), the two-pass constructions
// (guide-sample pass), and — via the dataset-backed fast path in
// internal/core and internal/engine — the serial and sharded builders.
package ingest

import (
	"errors"
	"fmt"
	"sort"

	"structaware/internal/ipps"
	"structaware/internal/varopt"
	"structaware/internal/xmath"
	"structaware/internal/xsort"
)

// ErrFinalized is returned when pushing into a result-extracted Ingester
// whose reservoir has been handed off.
var ErrFinalized = errors.New("ingest: ingester already finalized")

// errNoCoords rejects weight-only batches on a coordinate-tracking Ingester.
var errNoCoords = errors.New("ingest: coordinate-tracking ingester needs coordinates (use PushBatch)")

// Config configures an Ingester.
type Config struct {
	// Capacity is the reservoir size: the number of candidate keys retained.
	// Must be positive.
	Capacity int
	// Dims, when positive, makes the Ingester retain each reservoir item's
	// coordinates (copied on Push); Point then recovers them. Zero means
	// coordinates are not tracked (the caller can look items up by index,
	// e.g. in a Dataset).
	Dims int
	// ThresholdSize, when positive, additionally tracks the streaming IPPS
	// threshold τ_s for that target sample size over the full stream.
	ThresholdSize int
}

// Ingester is the streaming ingestion state. It is not safe for concurrent
// use; shard-parallel callers run one Ingester per shard.
type Ingester struct {
	stream *varopt.Stream
	thr    *ipps.StreamThreshold
	dims   int
	rows   int
	done   bool

	// Columnar coordinate retention (dims > 0 only). The arena has
	// Capacity+1 slots and the reservoir item index is the slot number.
	// Slot s holds the coordinates of one pushed key at
	// coords[s*dims : (s+1)*dims] and its row index in slotRows[s]. Slots
	// the reservoir does not hold are on freeSlots, whose top stages the
	// next arrival.
	slotRows  []int
	coords    []uint64
	freeSlots []int32

	// Row directory over the reservoir's slots, built by Guide for Point
	// lookups.
	dirRows  []uint64
	dirSlots []int32
}

// New creates an Ingester. r drives the reservoir's sampling decisions.
func New(cfg Config, r xmath.Rand) (*Ingester, error) {
	if cfg.Capacity <= 0 {
		return nil, ipps.ErrBadSize
	}
	stream, err := varopt.NewStream(cfg.Capacity, r)
	if err != nil {
		return nil, err
	}
	g := &Ingester{stream: stream, dims: cfg.Dims}
	if cfg.ThresholdSize > 0 {
		if g.thr, err = ipps.NewStreamThreshold(cfg.ThresholdSize); err != nil {
			return nil, err
		}
	}
	if cfg.Dims > 0 {
		slots := cfg.Capacity + 1
		g.slotRows = make([]int, slots)
		g.coords = make([]uint64, slots*cfg.Dims)
		g.freeSlots = make([]int32, slots)
		for i := range g.freeSlots {
			g.freeSlots[i] = int32(slots - 1 - i) // slot 0 on top
		}
	}
	return g, nil
}

// Push consumes one weighted key. The row index assigned to the key is the
// number of prior Push calls, so dataset-backed callers pushing rows in
// order can use dataset positions as reservoir indices. pt is copied when
// coordinates are tracked and may be nil otherwise; zero-weight keys advance
// the row index but never enter the reservoir. Steady-state pushes do not
// allocate.
//
//sasvet:hotpath
func (g *Ingester) Push(pt []uint64, w float64) error {
	if g.done {
		return ErrFinalized
	}
	if g.dims > 0 && len(pt) != g.dims {
		//sasvet:ok rejection path; a malformed point never reaches the per-row loop
		return fmt.Errorf("ingest: point has %d dims, want %d", len(pt), g.dims)
	}
	slot, err := g.pushWeight(w)
	if slot >= 0 {
		copy(g.coords[slot*g.dims:(slot+1)*g.dims], pt)
	}
	return err
}

// PushBatch consumes a columnar batch: cols[d][i] is key i's coordinate on
// axis d and weights[i] its weight, exactly as len(weights) Push calls but
// without materializing a point per key — the batch fast path of the
// dataset-backed and streaming builders.
//
//sasvet:hotpath
func (g *Ingester) PushBatch(cols [][]uint64, weights []float64) error {
	if g.done {
		return ErrFinalized
	}
	if g.dims > 0 && len(cols) != g.dims {
		//sasvet:ok rejection path; a malformed batch never reaches the per-row loop
		return fmt.Errorf("ingest: batch has %d columns, want %d", len(cols), g.dims)
	}
	for d := range cols {
		if len(cols[d]) != len(weights) {
			//sasvet:ok rejection path; a malformed batch never reaches the per-row loop
			return fmt.Errorf("ingest: column %d has %d rows for %d weights", d, len(cols[d]), len(weights))
		}
	}
	for i, w := range weights {
		slot, err := g.pushWeight(w)
		if err != nil {
			return err
		}
		if slot >= 0 {
			base := slot * g.dims
			for d := range cols {
				g.coords[base+d] = cols[d][i]
			}
		}
	}
	return nil
}

// PushWeights consumes a batch of weight-only keys. It is only valid on an
// Ingester that does not track coordinates (Config.Dims == 0), e.g. the
// dataset-backed two-pass guide scan, where keys are recovered by row index.
//
//sasvet:hotpath
func (g *Ingester) PushWeights(weights []float64) error {
	if g.done {
		return ErrFinalized
	}
	if g.dims > 0 {
		return errNoCoords
	}
	for _, w := range weights {
		if _, err := g.pushWeight(w); err != nil {
			return err
		}
	}
	return nil
}

// pushWeight runs the weight through the threshold tracker and reservoir,
// assigning the next row index. On a coordinate-tracking Ingester the
// reservoir item is the staging slot on top of the free list; pushWeight
// returns that slot when the reservoir kept the key, so the caller fills in
// its coordinates, and returns the dropped item's slot to the free list.
// Otherwise it returns -1.
func (g *Ingester) pushWeight(w float64) (int, error) {
	row := g.rows
	g.rows++
	if g.thr != nil {
		if err := g.thr.Process(w); err != nil {
			return -1, err
		}
	} else if err := ipps.ValidateWeight(w); err != nil {
		return -1, err
	}
	if w == 0 {
		return -1, nil
	}
	if g.dims == 0 {
		_, err := g.stream.Process(row, w)
		return -1, err
	}
	top := len(g.freeSlots) - 1
	slot := int(g.freeSlots[top])
	dropped, err := g.stream.Process(slot, w)
	switch {
	case err != nil || dropped == slot:
		return -1, err
	case dropped < 0:
		g.freeSlots = g.freeSlots[:top]
	default:
		g.freeSlots[top] = int32(dropped)
	}
	g.slotRows[slot] = row
	return slot, nil
}

// Snapshot returns a deep copy of the ingestion state — reservoir,
// coordinate arena, and streaming threshold — that shares no mutable state
// with g: the copy can be finalized with Guide while g keeps accepting
// pushes. r drives the copy's future sampling decisions; snapshot consumers
// finalize the copy immediately and never draw from it, but passing a clone
// of the original's generator keeps the two ingesters byte-equivalent under
// identical further pushes. Snapshotting a finalized Ingester is an error.
func (g *Ingester) Snapshot(r xmath.Rand) (*Ingester, error) {
	if g.done {
		return nil, ErrFinalized
	}
	cl := &Ingester{
		stream: g.stream.Clone(r),
		dims:   g.dims,
		rows:   g.rows,
	}
	if g.thr != nil {
		cl.thr = g.thr.Clone()
	}
	if g.dims > 0 {
		cl.slotRows = append(make([]int, 0, len(g.slotRows)), g.slotRows...)
		cl.coords = append(make([]uint64, 0, len(g.coords)), g.coords...)
		cl.freeSlots = append(make([]int32, 0, cap(g.freeSlots)), g.freeSlots...)
	}
	return cl, nil
}

// Rows returns the number of keys pushed (including zero-weight ones).
func (g *Ingester) Rows() int { return g.rows }

// Seen returns the number of positive-weight keys pushed.
func (g *Ingester) Seen() int { return g.stream.Seen() }

// Tau returns the streaming IPPS threshold τ_s tracked for
// Config.ThresholdSize, and whether one was configured.
func (g *Ingester) Tau() (float64, bool) {
	if g.thr == nil {
		return 0, false
	}
	return g.thr.Tau(), true
}

// Guide returns the reservoir contents: a mergeable VarOpt sample of
// everything pushed so far, as items (original weights, ascending row
// index) plus the reservoir threshold τ₀. τ₀ == 0 means the reservoir never
// overflowed, so the items are the entire positive-weight input. Further
// pushes are rejected once Guide has been called.
func (g *Ingester) Guide() (items []varopt.StreamItem, tau0 float64) {
	g.done = true
	sm, items := g.stream.Result()
	if g.dims > 0 {
		g.slotsToRows(items)
	}
	return items, sm.Tau
}

// slotsToRows rewrites the reservoir items' indices from arena slots to
// row indices, sorts them ascending by row, and records the sorted
// row → slot pairs as the directory Point searches.
func (g *Ingester) slotsToRows(items []varopt.StreamItem) {
	n := len(items)
	rows := make([]uint64, n)
	for i, it := range items {
		rows[i] = uint64(g.slotRows[it.Index])
	}
	var counts [256]int
	xsort.SortPairs(rows, items, make([]uint64, n), make([]varopt.StreamItem, n), &counts)
	slots := make([]int32, n)
	for i := range items {
		slots[i] = int32(items[i].Index)
		items[i].Index = int(rows[i])
	}
	g.dirRows, g.dirSlots = rows, slots
}

// Point returns the retained coordinates of the reservoir item with the
// given row index. It is only valid for indices of items returned by Guide
// on a coordinate-tracking Ingester. The returned slice aliases the
// Ingester's coordinate arena and must not be mutated.
func (g *Ingester) Point(index int) ([]uint64, bool) {
	i := sort.Search(len(g.dirRows), func(k int) bool { return g.dirRows[k] >= uint64(index) })
	if i == len(g.dirRows) || g.dirRows[i] != uint64(index) {
		return nil, false
	}
	slot := int(g.dirSlots[i])
	return g.coords[slot*g.dims : (slot+1)*g.dims], true
}
