package expt

import (
	"fmt"
	"time"

	"structaware/internal/backend"
	"structaware/internal/structure"
	"structaware/internal/twopass"
	"structaware/internal/workload"
	"structaware/internal/xmath"
)

// The backends comparison (sasbench -backends) builds every backend kind at
// one matched element budget over the evaluation datasets and scores them
// head-to-head on the same query batteries: accuracy against exact answers
// and query throughput. The result is a JSON document, the repo's own
// cross-backend evidence for the paper's central comparison.

// BackendStats is one backend's score on one query battery.
type BackendStats struct {
	// Kind is the backend family (sample, qdigest, wavelet, sketch).
	Kind string `json:"kind"`
	// Elements is the realized summary footprint (≤ the requested budget:
	// thresholding and compaction may retain fewer elements).
	Elements int `json:"elements"`
	// BuildMillis is the construction time for this dataset.
	BuildMillis float64 `json:"build_ms"`
	// MeanRelErr and MaxRelErr are |est−exact|/exact over the battery,
	// excluding queries whose exact answer is zero.
	MeanRelErr float64 `json:"mean_rel_err"`
	MaxRelErr  float64 `json:"max_rel_err"`
	// MeanAbsErr is the paper's accuracy metric: mean |est−exact| divided
	// by the dataset's total weight.
	MeanAbsErr float64 `json:"mean_abs_err"`
	// QueriesPerSec is single-threaded EstimateQuery throughput on this
	// battery.
	QueriesPerSec float64 `json:"queries_per_sec"`
}

// BackendBattery is one query battery's scores across all backends.
type BackendBattery struct {
	// Name identifies the battery shape (uniform-area, uniform-weight).
	Name string `json:"name"`
	// Queries is the battery size; Skipped counts queries with exact
	// answer zero, excluded from the relative-error aggregates.
	Queries  int            `json:"queries"`
	Skipped  int            `json:"skipped,omitempty"`
	Backends []BackendStats `json:"backends"`
}

// BackendDataset is one dataset's batteries.
type BackendDataset struct {
	Name        string           `json:"name"`
	Keys        int              `json:"keys"`
	TotalWeight float64          `json:"total_weight"`
	Batteries   []BackendBattery `json:"batteries"`
}

// BackendsReport is the complete head-to-head comparison document.
type BackendsReport struct {
	Size     int              `json:"size"`
	Queries  int              `json:"queries"`
	Scale    float64          `json:"scale"`
	Seed     uint64           `json:"seed"`
	Datasets []BackendDataset `json:"datasets"`
}

// minThroughputWindow is how long the throughput loop keeps replaying the
// battery; short enough to keep -backends interactive, long enough that
// µs-scale queries average over timer noise.
const minThroughputWindow = 50 * time.Millisecond

// CompareBackends runs the head-to-head comparison: every backend kind at
// the same element budget, over the network and tickets datasets, scored on
// uniform-area and uniform-weight batteries.
func CompareBackends(o Options, size int) (*BackendsReport, error) {
	o = o.defaults()
	if size <= 0 {
		size = backend.DefaultSize
	}
	rep := &BackendsReport{Size: size, Queries: o.Queries, Scale: o.Scale, Seed: o.Seed}
	for _, src := range []struct {
		name string
		gen  func() (*structure.Dataset, error)
	}{
		{"network", o.network},
		{"tickets", o.tickets},
	} {
		ds, err := src.gen()
		if err != nil {
			return nil, fmt.Errorf("expt: %s dataset: %w", src.name, err)
		}
		dr, err := compareOnDataset(o, ds, src.name, size)
		if err != nil {
			return nil, err
		}
		rep.Datasets = append(rep.Datasets, dr)
	}
	return rep, nil
}

func compareOnDataset(o Options, ds *structure.Dataset, name string, size int) (BackendDataset, error) {
	total := ds.TotalWeight()
	dr := BackendDataset{Name: name, Keys: ds.Len(), TotalWeight: total}

	// Build all four backends from the identical columnar stream at the
	// identical budget — the matched-memory premise of the comparison.
	type built struct {
		kind  backend.Kind
		be    *backend.Backend
		build time.Duration
	}
	builds := make([]built, 0, len(backend.Kinds))
	for _, kind := range backend.Kinds {
		start := time.Now()
		be, err := backend.Build(ds.Axes, &twopass.DatasetSource{DS: ds},
			backend.Config{Kind: kind, Size: size, Seed: o.Seed})
		if err != nil {
			return BackendDataset{}, fmt.Errorf("expt: build %s/%s: %w", name, kind, err)
		}
		builds = append(builds, built{kind, be, time.Since(start)})
	}

	batteries, err := backendBatteries(o, ds)
	if err != nil {
		return BackendDataset{}, err
	}
	for _, bat := range batteries {
		exact := workload.ExactAnswers(ds, bat.queries)
		bb := BackendBattery{Name: bat.name, Queries: len(bat.queries)}
		for _, e := range exact {
			if e <= 0 {
				bb.Skipped++
			}
		}
		for _, b := range builds {
			st := scoreBackend(b.be, bat.queries, exact, total)
			st.Kind = string(b.kind)
			st.Elements = b.be.Size()
			st.BuildMillis = float64(b.build.Microseconds()) / 1e3
			bb.Backends = append(bb.Backends, st)
		}
		dr.Batteries = append(dr.Batteries, bb)
	}
	return dr, nil
}

type namedBattery struct {
	name    string
	queries []structure.Query
}

// backendBatteries generates the two battery shapes of the paper's
// evaluation: uniform-area rectangles and uniform-weight kd cells.
func backendBatteries(o Options, ds *structure.Dataset) ([]namedBattery, error) {
	r := xmath.NewRand(o.Seed + 300)
	area := workload.Battery(o.Queries, func() structure.Query {
		return workload.UniformAreaQuery(ds, 10, 0.25, r)
	})
	out := []namedBattery{{"uniform-area", area}}

	const numRects = 10
	wc, err := workload.NewWeightCells(ds, 12)
	if err != nil {
		return nil, fmt.Errorf("expt: weight cells: %w", err)
	}
	// Mid-depth cells (~10/2^9 ≈ 2% of the weight per query), backing off
	// shallower when the scaled-down dataset has too few cells.
	depth := wc.MaxDepth()
	if depth > 9 {
		depth = 9
	}
	for depth > 0 && len(wc.CellsAt(depth)) < numRects {
		depth--
	}
	if depth > 0 {
		weight := make([]structure.Query, 0, o.Queries)
		for i := 0; i < o.Queries; i++ {
			q, err := wc.QueryAt(depth, numRects, r)
			if err != nil {
				return nil, err
			}
			weight = append(weight, q)
		}
		out = append(out, namedBattery{"uniform-weight", weight})
	}
	return out, nil
}

// scoreBackend answers the battery once for accuracy, then replays it for
// at least minThroughputWindow to measure single-threaded throughput.
func scoreBackend(be *backend.Backend, queries []structure.Query, exact []float64, total float64) BackendStats {
	var st BackendStats
	var relSum, absSum xmath.KahanSum
	scored := 0
	for i, q := range queries {
		est := be.EstimateQuery(q)
		d := est - exact[i]
		if d < 0 {
			d = -d
		}
		if total > 0 {
			absSum.Add(d / total)
		}
		if exact[i] <= 0 {
			continue
		}
		rel := d / exact[i]
		relSum.Add(rel)
		if rel > st.MaxRelErr {
			st.MaxRelErr = rel
		}
		scored++
	}
	if scored > 0 {
		st.MeanRelErr = relSum.Sum() / float64(scored)
	}
	if len(queries) > 0 {
		st.MeanAbsErr = absSum.Sum() / float64(len(queries))
	}

	reps, start := 0, time.Now()
	for time.Since(start) < minThroughputWindow {
		for _, q := range queries {
			be.EstimateQuery(q)
		}
		reps++
	}
	if elapsed := time.Since(start); elapsed > 0 && reps > 0 {
		st.QueriesPerSec = float64(reps*len(queries)) / elapsed.Seconds()
	}
	return st
}
