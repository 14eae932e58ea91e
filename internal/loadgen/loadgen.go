// Package loadgen builds the seeded query mixes that perfbench replays
// against a running sasserve: uniform-area boxes drawn from the same shape
// as internal/workload, rendered into the server's range syntax, and a
// Zipf rank-frequency distribution that concentrates traffic on a few hot
// ranges, the access pattern the answer cache exists for. Everything is
// deterministic in its seed, so two runs with the same options issue the
// same request sequence; a load generator that randomizes between runs
// measures its own noise.
package loadgen

import (
	"math"

	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// AreaBoxes draws n random boxes over the given per-axis domain sizes with
// extents uniform in [1, maxFrac·domain] — the same "uniform area" shape as
// workload.UniformAreaQuery, minus the disjointness constraint a load mix
// does not need. Deterministic in seed.
func AreaBoxes(domains []uint64, n int, maxFrac float64, seed uint64) []structure.Range {
	if maxFrac <= 0 || maxFrac > 1 {
		maxFrac = 1
	}
	r := xmath.NewRand(seed)
	boxes := make([]structure.Range, n)
	for i := range boxes {
		box := make(structure.Range, len(domains))
		for d, dom := range domains {
			ext := uint64(float64(dom) * maxFrac * r.Float64())
			if ext < 1 {
				ext = 1
			}
			if ext > dom {
				ext = dom
			}
			lo := uint64(0)
			if dom > ext {
				lo = r.Uint64() % (dom - ext + 1)
			}
			box[d] = structure.Interval{Lo: lo, Hi: lo + ext - 1}
		}
		boxes[i] = box
	}
	return boxes
}

// RangeTexts renders boxes into the server's parseable `lo:hi,lo:hi` range
// syntax, the form both the HTTP API and the answer cache key on.
func RangeTexts(boxes []structure.Range) []string {
	out := make([]string, len(boxes))
	for i, b := range boxes {
		out[i] = b.String()
	}
	return out
}

// Zipf is a precomputed rank-frequency distribution over n items: item i is
// drawn with probability proportional to 1/(i+1)^s. The hot mix uses it to
// concentrate most requests on a few ranges, the access pattern an answer
// cache exists for.
type Zipf struct {
	cdf []float64
}

// NewZipf builds the distribution for n items with skew s (s=0 is uniform;
// s≈1 is classic web-traffic skew).
func NewZipf(n int, s float64) *Zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Pick maps a uniform draw u in [0,1) to an item index by binary search.
func (z *Zipf) Pick(u float64) int {
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
