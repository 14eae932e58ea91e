package loadgen

import (
	"testing"

	"structaware/internal/xmath"
)

func TestAreaBoxesStayInDomain(t *testing.T) {
	domains := []uint64{1024, 60}
	boxes := AreaBoxes(domains, 200, 0.3, 7)
	if len(boxes) != 200 {
		t.Fatalf("len %d", len(boxes))
	}
	for _, b := range boxes {
		for d, iv := range b {
			if iv.Lo > iv.Hi || iv.Hi >= domains[d] {
				t.Fatalf("box %v out of domain %v", b, domains)
			}
		}
	}
	// Deterministic in seed.
	again := AreaBoxes(domains, 200, 0.3, 7)
	for i := range boxes {
		if boxes[i].String() != again[i].String() {
			t.Fatal("same seed produced different boxes")
		}
	}
	texts := RangeTexts(boxes[:1])
	if texts[0] != boxes[0].String() {
		t.Fatal("RangeTexts mismatch")
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(64, 1.0)
	r := xmath.NewRand(3)
	counts := make([]int, 64)
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[z.Pick(r.Float64())]++
	}
	total := 0
	for _, c := range counts[:8] {
		total += c
	}
	// With s=1 over 64 ranks, the top 8 carry ~57% of the mass.
	if frac := float64(total) / draws; frac < 0.45 {
		t.Fatalf("top-8 fraction %.2f, want skewed (>0.45)", frac)
	}
	if counts[0] <= counts[32] {
		t.Fatalf("rank 0 (%d) not hotter than rank 32 (%d)", counts[0], counts[32])
	}
	// Uniform when s=0.
	u := NewZipf(4, 0)
	if got := u.Pick(0.74); got != 2 {
		t.Fatalf("uniform pick(0.74) over 4 = %d, want 2", got)
	}
}
