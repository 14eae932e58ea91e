package varopt

import (
	"testing"

	"structaware/internal/xmath"
)

// TestStreamProcessReportsEviction: the index Process returns is exactly the
// item that left the reservoir, found by diffing Result before and after
// each call. It is -1 while the reservoir fills (and for zero weights), the
// arriving index on a small-item fast-path drop, and otherwise whichever
// item the threshold update dropped: a prior item, or the arrival itself
// when it was demoted.
func TestStreamProcessReportsEviction(t *testing.T) {
	const k, n = 32, 4000
	st, err := NewStream(k, xmath.NewRand(11))
	if err != nil {
		t.Fatal(err)
	}
	wr := xmath.NewRand(12)
	var filling, fastDrops, priorDrops int
	_, before := st.Result()
	for i := 0; i < n; i++ {
		w := 1 + 10*wr.Float64()
		switch {
		case i%41 == 0:
			w *= 100 // heavy arrival: exercises the heap path
		case i%53 == 0:
			w = 0
		}
		fast := w != 0 && w < st.Tau() && st.Len() == k
		got, err := st.Process(i, w)
		if err != nil {
			t.Fatal(err)
		}
		_, after := st.Result()
		kept := make(map[int]bool, len(after))
		for _, it := range after {
			kept[it.Index] = true
		}
		var left []int
		for _, it := range before {
			if !kept[it.Index] {
				left = append(left, it.Index)
			}
		}
		if w != 0 && !kept[i] {
			left = append(left, i)
		}

		switch {
		case len(left) == 0:
			if got != -1 {
				t.Fatalf("key %d (w=%v): nothing left the reservoir but Process returned %d", i, w, got)
			}
			if w != 0 {
				filling++
			}
		case len(left) > 1:
			t.Fatalf("key %d: %d items left the reservoir: %v", i, len(left), left)
		case got != left[0]:
			t.Fatalf("key %d (w=%v): item %d left the reservoir but Process returned %d", i, w, left[0], got)
		case got == i:
			if fast {
				fastDrops++
			}
		default:
			priorDrops++
		}
		before = after
	}
	if filling != k || fastDrops == 0 || priorDrops == 0 {
		t.Fatalf("cases not all exercised: filling %d (want %d), fast-path drops %d, prior drops %d",
			filling, k, fastDrops, priorDrops)
	}
}
