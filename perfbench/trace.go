package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Parent is the span that
// caused it (0 for a root); spans of one request share the root's id as
// their trace. Items counts the keys or calls the span covered.
type span struct {
	id, parent, trace int32
	name              string
	start, end        time.Duration // since the tracer's epoch
	items             int
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and costs one branch per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// ref is an open span.
type ref struct {
	id, trace int32
	parent    int32
	name      string
	start     time.Duration
}

// begin opens a span under parent (a zero ref opens a root).
func (t *tracer) begin(name string, parent ref) ref {
	if t == nil {
		return ref{}
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id}) // reserve the slot; filled by end
	t.mu.Unlock()
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	return ref{id: id, trace: trace, parent: parent.id, name: name, start: time.Since(t.epoch)}
}

// end closes r, recording that it covered items keys or calls.
func (t *tracer) end(r ref, items int) {
	if t == nil || r.id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[r.id-1] = span{id: r.id, parent: r.parent, trace: r.trace, name: r.name, start: r.start, end: now, items: items}
	t.mu.Unlock()
}

// closed returns the spans that have ended.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.name != "" {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"trace":%d,"name":%q,"start_ns":%d,"end_ns":%d,"items":%d}`+"\n",
			s.id, s.parent, s.trace, s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.items)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, by span id.
func selfTimes(spans []span) map[int32]time.Duration {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make(map[int32]time.Duration, len(spans))
	for _, s := range spans {
		ch := kids[s.id]
		sort.Slice(ch, func(i, j int) bool { return ch[i].start < ch[j].start })
		covered := time.Duration(0)
		cur := s.start // end of the covered prefix
		for _, c := range ch {
			lo, hi := max(c.start, cur), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.id] = s.dur() - covered
	}
	return self
}

// layerAgg sums the spans of one name.
type layerAgg struct {
	n, items int
	total    time.Duration
	self     time.Duration
	durs     []time.Duration
}

func aggregate(spans []span) map[string]*layerAgg {
	self := selfTimes(spans)
	out := make(map[string]*layerAgg)
	for _, s := range spans {
		a := out[s.name]
		if a == nil {
			a = &layerAgg{}
			out[s.name] = a
		}
		a.n++
		a.items += s.items
		a.total += s.dur()
		a.self += self[s.id]
		a.durs = append(a.durs, s.dur())
	}
	return out
}

// median returns the median span duration of the layer.
func (a *layerAgg) median() time.Duration {
	if a == nil {
		return 0
	}
	return newDist(a.durs).median()
}

// nsPerItem returns the layer's total time per key or call.
func (a *layerAgg) nsPerItem() float64 {
	if a == nil || a.items == 0 {
		return 0
	}
	return float64(a.total.Nanoseconds()) / float64(a.items)
}

// printSelfTable prints one row per span name: calls, items, total and
// self time, and self time per item.
func printSelfTable(w io.Writer, aggs map[string]*layerAgg) {
	names := make([]string, 0, len(aggs))
	for n := range aggs {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(w, "# %-24s %9s %10s %12s %12s %12s\n", "layer span", "spans", "items", "total_ms", "self_ms", "self_ns/item")
	for _, n := range names {
		a := aggs[n]
		per := 0.0
		if a.items > 0 {
			per = float64(a.self.Nanoseconds()) / float64(a.items)
		}
		fmt.Fprintf(w, "# %-24s %9d %10d %12.3f %12.3f %12.1f\n", n, a.n, a.items, ms(a.total), ms(a.self), per)
	}
}
