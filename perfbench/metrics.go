package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metric is one named figure with its unit; note says how it was formed.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// shownOnly marks the end-to-end figures that are printed but not in the
// result line, so that no regression bound applies to them. On a shared
// 2-vCPU box their run-to-run spread (interquartile range over median, ten
// seeds) reached 0.22 to 0.69 in some stretches, beyond any usable bound.
// In a two-connection closed loop query_qps is about 2/query_p50_us, and
// ack_p50_us on ingest about the inverse of ingest_kps, so the gated
// figures still carry them.
var shownOnly = map[string]bool{"query_qps": true, "query_p99_us": true, "ack_p50_us": true, "ack_p99_us": true}

// value is a metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// endToEnd derives the end-to-end metrics from a run. Every workload
// reports every metric: on ingest the query figures come from the read
// phase after the writes, on query the ingest figures come from building
// its recovery directory, and on mixed the CPU figures charge the whole
// server's CPU to keys and to queries alike. README.md lists each one.
func endToEnd(r *runRec) []metric {
	w, q := r.write, r.read
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	rates := w.publishRates()
	keyCPU := perWindow(r.writeCPU, func(from, to time.Time, cpu time.Duration) float64 {
		return float64(cpu.Nanoseconds()) / float64(w.keysIn(from, to))
	})
	qps := perWindow(r.readCPU, func(from, to time.Time, _ time.Duration) float64 {
		return float64(countIn(q.lats, from, to)) / to.Sub(from).Seconds()
	})
	queryCPU := perWindow(r.readCPU, func(from, to time.Time, cpu time.Duration) float64 {
		return us(cpu) / float64(countIn(q.lats, from, to))
	})
	lats, acks, fresh := q.lats, w.ackLats(), w.freshness()
	qTail, qNote := blockTail(lats)
	ackTail, ackNote := blockTail(acks)
	freshTail, freshNote := blockTail(fresh)
	attempted := max(r.ops.attempted, 1)
	failedRatio := float64(r.ops.failed+r.ops.refused) / float64(attempted)
	return []metric{
		{"setup_s", "s", medianFloat(setups), fmt.Sprintf("median of %d starts", len(setups))},
		{"ingest_kps", "kkeys/s", midMean(rates) / 1e3,
			fmt.Sprintf("middle-half mean over %d publish intervals; %d keys in %v first frame to covering publish",
				len(rates), w.keys, w.final.done.Sub(w.first).Round(time.Millisecond))},
		{"publish_ms", "ms", ms(newDist(w.snapLats()).median()), fmt.Sprintf("median of %d forced snapshots", len(w.snaps))},
		{"cpu_ns_per_key", "ns", midMean(keyCPU), fmt.Sprintf("middle-half mean over %d windows", len(keyCPU))},
		{"query_qps", "1/s", midMean(qps), fmt.Sprintf("middle-half mean over %d windows of %d requests", len(qps), len(lats))},
		{"query_p50_us", "us", us(newDist(durations(lats)).median()), fmt.Sprintf("p50 of %d", len(lats))},
		{"query_p99_us", "us", us(qTail), qNote},
		{"cpu_us_per_query", "us", midMean(queryCPU), fmt.Sprintf("middle-half mean over %d windows", len(queryCPU))},
		{"ack_p50_us", "us", us(newDist(durations(acks)).median()), fmt.Sprintf("p50 of %d", len(acks))},
		{"ack_p99_us", "us", us(ackTail), ackNote},
		{"fresh_p50_ms", "ms", ms(newDist(durations(fresh)).median()), fmt.Sprintf("p50 of %d", len(fresh))},
		{"fresh_p99_ms", "ms", ms(freshTail), freshNote},
		{"rel_err", "ratio", r.relErr, fmt.Sprintf("mean over %d boxes", checkBoxes)},
		{"rss_peak_mb", "MiB", float64(r.rss) / (1 << 20), "server VmHWM"},
		{"ok_ratio", "ratio", 1 - failedRatio,
			fmt.Sprintf("1 - failed_ratio %.6f = (%d failed + %d refused with 429) / %d attempted",
				failedRatio, r.ops.failed, r.ops.refused, r.ops.attempted)},
	}
}

// result prints the metrics as "# name = value unit (note)" lines and the
// failed checks, and returns the result line.
func (r *runRec) result(ms []metric, out io.Writer) result {
	res := result{Correct: len(r.checks) == 0, Attempted: max(r.ops.attempted, 1),
		Failed: r.ops.failed + r.ops.refused, Metrics: make(map[string]value, len(ms))}
	for _, m := range ms {
		if shownOnly[m.name] {
			m.note += "; shown, not gated"
		} else {
			res.Metrics[m.name] = value{m.value, m.unit}
		}
		fmt.Fprintf(out, "# %-24s = %14.4f %-8s (%s)\n", m.name, m.value, m.unit, m.note)
	}
	for _, c := range r.checks {
		fmt.Fprintln(out, "# CHECK FAILED:", c)
	}
	return res
}

// traced runs the workload untraced and then traced for half the run
// length each, replays the layers in-process, writes the spans, prints the
// self-time table and the tracing overhead, and returns the per-layer
// metrics.
func (b *bench) traced(kind string, dur time.Duration, traceDir string, out io.Writer) (result, error) {
	half := max(dur/2, time.Second)
	plain, err := b.runWorkload(kind, half, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	rec, err := b.runWorkload(kind, half, tr)
	if err != nil {
		return result{}, err
	}
	rec.checks = append(rec.checks, plain.checks...)
	dir, err := b.mkdir("replay")
	if err != nil {
		return result{}, err
	}
	if err := replayLayers(tr, b.pool, b.mix, b.seed, rec.snapFile, dir); err != nil {
		return result{}, err
	}
	spans := tr.closed()
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return result{}, err
		}
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", kind, b.seed))
		if err := writeSpans(path, spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "# %d spans written to %s\n", len(spans), path)
	}
	aggs := aggregate(spans)
	printSelfTable(out, aggs)

	traced := endToEnd(rec)
	fmt.Fprintln(out, "# tracing overhead: traced minus untraced end-to-end figures, each over half the run")
	for i, m := range endToEnd(plain) {
		t := traced[i]
		fmt.Fprintf(out, "# %-24s untraced %14.4f traced %14.4f %-8s (%+.1f%%)\n",
			m.name, m.value, t.value, m.unit, 100*(t.value-m.value)/m.value)
	}
	rec.ops.add(plain.ops)
	p50 := 0.0
	for _, m := range traced {
		if m.name == "query_p50_us" {
			p50 = m.value
		}
	}
	return rec.result(perLayer(rec, p50, aggs), out), nil
}

// perLayer derives the per-layer metrics from the traced run and the
// replay's spans.
func perLayer(r *runRec, queryP50us float64, aggs map[string]*layerAgg) []metric {
	w := r.write
	publish := newDist(w.snapLats()).median()
	drain := w.final.done.Sub(w.lastAck) - publish
	lookups := r.hits + r.misses
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(r.hits) / float64(lookups)
	}
	rtt := newDist(r.rtt).median()
	parse, get1, est := aggs["structure.parse"].nsPerItem(), aggs["anscache.get"].nsPerItem(), aggs["queryidx.estimate"].nsPerItem()
	// The read path a single-range GET walks: the round trip, a cache
	// lookup, and on a miss a parse and an estimate.
	attributed := us(rtt) + (get1+(1-hitRatio)*(parse+est))/1e3
	late, lateLabel := newDist(w.late).tail(9900)
	adm := newDist(w.admissions())
	return []metric{
		{"sasserve.ack_us", "us", us(adm.median()), fmt.Sprintf("median POST /keys send to ack of %d frames", adm.n())},
		{"sasserve.drain_ms", "ms", ms(drain), fmt.Sprintf("last ack to covering publish %v minus publish_ms %v", w.final.done.Sub(w.lastAck).Round(time.Microsecond), publish.Round(time.Microsecond))},
		{"sasserve.retry_429", "count", float64(r.ops.refused), fmt.Sprintf("of %d requests", r.ops.attempted)},
		{"wire.decode_ns_per_key", "ns", aggs["wire.decode"].nsPerItem(), aggs["wire.decode"].base()},
		{"wal.append_ns_per_key", "ns", aggs["wal.append"].nsPerItem(), aggs["wal.append"].base()},
		{"wal.sync_ms", "ms", ms(aggs["wal.sync"].median()), fmt.Sprintf("median of %d syncs of %d frames each", aggs["wal.sync"].count(), syncEvery)},
		{"core.push_ns_per_key", "ns", aggs["core.push"].nsPerItem(), aggs["core.push"].base()},
		{"core.snapshot_ms", "ms", ms(aggs["core.snapshot"].median()), fmt.Sprintf("median of %d shard snapshots", aggs["core.snapshot"].count())},
		{"core.merge_ms", "ms", ms(aggs["core.merge"].median()), fmt.Sprintf("median of %d merges", aggs["core.merge"].count())},
		{"core.index_ms", "ms", ms(aggs["core.index"].median()), fmt.Sprintf("median of %d index builds", aggs["core.index"].count())},
		{"core.persist_ms", "ms", ms(aggs["core.persist"].median()), fmt.Sprintf("median of %d synced writes", aggs["core.persist"].count())},
		{"core.read_ms", "ms", ms(aggs["core.read"].median()), fmt.Sprintf("median of %d reads of the published snapshot", aggs["core.read"].count())},
		{"wal.replay_ms", "ms", ms(aggs["wal.replay"].median()), fmt.Sprintf("median of %d replays of %d keys", aggs["wal.replay"].count(), replayFrames*frameKeys)},
		{"http.rtt_us", "us", us(rtt), fmt.Sprintf("median of %d GET /healthz", len(r.rtt))},
		{"structure.parse_ns", "ns", parse, aggs["structure.parse"].base()},
		{"anscache.hit_ratio", "ratio", hitRatio, fmt.Sprintf("%d hits / %d lookups (server counters)", r.hits, lookups)},
		{"anscache.get_ns", "ns", get1, aggs["anscache.get"].base()},
		{"queryidx.estimate_ns", "ns", est, aggs["queryidx.estimate"].base()},
		{"sasserve.self_us", "us", queryP50us - attributed,
			fmt.Sprintf("query_p50_us %.2f minus %.2f attributed to rtt, cache, parse and estimate", queryP50us, attributed)},
		{"gen.late_ms", "ms", ms(late), "open-loop send lateness, " + lateLabel},
	}
}

func (a *layerAgg) count() int {
	if a == nil {
		return 0
	}
	return a.n
}

// base names what a per-item figure was divided by.
func (a *layerAgg) base() string {
	if a == nil {
		return "no spans"
	}
	return fmt.Sprintf("%v over %d items in %d spans", a.total.Round(time.Microsecond), a.items, a.n)
}
