// Command perfbench is the repository's benchmark: it starts the real
// sasserve binary, drives one workload against it from this single
// process (at most two request-issuing goroutines, each on its own
// connection), checks the served answers, and prints every end-to-end
// metric by name with its unit. With -trace 1 it instead prints the
// per-layer metrics: it runs the workload once untraced and once with
// client spans on, replays each layer's public functions in-process on
// the same generated inputs, writes all spans to a file and prints a
// self-time table. See README.md for the workloads and metrics.
//
//	perfbench -sasserve <binary> -workload ingest|query|mixed -seed N -seconds S -trace 0|1
//
// The last line of standard output is the JSON result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds a whole invocation: past it every server is killed and
// the run fails rather than hangs.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	var (
		bin      = flag.String("sasserve", "", "sasserve binary to benchmark")
		workload = flag.String("workload", "", "workload: ingest, query or mixed")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 15, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced per-layer run")
		work     = flag.String("work", "", "directory for run files (removed at exit)")
		traceDir = flag.String("trace-dir", "", "directory the span files are written to")
		commit   = flag.String("commit", "unknown", "source revision, for the run record")
	)
	flag.Parse()
	if *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) || kinds[*workload] == nil {
		fmt.Fprintln(os.Stderr, "usage: perfbench -sasserve BIN -work DIR -workload ingest|query|mixed -seed N -seconds S -trace 0|1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{ctx: ctx, bin: *bin, dir: dir, seed: *seed}
	defer func() {
		killAll()
		os.RemoveAll(dir)
	}()

	fmt.Printf("# run workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		*workload, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit)
	dur := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = b.traced(*workload, dur, *traceDir, os.Stdout)
	} else {
		var rec *runRec
		if rec, err = b.runWorkload(*workload, dur, nil); err == nil {
			res = rec.result(endToEnd(rec), os.Stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// kinds maps each workload to its driver.
var kinds = map[string]func(b *bench, rec *runRec, dur time.Duration) error{
	"ingest": (*bench).ingest,
	"query":  (*bench).query,
	"mixed":  (*bench).mixed,
}

// bench holds one invocation's inputs and state.
type bench struct {
	ctx  context.Context
	bin  string
	dir  string
	seed uint64
	n    int // directories made so far

	tr *tracer // on during a traced run's second pass

	pool *keyPool
	mix  *queryMix
	prep *prepared // query's recovery directory, made once
}

// runRec is what one run of a workload observed.
type runRec struct {
	setups []time.Duration

	write    *writeLog   // ingest traffic; query's comes from preparing its directory
	writeCPU []cpuSample // server CPU while write ran
	read     *readLog    // query traffic; ingest's runs after its writes
	readCPU  []cpuSample
	hits     int64 // answer-cache hits and misses during read
	misses   int64

	relErr   float64
	rss      int64
	ops      ops
	checks   []string // failed output checks
	snapFile string   // the server's last published snapshot, kept for the replay
	rtt      []time.Duration
}

func (r *runRec) fail(format string, a ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, a...))
}

// mkdir returns a fresh directory under the run directory.
func (b *bench) mkdir(what string) (string, error) {
	b.n++
	d := filepath.Join(b.dir, fmt.Sprintf("%s-%d", what, b.n))
	return d, os.Mkdir(d, 0o755)
}

func (b *bench) inputs() error {
	if b.pool != nil {
		return nil
	}
	var err error
	b.pool, err = newKeyPool(b.seed, poolFrames)
	b.mix = newQueryMix(b.seed)
	return err
}

func (b *bench) runWorkload(kind string, dur time.Duration, tr *tracer) (*runRec, error) {
	if err := b.inputs(); err != nil {
		return nil, err
	}
	b.tr = tr
	rec := &runRec{}
	if err := kinds[kind](b, rec, dur); err != nil {
		return nil, err
	}
	return rec, nil
}

const (
	warmup     = time.Second // untimed load before each measured phase
	freshSetup = 15          // timed starts whose median is setup_s on an empty directory
)

// freshServer starts sasserve on an empty directory freshSetup+1 times,
// recording each start-to-ready time but the first, which pays for
// loading the binary, and returns the last server.
func (b *bench) freshServer(rec *runRec) (*server, error) {
	var s *server
	for i := 0; i <= freshSetup; i++ {
		if s != nil {
			s.kill()
		}
		dir, err := b.mkdir("fresh")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if s, err = startServer(b.ctx, b.bin, dir); err != nil {
			return nil, err
		}
		if i > 0 {
			rec.setups = append(rec.setups, time.Since(t0))
		}
	}
	return s, nil
}

func clients(s *server, tr *tracer) [2]*client {
	return [2]*client{newClient(s.base, tr), newClient(s.base, tr)}
}

// ingest: closed-loop frame ingest on two connections with a forced
// snapshot every snapEveryFrames frames, then a read phase on the summary
// it built.
func (b *bench) ingest(rec *runRec, dur time.Duration) error {
	s, err := b.freshServer(rec)
	if err != nil {
		return err
	}
	cs := clients(s, b.tr)
	defer cs[0].close()
	defer cs[1].close()
	warm, err := closedIngest(b.ctx, cs, b.pool, 0, 0, time.Now().Add(warmup), snapEveryFrames, true, 0)
	if err != nil {
		return b.serverErr(s, err)
	}
	from := int(warm.keys / frameKeys)
	sm := sampleCPU(s)
	w, err := closedIngest(b.ctx, cs, b.pool, from, 0, time.Now().Add(dur), snapEveryFrames, true, warm.keys)
	cpu, serr := sm.end()
	if err != nil {
		return b.serverErr(s, err)
	}
	if serr != nil {
		return serr
	}
	rec.write, rec.writeCPU = w, cpu
	rec.ops.add(warm.ops)
	rec.ops.add(w.ops)
	// The writes leave gigabytes of WAL pages to write back; flush them
	// now, so that the writeback does not land in the read phase.
	syscall.Sync()
	if err := b.readPhase(s, cs[:], rec, dur/2); err != nil {
		return err
	}
	counts := addCounts(warm.counts, w.counts)
	return b.finish(s, cs[0], rec, counts, warm.keys+w.keys, w.final)
}

// readPhase warms the answer cache with the query mix, then measures it.
func (b *bench) readPhase(s *server, cs []*client, rec *runRec, dur time.Duration) error {
	warm, err := closedQuery(b.ctx, cs, b.mix, b.seed, time.Now().Add(warmup))
	if err != nil {
		return b.serverErr(s, err)
	}
	rec.ops.add(warm.ops)
	h0, m0, err := cacheStats(cs[0])
	if err != nil {
		return err
	}
	sm := sampleCPU(s)
	r, err := closedQuery(b.ctx, cs, b.mix, b.seed+1000, time.Now().Add(dur))
	cpu, serr := sm.end()
	if err != nil {
		return b.serverErr(s, err)
	}
	if serr != nil {
		return serr
	}
	h1, m1, err := cacheStats(cs[0])
	if err != nil {
		return err
	}
	rec.read, rec.readCPU = r, cpu
	rec.ops.add(r.ops)
	rec.hits, rec.misses = h1-h0, m1-m0
	return nil
}

// prepared is query's recovery directory: a published snapshot plus a WAL
// tail left by kill -9.
type prepared struct {
	dir      string
	write    *writeLog // the ingest that built it, up to its last snapshot
	writeCPU []cpuSample
	counts   []int64
	tailKeys int64
	counted  bool // its requests are in some run's counts
}

const (
	tailFrames = 256 // acknowledged after the last snapshot: 1 Mi keys
	recoveries = 3   // recoveries whose median is setup_s
)

// prepare builds query's recovery directory once per invocation: dur of
// open-loop ingest as in mixed's writes, then tailFrames more frames with
// no snapshot, then kill -9.
func (b *bench) prepare(dur time.Duration) (*prepared, error) {
	if b.prep != nil {
		return b.prep, nil
	}
	dir, err := b.mkdir("prep")
	if err != nil {
		return nil, err
	}
	s, err := startServer(b.ctx, b.bin, dir)
	if err != nil {
		return nil, err
	}
	cs := clients(s, nil)
	defer cs[0].close()
	defer cs[1].close()
	sm := sampleCPU(s)
	start := time.Now()
	w, err := openIngest(b.ctx, cs[0], b.pool, start, start.Add(dur), 0)
	cpu, serr := sm.end()
	if err != nil {
		return nil, b.serverErr(s, err)
	}
	if serr != nil {
		return nil, serr
	}
	tail, err := closedIngest(b.ctx, cs, b.pool, int(w.keys/frameKeys), tailFrames, time.Time{}, 0, false, w.keys)
	if err != nil {
		return nil, b.serverErr(s, err)
	}
	s.kill()
	syscall.Sync() // as after ingest's writes
	w.ops.add(tail.ops)
	b.prep = &prepared{dir: dir, write: w, writeCPU: cpu,
		counts: addCounts(w.counts, tail.counts), tailKeys: tail.keys}
	return b.prep, nil
}

// query: recover the prepared directory, publish it, and serve the query
// mix on two closed-loop connections.
func (b *bench) query(rec *runRec, dur time.Duration) error {
	p, err := b.prepare(dur / 2)
	if err != nil {
		return err
	}
	rec.write, rec.writeCPU = p.write, p.writeCPU
	if !p.counted {
		rec.ops.add(p.write.ops)
		p.counted = true
	}
	var s *server
	var last snap
	for i := 0; i < recoveries; i++ {
		if s != nil {
			s.kill()
		}
		dir, err := b.mkdir("recover")
		if err != nil {
			return err
		}
		if err := copyDir(p.dir, dir); err != nil {
			return err
		}
		syscall.Sync() // recovery should not pay for the copy's writeback
		t0 := time.Now()
		if s, err = startServer(b.ctx, b.bin, dir); err != nil {
			return err
		}
		c := newClient(s.base, nil)
		last, err = forceSnapshot(c, &rec.ops)
		c.close()
		if err != nil {
			return b.serverErr(s, err)
		}
		rec.setups = append(rec.setups, time.Since(t0))
		if last.pushed != p.tailKeys {
			rec.fail("recovery published %d replayed keys, want the %d acknowledged before kill -9", last.pushed, p.tailKeys)
		}
	}
	cs := clients(s, b.tr)
	defer cs[0].close()
	defer cs[1].close()
	if err := b.readPhase(s, cs[:], rec, dur); err != nil {
		return err
	}
	return b.finish(s, cs[0], rec, p.counts, p.tailKeys, last)
}

// mixed: open-loop ingest at mixedKeysPerSec on one connection with a
// forced snapshot every mixedSnapEvery, beside the closed-loop query mix on
// the other.
func (b *bench) mixed(rec *runRec, dur time.Duration) error {
	s, err := b.freshServer(rec)
	if err != nil {
		return err
	}
	cs := clients(s, b.tr)
	defer cs[0].close()
	defer cs[1].close()
	// Queries need a published summary to read from the start.
	seed, err := closedIngest(b.ctx, cs, b.pool, 0, snapEveryFrames, time.Time{}, 0, true, 0)
	if err != nil {
		return b.serverErr(s, err)
	}
	warm, warmReads, err := b.mixedPhase(s, cs, warmup, b.seed, seed.keys)
	if err != nil {
		return err
	}
	rec.ops.add(seed.ops)
	rec.ops.add(warm.ops)
	rec.ops.add(warmReads.ops)
	warm.keys += seed.keys
	warm.counts = addCounts(seed.counts, warm.counts)
	sm := sampleCPU(s)
	w, r, err := b.mixedPhase(s, cs, dur, b.seed+1000, warm.keys)
	cpu, serr := sm.end()
	if err != nil {
		return err
	}
	if serr != nil {
		return serr
	}
	rec.write, rec.read = w, r
	rec.ops.add(w.ops)
	rec.ops.add(r.ops)
	rec.writeCPU, rec.readCPU = cpu, cpu
	rec.hits, rec.misses = w.hits, w.misses
	counts := addCounts(warm.counts, w.counts)
	return b.finish(s, cs[0], rec, counts, warm.keys+w.keys, w.final)
}

func (b *bench) mixedPhase(s *server, cs [2]*client, dur time.Duration, seed uint64, base int64) (*writeLog, *readLog, error) {
	start := time.Now()
	deadline := start.Add(dur)
	type out struct {
		r   *readLog
		err error
	}
	done := make(chan out, 1)
	go func() {
		r, err := closedQuery(b.ctx, cs[1:], b.mix, seed, deadline)
		done <- out{r, err}
	}()
	w, werr := openIngest(b.ctx, cs[0], b.pool, start, deadline, base)
	o := <-done
	if err := errors.Join(werr, o.err); err != nil {
		return nil, nil, b.serverErr(s, err)
	}
	return w, o.r, nil
}

// finish checks the served summary against the exact sums of the keys
// acknowledged and records the server's peak memory and last snapshot.
func (b *bench) finish(s *server, c *client, rec *runRec, counts []int64, wantPushed int64, final snap) error {
	if final.pushed != wantPushed {
		rec.fail("conservation: published snapshot covers %d keys, %d were acknowledged", final.pushed, wantPushed)
	}
	exactTotal, exactBoxes := b.pool.exact(counts)
	if err := checkAnswers(c, b.pool, exactTotal, exactBoxes, rec); err != nil {
		return b.serverErr(s, err)
	}
	if b.tr != nil {
		for i := 0; i < rttProbes; i++ {
			t0 := time.Now()
			sp := c.tr.begin("client.healthz", ref{})
			st, _, err := c.do("GET", "/healthz", "", nil)
			c.tr.end(sp, 1)
			if err != nil || st != 200 {
				return fmt.Errorf("GET /healthz: status %d: %v", st, err)
			}
			rec.rtt = append(rec.rtt, time.Since(t0))
		}
	}
	var err error
	if rec.rss, err = s.peakRSS(); err != nil {
		return err
	}
	snaps, err := filepath.Glob(filepath.Join(s.dir, summaryName+"-*.sas"))
	if err != nil || len(snaps) == 0 {
		return fmt.Errorf("no published snapshot in %s: %v", s.dir, err)
	}
	slices.Sort(snaps)
	rec.snapFile = snaps[len(snaps)-1]
	s.kill()
	return nil
}

// rttProbes is how many GET /healthz round trips the traced run times.
const rttProbes = 2000

// relErrCeiling fails a run whose mean relative error over the check
// boxes exceeds it: a 4096-key sample answers boxes of 1/1024 to 1/64 of
// the domain within about 10% on average.
const relErrCeiling = 0.2

// checkAnswers compares the served summary with the exact sums: the
// full-domain box must equal the served total, the total the exact total,
// and the check boxes' mean relative error must stay under the ceiling.
func checkAnswers(c *client, pool *keyPool, exactTotal float64, exactBoxes []float64, rec *runRec) error {
	var total struct {
		Estimate float64 `json:"estimate"`
	}
	if err := getJSON(c, "/v1/summaries/"+summaryName+"/total", &total); err != nil {
		return err
	}
	var full struct {
		Estimates []float64 `json:"estimates"`
	}
	if err := getJSON(c, fmt.Sprintf("%s?range=0:%d,0:%d", estimatePath, keyDomain-1, keyDomain-1), &full); err != nil {
		return err
	}
	if len(full.Estimates) != 1 || full.Estimates[0] != total.Estimate {
		rec.fail("full-domain box estimate %v != served total %v", full.Estimates, total.Estimate)
	}
	if math.Abs(total.Estimate-exactTotal) > 1e-9*exactTotal {
		rec.fail("served total %v != exact total %v", total.Estimate, exactTotal)
	}
	body, _ := json.Marshal(map[string][]string{"ranges": pool.texts}) // a []string always encodes
	rec.ops.attempted++
	st, resp, err := c.do("POST", estimatePath, "application/json", body)
	if err != nil || st != 200 {
		rec.ops.failed++
		return fmt.Errorf("POST estimate: status %d: %v %s", st, err, resp)
	}
	var est struct {
		Estimates []float64 `json:"estimates"`
	}
	if err := json.Unmarshal(resp, &est); err != nil || len(est.Estimates) != len(exactBoxes) {
		return fmt.Errorf("POST estimate: %d estimates for %d boxes: %v", len(est.Estimates), len(exactBoxes), err)
	}
	sum := 0.0
	for i, e := range est.Estimates {
		sum += math.Abs(e-exactBoxes[i]) / exactBoxes[i]
	}
	rec.relErr = sum / float64(len(exactBoxes))
	if !(rec.relErr < relErrCeiling) {
		rec.fail("mean relative error %.4f over %d boxes exceeds %.2f", rec.relErr, len(exactBoxes), relErrCeiling)
	}
	return nil
}

func getJSON(c *client, path string, v any) error {
	st, body, err := c.do("GET", path, "", nil)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if st != 200 {
		return fmt.Errorf("GET %s: status %d: %s", path, st, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

func cacheStats(c *client) (hits, misses int64, err error) {
	var m struct {
		Hits   int64 `json:"cache_hits"`
		Misses int64 `json:"cache_misses"`
	}
	err = getJSON(c, metaPath, &m)
	return m.Hits, m.Misses, err
}

// serverErr prefers the server's own death over the client error it caused.
func (b *bench) serverErr(s *server, err error) error {
	if derr := s.alive(); derr != nil {
		return derr
	}
	return err
}

func addCounts(a, b []int64) []int64 {
	out := slices.Clone(a)
	for i, c := range b {
		out[i] += c
	}
	return out
}

func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
