package main

// live.go is the write side of sasserve: named live summaries accept
// weighted keys over HTTP (JSON, NDJSON, or binary frames; see ingest.go)
// into long-lived core.Builders and periodically publish immutable
// snapshots into the same serving map the file-backed summaries use. The
// read path never changes: a snapshot rotation compiles a fully-formed
// index off to the side and swaps the whole entry under the store lock,
// exactly like a SIGHUP reload, so concurrent queries see either the
// previous epoch or the new one, never a partial index.
//
// The snapshot write path (writeSnapshotFile) and the WAL hooks make
// this package part of the durability contract, so the durable analyzer
// checks its Sync/Close/Rename error handling and open flags:
//
//sasvet:durable
//
// Ingestion is parallel and explicitly bounded. Each live summary runs N
// per-core shards (-live-shards, default GOMAXPROCS), each a fully
// independent Builder behind a bounded frame queue drained by its own worker
// goroutine. Accepted batches are routed round-robin, so every key enters
// exactly one shard: the shard streams partition the population, which is
// precisely the disjointness precondition of the paper's mergeable samples —
// at rotation time the shard snapshots are combined with core.MergeSummaries
// and the published summary's Horvitz–Thompson estimates stay unbiased for
// the whole stream. When a shard queue is full the server pushes back
// instead of buffering without bound: the HTTP endpoint answers 429 with a
// Retry-After hint.
//
// With -snapshot-dir set, every published snapshot is also persisted as a
// numbered SAS2 file (written to a temp name, then renamed, so a crash
// never leaves a torn file) and the newest one is recovered on startup.
// The recovered summary covers the pre-restart stream and the restarted
// builders cover the post-restart stream — disjoint populations — so each
// rotation merges them with core.MergeSummaries, keeping estimates
// unbiased across restarts.
//
// With -wal-sync=always|interval (the default, interval, applies whenever
// -snapshot-dir is set), acknowledged batches are additionally written to
// a per-summary write-ahead log (internal/wal) *before* the ack leaves the
// server, closing the gap between acks and snapshots: a kill -9, OOM, or
// panic loses no acknowledged key, and under "always" neither does power
// loss. The crash-consistency invariant is enforced here, not in the wal
// package: a per-summary walMu makes {capacity check, WAL append, queue
// handoff} atomic against rotation's cut, and the cut itself is a barrier
// — every shard worker pauses at a marker while the shard builders are
// snapshotted — so the records in WAL segments sealed by the cut are
// exactly the records the snapshot covers. Startup recovery is then
// newest-loadable-snapshot plus a replay of the WAL segments the snapshot
// does not cover, tolerating a torn final record (the one write a dying
// process can have left half-finished).

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"structaware/internal/backend"
	"structaware/internal/cliutil"
	"structaware/internal/core"
	"structaware/internal/fault"
	"structaware/internal/structure"
	"structaware/internal/wal"
	"structaware/internal/wire"
)

// Crashpoint names (see internal/fault): the three instants where a crash
// is most likely to expose a durability bug, each exercised by the
// recovery torture tests.
const (
	faultPostAck   = "post-ack-pre-sync"    // ingest ack written, background WAL fsync pending
	faultPreRotate = "post-sync-pre-rotate" // WAL cut sealed + synced, snapshot not yet written
	faultMidRename = "mid-snapshot-rename"  // snapshot temp file written, rename pending
)

// liveConfig is the configuration shared by every live summary.
type liveConfig struct {
	size     int           // target sample size of each published snapshot
	buffer   int           // per-shard builder reservoir in keys (0 = 5×size)
	seed     uint64        // construction seed (shard i uses seed+i)
	dir      string        // snapshot persistence directory ("" = in-memory only)
	interval time.Duration // automatic rotation period (0 = manual snapshots only)
	shards   int           // parallel builders per summary (0 = GOMAXPROCS)
	queue    int           // per-shard pending-batch queue cap (0 = defaultIngestQueue)

	// Write-ahead log of acknowledged batches (-wal-sync); effective only
	// with dir set. The zero value (wal.PolicyOff) keeps the snapshot-only
	// durability of PR 7.
	walSync     wal.Policy
	walEvery    time.Duration // background fsync period under PolicyInterval (0 = wal default)
	walSegBytes int64         // segment roll threshold (0 = wal default)
}

// walEnabled reports whether live summaries keep a write-ahead log.
func (lc liveConfig) walEnabled() bool {
	return lc.dir != "" && lc.walSync != wal.PolicyOff
}

// defaultIngestQueue is the per-shard pending-batch cap applied when
// liveConfig.queue is 0: enough to keep a worker busy across transport
// jitter, small enough that a stalled worker surfaces as backpressure
// (429) in well under a second, not as unbounded
// memory.
const defaultIngestQueue = 64

func (lc liveConfig) shardCount() int {
	if lc.shards <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return lc.shards
}

func (lc liveConfig) queueCap() int {
	if lc.queue <= 0 {
		return defaultIngestQueue
	}
	return lc.queue
}

// keepSnapshots is how many persisted snapshot files are retained per live
// summary; older ones are pruned (best effort) after each successful write.
const keepSnapshots = 3

// errNoLiveData reports a snapshot request before any positive-weight key
// has been pushed (and with no recovered snapshot to fall back on).
var errNoLiveData = errors.New("live summary has no data yet")

// errIngestQueueFull reports an enqueue against a full shard queue — the
// HTTP 429 case.
var errIngestQueueFull = errors.New("ingest queue is full")

// errIngestStopped reports an enqueue after shutdown began.
var errIngestStopped = errors.New("live ingestion has stopped")

// ingestJob is one unit of shard-queue work: a batch to push, or (batch ==
// nil) a flush marker whose done channel closes once the worker reaches it —
// queues are FIFO, so a completed marker proves every batch enqueued before
// it has been pushed into the builder. A marker with resume set is a
// rotation barrier: after closing done the worker parks until resume
// closes, so jobs enqueued behind the marker cannot reach the builder
// while the rotation snapshots it.
type ingestJob struct {
	batch  *ingestBatch
	done   chan struct{}
	resume chan struct{}
}

// liveShard is one of a live summary's parallel ingestion lanes: an
// independent Builder over its slice of the population, fed by one worker
// goroutine draining a bounded queue. mu guards the builder; it is only
// ever held for O(buffer)-bounded operations (PushBatch, Snapshot), so
// ingestion stalls are bounded regardless of how long indexing or
// persistence of a rotation takes.
type liveShard struct {
	mu sync.Mutex
	b  *core.Builder
	q  chan ingestJob
}

// liveSummary is one writable summary. rotMu serializes rotations (ticker,
// forced, and the shutdown flush) so concurrent rotations cannot publish
// out of order; mu guards the snapshot lineage (base, seq); qmu guards the
// queue lifecycle (stopped excludes enqueues racing the queue close);
// walMu makes {capacity check, WAL append, queue handoff} atomic against
// each other and against rotation's cut. Lock order: walMu before qmu.
type liveSummary struct {
	name string
	axes []structure.Axis
	cfg  core.Config // merge-time config; shard i builds with Seed+i

	shards   []*liveShard
	next     atomic.Uint64 // round-robin routing counter
	accepted atomic.Int64  // keys accepted (queued or pushed) by this process
	dirty    atomic.Bool   // keys accepted since the last published snapshot

	// wal, when non-nil, logs every accepted batch before its ack. walMu
	// serializes producers (so the capacity check cannot lie:
	// only workers consume) and excludes them across the rotation cut (so a
	// record lands on a well-defined side of every snapshot).
	walMu sync.Mutex
	wal   *wal.Log

	rotMu sync.Mutex

	mu   sync.Mutex
	base *core.Summary // newest persisted snapshot of a previous process
	seq  uint64        // newest snapshot attempt sequence (consumed even by failures)
	pub  uint64        // newest attempt that actually published (installed an entry)

	qmu     sync.RWMutex
	stopped bool
}

// enqueue routes one validated batch to the next shard round-robin and
// hands it to that shard's worker, transferring ownership of the batch. A
// full queue is errIngestQueueFull, which the HTTP handler maps to a 429.
//
// With a WAL, the batch is appended (and made as durable as the sync
// policy promises) before the queue handoff, all under walMu, which is
// what makes the ack that follows crash-safe. The ordering matters twice
// over: backpressure is checked first, so a 429 leaves no WAL record, and
// the append precedes the send, because a successful send transfers batch
// ownership to the worker. The capacity check is reliable rather than
// advisory because every producer holds walMu and only workers consume —
// after it passes, the send below cannot block on a full queue for longer
// than one worker pop (a concurrent quiesce marker may take the last
// slot).
func (ls *liveSummary) enqueue(b *ingestBatch) error {
	sh := ls.shards[ls.next.Add(1)%uint64(len(ls.shards))]
	// Unlocked fast path: a full queue answers 429 without touching walMu,
	// which a WAL append (an fsync under -wal-sync=always) can hold for a
	// while — serializing this check behind it would let the shed-load
	// signal starve exactly when it matters. The peek is racy (the queue
	// may drain before a retry), but shedding is advisory; the locked
	// re-check below is what the accept path actually relies on.
	if len(sh.q) == cap(sh.q) {
		return errIngestQueueFull
	}
	ls.walMu.Lock()
	defer ls.walMu.Unlock()
	ls.qmu.RLock()
	defer ls.qmu.RUnlock()
	if ls.stopped {
		return errIngestStopped
	}
	if len(sh.q) == cap(sh.q) {
		return errIngestQueueFull
	}
	if ls.wal != nil {
		if err := ls.wal.Append(b.Coords, b.Weights); err != nil {
			// Nothing was enqueued: the caller reports the failure (503)
			// and the record, if it made it to disk, is an unacknowledged
			// tail a future replay may or may not include — exactly the
			// contract for an errored request.
			return fmt.Errorf("wal append: %w", err)
		}
	}
	// The send transfers batch ownership to the shard worker, which may
	// push and recycle it immediately — size the batch before the send,
	// never touch it after.
	rows := int64(b.Rows())
	sh.q <- ingestJob{batch: b}
	ls.accepted.Add(rows)
	ls.dirty.Store(true)
	return nil
}

// cutBarrier freezes the ingest pipeline at one instant: holding walMu (no
// producer can be mid-append) it enqueues a barrier marker to every shard
// and cuts the WAL into snapshot attempt window seq. Every record appended
// before the call is ahead of the markers and in a segment the cut sealed;
// every later one is behind the markers and in a segment with baseSeq >=
// seq. The caller then wait()s for all workers to reach their markers —
// proving the sealed records are all in the builders — snapshots the
// builders, and release()s the workers. After closeLive the workers are
// gone and the queues are already drained, so only the cut happens.
func (ls *liveSummary) cutBarrier(seq uint64) (wait, release func(), err error) {
	ls.walMu.Lock()
	defer ls.walMu.Unlock()
	ls.qmu.RLock()
	defer ls.qmu.RUnlock()
	nop := func() {}
	if ls.stopped {
		if ls.wal != nil {
			err = ls.wal.Cut(seq)
		}
		return nop, nop, err
	}
	resume := make(chan struct{})
	dones := make([]chan struct{}, len(ls.shards))
	for i, sh := range ls.shards {
		dones[i] = make(chan struct{})
		sh.q <- ingestJob{done: dones[i], resume: resume}
	}
	if ls.wal != nil {
		if err := ls.wal.Cut(seq); err != nil {
			// Unpark the workers; the markers ahead of them are harmless.
			close(resume)
			return nop, nop, err
		}
	}
	wait = func() {
		//sasvet:ok the workers only close the done channels; receiving on them is the rendezvous
		for _, done := range dones {
			<-done
		}
	}
	return wait, func() { close(resume) }, nil
}

// quiesce blocks until every batch accepted before the call has been
// pushed into its shard's builder, by riding a flush marker down each FIFO
// queue. After closeLive the workers have already drained and exited, so
// quiesce is a no-op.
func (ls *liveSummary) quiesce() {
	ls.qmu.RLock()
	if ls.stopped {
		ls.qmu.RUnlock()
		return
	}
	dones := make([]chan struct{}, len(ls.shards))
	for i, sh := range ls.shards {
		dones[i] = make(chan struct{})
		sh.q <- ingestJob{done: dones[i]}
	}
	ls.qmu.RUnlock()
	//sasvet:ok the workers only close the done channels; receiving on them is the rendezvous
	for _, done := range dones {
		<-done
	}
}

// snapSeq returns the sequence number of the last published snapshot.
// Attempt numbers (ls.seq) are consumed even by failed rotations, so this
// reports ls.pub instead: clients polling pushResponse.Snapshot to await
// durability must never observe a number no snapshot ever published.
func (ls *liveSummary) snapSeq() uint64 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.pub
}

// shardWorker is a shard's drain loop: pop a job, push it into the builder,
// recycle the batch. It exits when closeLive closes the queue, after
// draining every remaining job. Batches are fully validated before they are
// accepted, so a push failure here is an internal invariant break, logged
// rather than silently swallowed.
func (st *store) shardWorker(ls *liveSummary, sh *liveShard) {
	defer st.liveWG.Done()
	for job := range sh.q {
		if job.batch == nil {
			close(job.done)
			if job.resume != nil {
				// Rotation barrier: the builder must not advance past the
				// marker until every shard is snapshotted.
				<-job.resume
			}
			continue
		}
		sh.mu.Lock()
		err := sh.b.PushBatch(job.batch.Coords, job.batch.Weights)
		sh.mu.Unlock()
		if err != nil {
			st.logf("live %q: push of an accepted batch failed: %v", ls.name, err)
		}
		job.batch.release()
	}
}

// initLive creates the live summaries (after loadAll: recovery installs
// serving entries into the loaded map) and starts their shard workers.
// Specs pair each name with a textual axis description, e.g.
// net=bittrie:32,bittrie:32. The HTTP listener may already be serving
// (/readyz answers 503 throughout), so the live map is built privately and
// published under the store lock at the end.
func (st *store) initLive(specs []cliutil.Assignment, lc liveConfig) error {
	if lc.dir != "" {
		if err := os.MkdirAll(lc.dir, 0o755); err != nil {
			return err
		}
		// A crash between writing and renaming a snapshot temp file leaves
		// an orphan no later rotation would ever clean up.
		sweepTmpFiles(lc.dir, st.logf)
	}
	st.liveCfg = lc
	lives := make(map[string]*liveSummary, len(specs))
	var order []string
	for _, sp := range specs {
		axes, err := structure.ParseAxisSpec(sp.Value)
		if err != nil {
			return fmt.Errorf("live summary %q: %w", sp.Name, err)
		}
		ls := &liveSummary{
			name: sp.Name,
			axes: axes,
			cfg:  core.Config{Size: lc.size, Seed: lc.seed, Buffer: lc.buffer},
		}
		for i := 0; i < lc.shardCount(); i++ {
			cfg := core.Config{Size: lc.size, Seed: lc.seed + uint64(i), Buffer: lc.buffer}
			b, err := core.NewBuilder(axes, cfg)
			if err != nil {
				return fmt.Errorf("live summary %q: %w", sp.Name, err)
			}
			ls.shards = append(ls.shards, &liveShard{b: b, q: make(chan ingestJob, lc.queueCap())})
		}
		if lc.dir != "" {
			loadedSeq, err := st.recoverLive(ls)
			if err != nil {
				return err
			}
			if lc.walEnabled() {
				if err := st.recoverWAL(ls, lc, loadedSeq); err != nil {
					return err
				}
			}
		}
		for _, sh := range ls.shards {
			st.liveWG.Add(1)
			go st.shardWorker(ls, sh)
		}
		lives[sp.Name] = ls
		order = append(order, sp.Name)
	}
	st.mu.Lock()
	st.lives, st.liveOrder = lives, order
	st.mu.Unlock()
	return nil
}

// recoverWAL finishes a live summary's startup recovery: replay the WAL
// records the loaded snapshot (seq loadedSeq; 0 = none) does not cover
// into the shard builders, then open a fresh log whose first segment sorts
// after every snapshot attempt any previous process ever made — snapshot
// files and segment windows both witness attempts, and the maximum of the
// two is where this process resumes numbering. Replayed keys count as
// accepted (they are in this process's builders and will be in its next
// snapshot) and dirty the summary so that snapshot actually happens. The
// shard workers are not running yet, so the builders are pushed directly.
func (st *store) recoverWAL(ls *liveSummary, lc liveConfig, loadedSeq uint64) error {
	segs, err := wal.List(lc.dir, ls.name)
	if err != nil {
		return fmt.Errorf("live summary %q: list wal: %w", ls.name, err)
	}
	for _, sg := range segs {
		if sg.BaseSeq > ls.seq {
			ls.seq = sg.BaseSeq
		}
	}
	dec := wire.Decoder{Dims: len(ls.axes), MaxRows: maxKeysPerPush}
	next := 0
	stats, err := wal.Replay(lc.dir, ls.name, loadedSeq, dec, func(b *wire.Batch) error {
		if err := validateBatch(ls.axes, b); err != nil {
			return err
		}
		sh := ls.shards[next%len(ls.shards)]
		next++
		return sh.b.PushBatch(b.Coords, b.Weights)
	})
	if err != nil {
		return fmt.Errorf("live summary %q: wal replay: %w (a corrupt sealed segment, or a -live domain "+
			"that no longer matches; move the .wal files aside to start from the snapshot alone)", ls.name, err)
	}
	if stats.Records > 0 {
		ls.accepted.Add(stats.Keys)
		ls.dirty.Store(true)
		st.logf("replayed wal of live %q: %d keys in %d records from %d segments (snapshot %d, torn tail: %v)",
			ls.name, stats.Keys, stats.Records, stats.Segments, loadedSeq, stats.Torn)
	}
	ls.wal, err = wal.Open(wal.Options{
		Dir: lc.dir, Name: ls.name, BaseSeq: ls.seq, Policy: lc.walSync,
		SegmentBytes: lc.walSegBytes, SyncEvery: lc.walEvery, Logf: st.logf,
	})
	if err != nil {
		return fmt.Errorf("live summary %q: open wal: %w", ls.name, err)
	}
	// Segments below the loaded snapshot are fully covered by it; a crash
	// that skipped truncation (or a bit-rot fallback) may have left some.
	ls.wal.Truncate(loadedSeq)
	return nil
}

// closeWALs seals every live summary's write-ahead log. Called after the
// final shutdown flush: the logs must stay open through it so the flush's
// cut and truncation are ordinary rotations.
func (st *store) closeWALs() {
	for _, name := range st.liveOrder {
		ls := st.lives[name]
		if ls.wal == nil {
			continue
		}
		if err := ls.wal.Close(); err != nil {
			st.logf("close wal of live %q: %v", name, err)
		}
	}
}

// closeLive stops ingestion for good: no new batches are accepted, the
// shard workers drain their queues and exit. Callers stop the HTTP server
// first; when closeLive returns, every acknowledged key is in a builder,
// which is what makes the final rotation flush complete.
func (st *store) closeLive() {
	for _, name := range st.liveOrder {
		ls := st.lives[name]
		ls.qmu.Lock()
		if !ls.stopped {
			ls.stopped = true
			for _, sh := range ls.shards {
				close(sh.q)
			}
		}
		ls.qmu.Unlock()
	}
	st.liveWG.Wait()
}

// recoverLive loads the newest loadable persisted snapshot of ls, if any:
// it becomes both the initial serving entry (queries work immediately
// after a restart) and the merge base covering the pre-restart stream. A
// snapshot that fails to load (e.g. torn by power loss mid-write) is
// logged and skipped in favor of the next-newest retained one — a single
// bad file must not wedge startup while valid history sits beside it. Only
// a dir full of snapshots with none loadable is fatal. New snapshots
// always number above every file found, loadable or not. Returns the
// sequence number of the snapshot actually loaded (0 when none): the WAL
// replay threshold.
func (st *store) recoverLive(ls *liveSummary) (uint64, error) {
	snaps, err := listSnapshots(st.liveCfg.dir, ls.name)
	if err != nil || len(snaps) == 0 {
		return 0, err
	}
	ls.seq = snaps[0].seq
	var lastErr error
	for _, sn := range snaps {
		e, err := loadSummaryFile(ls.name, sn.path, time.Now())
		if err == nil {
			err = sameDomain(ls.axes, e.be.Axes)
		}
		if err != nil {
			lastErr = err
			st.logf("recover live %q: skipping snapshot %s: %v", ls.name, sn.path, err)
			continue
		}
		e.live, e.seq = true, sn.seq
		ls.base = e.sample().Summary()
		ls.pub = sn.seq
		st.install(e)
		st.logf("recovered live %q from %s (snapshot %d, %d keys)", ls.name, sn.path, sn.seq, e.be.Size())
		return sn.seq, nil
	}
	return 0, fmt.Errorf("recover live summary %q: no loadable snapshot among %d files: %w", ls.name, len(snaps), lastErr)
}

// sameDomain checks that a recovered snapshot describes the key domain the
// -live flag declares (kind and coordinate space per axis).
func sameDomain(want, got []structure.Axis) error {
	if len(want) != len(got) {
		return fmt.Errorf("domain has %d axes, -live declares %d", len(got), len(want))
	}
	for d := range want {
		if got[d].Kind != want[d].Kind || got[d].DomainSize() != want[d].DomainSize() {
			return fmt.Errorf("axis %d is %s/%d, -live declares %s/%d",
				d, got[d].Kind, got[d].DomainSize(), want[d].Kind, want[d].DomainSize())
		}
	}
	return nil
}

// rotate publishes a new snapshot of ls: cut the WAL and pause the shard
// workers at a barrier, snapshot every shard builder, release the workers,
// merge the shard snapshots (plus the recovered base when one exists) into
// one summary, compile the index, persist when configured, truncate the
// WAL segments the persisted snapshot covers, and swap the serving entry.
// Shard populations are disjoint by construction (round-robin routing
// sends each key to exactly one shard) and the base covers the pre-restart
// stream, so the HT merge keeps estimates unbiased for the whole stream.
// When force is false a summary with no new keys since its last snapshot
// is skipped (the rotation loop's idle case) and rotate returns (nil, nil).
//
// Attempt sequence numbers are consumed even by failed rotations: the
// WAL's coverage rule ("segment baseSeq B is covered exactly by snapshots
// with seq > B") only stays crash-consistent if no later attempt can reuse
// a window an earlier cut already opened. Snapshot files may therefore
// have gaps in their numbering after failures; recovery already tolerates
// that.
func (st *store) rotate(ls *liveSummary, force bool) (*entry, error) {
	ls.rotMu.Lock()
	defer ls.rotMu.Unlock()
	now := time.Now()
	// The snapshot covers every key accepted so far; later accepts
	// re-dirty, and a failed rotation re-dirties so the next tick retries.
	if !ls.dirty.Swap(false) && !force {
		return nil, nil
	}

	ls.mu.Lock()
	base := ls.base
	ls.seq++
	seq := ls.seq
	ls.mu.Unlock()

	wait, release, err := ls.cutBarrier(seq)
	if err != nil {
		st.redirty(ls)
		return nil, err
	}
	released := false
	releaseOnce := func() {
		if !released {
			released = true
			release()
		}
	}
	defer releaseOnce()
	// Every record in a segment the cut sealed is ahead of the barrier
	// markers; once the workers reach them, those records are all in the
	// builders, and nothing newer can get in until release.
	wait()
	fault.Point(faultPreRotate)

	parts := make([]*core.Summary, 0, len(ls.shards)+1)
	if base != nil {
		parts = append(parts, base)
	}
	for _, sh := range ls.shards {
		sh.mu.Lock()
		snap, err := sh.b.Snapshot()
		sh.mu.Unlock()
		if errors.Is(err, core.ErrNoData) {
			continue
		}
		if err != nil {
			st.redirty(ls)
			return nil, err
		}
		parts = append(parts, snap)
	}
	pushed := ls.accepted.Load()
	releaseOnce() // ingestion resumes; the merge/index/persist work below is off the hot path

	var sum *core.Summary
	switch len(parts) {
	case 0:
		return nil, errNoLiveData
	case 1:
		// One part — a single shard with data and no base (publish exactly
		// what Finalize would), or a restart with nothing pushed yet
		// (republish the recovered base).
		sum = parts[0]
	default:
		// The parts cover pairwise disjoint slices of the stream, which is
		// exactly the precondition of the HT merge. The seed varies per
		// epoch but stays deterministic.
		sum, err = core.MergeSummaries(ls.cfg.Size, ls.cfg.Seed+seq, parts...)
		if err != nil {
			st.redirty(ls)
			return nil, err
		}
	}
	idx, err := sum.Index()
	if err != nil {
		st.redirty(ls)
		return nil, err
	}
	path := "(live)"
	if st.liveCfg.dir != "" {
		path, err = writeSnapshotFile(st.liveCfg.dir, ls.name, seq, sum)
		if err != nil {
			st.redirty(ls)
			return nil, err
		}
		if ls.wal != nil {
			// The snapshot is durably renamed: the records in segments
			// below its window are redundant now and only now.
			ls.wal.Truncate(seq)
		}
		pruneSnapshots(st.liveCfg.dir, ls.name, keepSnapshots)
	}

	e := &entry{
		name: ls.name, path: path, be: backend.FromIndexedSummary(idx), loadedAt: now,
		live: true, seq: seq, pushed: pushed,
	}
	// install gives the new epoch its own empty answer cache — publishing
	// the snapshot is what invalidates every answer cached for the old one.
	st.install(e)
	ls.mu.Lock()
	ls.pub = seq
	ls.mu.Unlock()
	st.logf("snapshot %d of live %q: %d keys from %d pushed (%s)", seq, ls.name, sum.Size(), pushed, path)
	return e, nil
}

// redirty restores the pending-keys mark after a failed rotation so the
// next tick retries instead of silently dropping the epoch.
func (st *store) redirty(ls *liveSummary) {
	ls.dirty.Store(true)
}

// rotateAll rotates every live summary (skipping clean ones unless force),
// logging failures; it is the body of the rotation tick and the shutdown
// flush.
func (st *store) rotateAll(force bool) {
	for _, name := range st.liveOrder {
		if _, err := st.rotate(st.lives[name], force); err != nil && !errors.Is(err, errNoLiveData) {
			st.logf("snapshot of live %q failed: %v", name, err)
		}
	}
}

// rotationLoop publishes snapshots of dirty live summaries every interval
// until ctx is cancelled.
func (st *store) rotationLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			st.rotateAll(false)
		}
	}
}

// handleForceSnapshot publishes a snapshot immediately (bypassing the
// rotation interval) and reports the new serving epoch.
func (st *store) handleForceSnapshot(w http.ResponseWriter, _ *http.Request, ls *liveSummary) {
	e, err := st.rotate(ls, true)
	if errors.Is(err, errNoLiveData) {
		writeError(w, http.StatusConflict, "live summary %q has no data to snapshot (POST keys first)", ls.name)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"summary":        e.name,
		"snapshot":       e.seq,
		"size":           e.be.Size(),
		"pushed":         e.pushed,
		"total_estimate": e.be.EstimateTotal(),
		"path":           e.path,
	})
}

// ---- Snapshot persistence ---------------------------------------------------

// snapshotPath names snapshot seq of a live summary: <dir>/<name>-<seq>.sas
// with a fixed-width sequence number, so lexicographic and numeric order
// agree for the first 10^8 snapshots.
func snapshotPath(dir, name string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%08d.sas", name, seq))
}

// parseSnapshotSeq extracts the sequence number from a snapshot file name
// produced by snapshotPath for this summary name.
func parseSnapshotSeq(filename, name string) (uint64, bool) {
	mid, found := strings.CutPrefix(filename, name+"-")
	if !found {
		return 0, false
	}
	mid, found = strings.CutSuffix(mid, ".sas")
	if !found {
		return 0, false
	}
	seq, err := strconv.ParseUint(mid, 10, 64)
	return seq, err == nil
}

// snapshotFile is one persisted snapshot of a live summary.
type snapshotFile struct {
	seq  uint64
	path string
}

// listSnapshots returns a live summary's snapshot files, newest first. A
// missing directory simply means no snapshots.
func listSnapshots(dir, name string) ([]snapshotFile, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var snaps []snapshotFile
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		if v, match := parseSnapshotSeq(de.Name(), name); match {
			snaps = append(snaps, snapshotFile{v, filepath.Join(dir, de.Name())})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq > snaps[j].seq })
	return snaps, nil
}

// writeSnapshotFile persists one snapshot atomically: serialize to a temp
// file in the same directory, fsync it, then rename over the final name,
// so neither a process crash mid-write nor an OS crash right after the
// rename leaves a torn .sas file under a recoverable name. (Recovery
// tolerates torn files anyway — see recoverLive — this keeps them off the
// common path.)
func writeSnapshotFile(dir, name string, seq uint64, sum *core.Summary) (string, error) {
	path := snapshotPath(dir, name, seq)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	if _, err := sum.WriteTo(f); err != nil {
		err = errors.Join(err, f.Close())
		os.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		err = errors.Join(err, f.Close())
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	fault.Point(faultMidRename)
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	// Make the rename itself durable: without the directory fsync a power
	// loss can forget the new name even though its bytes are safe, and the
	// WAL truncation that follows would then have destroyed the only copy.
	wal.SyncDir(dir, nil)
	return path, nil
}

// sweepTmpFiles deletes orphaned snapshot temp files: a crash between
// writing <name>-<seq>.sas.tmp and renaming it leaves the temp behind, and
// since every rotation writes a fresh seq, nothing would ever reclaim it.
func sweepTmpFiles(dir string, logf func(format string, args ...any)) {
	orphans, err := filepath.Glob(filepath.Join(dir, "*.sas.tmp"))
	if err != nil {
		return
	}
	for _, p := range orphans {
		if err := os.Remove(p); err != nil {
			logf("sweep orphan %s: %v", p, err)
		} else {
			logf("removed orphaned snapshot temp file %s", p)
		}
	}
}

// pruneSnapshots removes all but the newest keep snapshot files of one live
// summary, best effort (a failed removal is retried on the next rotation).
func pruneSnapshots(dir, name string, keep int) {
	snaps, err := listSnapshots(dir, name)
	if err != nil || len(snaps) <= keep {
		return
	}
	for _, s := range snaps[keep:] {
		os.Remove(s.path)
	}
}
