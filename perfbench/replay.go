package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"structaware/internal/anscache"
	"structaware/internal/core"
	"structaware/internal/structure"
	"structaware/internal/wal"
	"structaware/internal/wire"
	"structaware/internal/xmath"
)

// The in-process replay times each layer's public functions on the run's
// own generated inputs, the way sasserve calls them: per frame decode, WAL
// append and PushBatch into one of two shard builders; per publish a
// Snapshot of each shard, MergeSummaries, Index and a synced WriteTo; on
// recovery ReadSummary and WAL replay; per query ParseRange, the answer
// cache and the index. Calls that take nanoseconds are timed in chunks of
// queryChunk, so that reading the clock does not dominate them.
const (
	replayFrames  = 256 // 1 Mi keys, the size of query's WAL tail
	syncEvery     = 16  // frames between WAL syncs
	replayQueries = 20 * queryChunk
	queryChunk    = 256
	cacheCapacity = 4096 // sasserve's default -cache-size
	replayRepeats = 3    // recoveries replayed
)

var replayAxes = []structure.Axis{structure.BitTrieAxis(keyBits), structure.BitTrieAxis(keyBits)}

// replayLayers runs the replay under tr in directory dir. snapFile is the
// snapshot the server published last; its summary answers the queries.
func replayLayers(tr *tracer, pool *keyPool, mix *queryMix, seed uint64, snapFile, dir string) error {
	if err := replayWrites(tr, pool, seed, dir); err != nil {
		return err
	}
	is, err := replayRecovery(tr, snapFile, dir)
	if err != nil {
		return err
	}
	return replayQueriesOn(tr, mix, seed, is)
}

func newShards(seed uint64) ([]*core.Builder, error) {
	bs := make([]*core.Builder, 2)
	for i := range bs {
		b, err := core.NewBuilder(replayAxes, core.Config{Size: 4096, Seed: seed + uint64(i)})
		if err != nil {
			return nil, err
		}
		bs[i] = b
	}
	return bs, nil
}

func replayWrites(tr *tracer, pool *keyPool, seed uint64, dir string) error {
	shards, err := newShards(seed)
	if err != nil {
		return err
	}
	lg, err := wal.Open(wal.Options{Dir: dir, Name: "replay", Policy: wal.PolicyInterval, SyncEvery: time.Hour})
	if err != nil {
		return err
	}
	dec := wire.Decoder{Dims: 2}
	var batch wire.Batch
	for i := 0; i < replayFrames; i++ {
		f := &pool.frames[i%len(pool.frames)]
		root := tr.begin("replay.frame", ref{})
		sp := tr.begin("wire.decode", root)
		err := dec.Decode(f.body, &batch)
		tr.end(sp, frameKeys)
		if err == nil {
			sp = tr.begin("wal.append", root)
			err = lg.Append(batch.Coords, batch.Weights)
			tr.end(sp, frameKeys)
		}
		if err == nil {
			sp = tr.begin("core.push", root)
			err = shards[i%2].PushBatch(batch.Coords, batch.Weights)
			tr.end(sp, frameKeys)
		}
		tr.end(root, frameKeys)
		if err != nil {
			lg.Close()
			return fmt.Errorf("replay frame %d: %w", i, err)
		}
		if (i+1)%syncEvery == 0 {
			sp := tr.begin("wal.sync", ref{})
			err = lg.Sync()
			tr.end(sp, 1)
		}
		if err == nil && (i+1)%snapEveryFrames == 0 {
			err = replayPublish(tr, shards, seed+uint64(i), filepath.Join(dir, fmt.Sprintf("replay-%d.sas", i)))
		}
		if err != nil {
			lg.Close()
			return err
		}
	}
	return lg.Close()
}

// replayPublish is one rotation: snapshot each shard, merge, index, persist.
func replayPublish(tr *tracer, shards []*core.Builder, seed uint64, path string) error {
	root := tr.begin("replay.publish", ref{})
	defer tr.end(root, 1)
	parts := make([]*core.Summary, 0, len(shards))
	for _, b := range shards {
		sp := tr.begin("core.snapshot", root)
		s, err := b.Snapshot()
		tr.end(sp, 1)
		if err != nil {
			return err
		}
		parts = append(parts, s)
	}
	sp := tr.begin("core.merge", root)
	sum, err := core.MergeSummaries(4096, seed, parts...)
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	sp = tr.begin("core.index", root)
	_, err = sum.Index()
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	sp = tr.begin("core.persist", root)
	defer tr.end(sp, 1)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := sum.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayRecovery reads the server's published snapshot and replays the
// replay's WAL into fresh builders, replayRepeats times, and returns the
// snapshot's compiled index.
func replayRecovery(tr *tracer, snapFile, dir string) (*core.IndexedSummary, error) {
	var sum *core.Summary
	for i := 0; i < replayRepeats; i++ {
		root := tr.begin("replay.recover", ref{})
		sp := tr.begin("core.read", root)
		f, err := os.Open(snapFile)
		if err == nil {
			sum, err = core.ReadSummary(f)
			f.Close()
		}
		tr.end(sp, 1)
		if err != nil {
			tr.end(root, 1)
			return nil, fmt.Errorf("read %s: %w", snapFile, err)
		}
		shards, err := newShards(1)
		if err != nil {
			tr.end(root, 1)
			return nil, err
		}
		next := 0
		sp = tr.begin("wal.replay", root)
		stats, err := wal.Replay(dir, "replay", 0, wire.Decoder{Dims: 2}, func(b *wire.Batch) error {
			next++
			return shards[next%2].PushBatch(b.Coords, b.Weights)
		})
		tr.end(sp, int(stats.Keys))
		tr.end(root, 1)
		if err != nil {
			return nil, fmt.Errorf("wal replay: %w", err)
		}
		if stats.Keys != replayFrames*frameKeys {
			return nil, fmt.Errorf("wal replay: %d keys, want %d", stats.Keys, replayFrames*frameKeys)
		}
	}
	return sum.Index()
}

// replayQueriesOn replays the query mix's read path in chunks: parse every
// single-range text, look each up in (and on a miss add it to) an answer
// cache of the server's capacity, and estimate the misses and the batches
// on the index.
func replayQueriesOn(tr *tracer, mix *queryMix, seed uint64, is *core.IndexedSummary) error {
	r := xmath.NewRand(seed)
	cache := anscache.New(cacheCapacity)
	body := []byte(strings.Repeat("x", 200)) // about a rendered single-range answer
	texts := make([]string, 0, queryChunk)
	var batches [][]string
	for done := 0; done < replayQueries; done += queryChunk {
		texts, batches = texts[:0], batches[:0]
		for i := 0; i < queryChunk; i++ {
			switch kind, idx := mix.pick(r); kind {
			case qBatch:
				batches = append(batches, mix.batchTexts[idx])
			case qUniform:
				texts = append(texts, mix.uniformTexts[idx])
			default:
				texts = append(texts, mix.hotTexts[idx])
			}
		}
		root := tr.begin("replay.queries", ref{})
		sp := tr.begin("structure.parse", root)
		boxes, queries, err := parseAll(texts, batches)
		tr.end(sp, len(texts)+len(batches)*batchRanges)
		if err != nil {
			tr.end(root, queryChunk)
			return err
		}
		sp = tr.begin("anscache.get", root)
		missed := boxes[:0:0]
		for i, t := range texts {
			if _, ok := cache.Get(t); !ok {
				cache.Put(t, body)
				missed = append(missed, boxes[i])
			}
		}
		tr.end(sp, len(texts))
		sp = tr.begin("queryidx.estimate", root)
		for _, b := range missed {
			is.EstimateRange(b)
		}
		tr.end(sp, len(missed))
		sp = tr.begin("queryidx.estimate_batch", root)
		for _, q := range queries {
			is.EstimateRanges(q)
		}
		tr.end(sp, len(queries)*batchRanges)
		tr.end(root, queryChunk)
	}
	return nil
}

// parseAll parses the single ranges and the batches' ranges.
func parseAll(texts []string, batches [][]string) ([]structure.Range, []structure.Query, error) {
	boxes := make([]structure.Range, len(texts))
	for i, t := range texts {
		b, err := structure.ParseRange(t)
		if err != nil {
			return nil, nil, err
		}
		boxes[i] = b
	}
	queries := make([]structure.Query, len(batches))
	for i, bt := range batches {
		q := make(structure.Query, len(bt))
		for j, t := range bt {
			b, err := structure.ParseRange(t)
			if err != nil {
				return nil, nil, err
			}
			q[j] = b
		}
		queries[i] = q
	}
	return boxes, queries, nil
}
