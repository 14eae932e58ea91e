package main

import (
	"fmt"
	"slices"
	"time"
)

// A shared 2-CPU box slows a whole run now and then for a second or two.
// So rates and CPU costs are taken per window and reported as the mean of
// the middle half of the windows, and tail latencies, given enough
// samples, per block of tailBlock consecutive samples as the median over
// blocks: one disturbed stretch then moves a figure by one window, not by
// its whole weight.
const (
	cpuEvery   = time.Second // CPU sampling period, the window length
	minWindows = 3           // fewer whole windows: use the whole phase
	tailBlock  = 1000        // p99 of a block has exactly 10 samples beyond it
	minBlocks  = 10          // fewer blocks: pool the samples
)

// cpuSample is the server's CPU time at one instant.
type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

// sampler reads a server's CPU time every cpuEvery until end is called.
type sampler struct {
	stop chan struct{}
	done chan []cpuSample
	err  error
}

func sampleCPU(s *server) *sampler {
	sm := &sampler{stop: make(chan struct{}), done: make(chan []cpuSample, 1)}
	go func() {
		var out []cpuSample
		take := func() {
			c, err := s.cpu()
			if err != nil {
				if sm.err == nil {
					sm.err = err
				}
				return
			}
			out = append(out, cpuSample{time.Now(), c})
		}
		take()
		t := time.NewTicker(cpuEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				take()
			case <-sm.stop:
				take()
				sm.done <- out
				return
			}
		}
	}()
	return sm
}

// end stops the sampler and returns its samples, the first at its start
// and the last at end.
func (sm *sampler) end() ([]cpuSample, error) {
	close(sm.stop)
	out := <-sm.done
	if sm.err != nil {
		return nil, sm.err
	}
	return out, nil
}

// perWindow returns, for each window between consecutive samples that is
// at least half a period long, f(window start, end, CPU used). With fewer
// than minWindows such windows it returns f over the whole span instead.
func perWindow(samples []cpuSample, f func(from, to time.Time, cpu time.Duration) float64) []float64 {
	var out []float64
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if b.at.Sub(a.at) >= cpuEvery/2 {
			out = append(out, f(a.at, b.at, b.cpu-a.cpu))
		}
	}
	if len(out) < minWindows && len(samples) >= 2 {
		a, b := samples[0], samples[len(samples)-1]
		return []float64{f(a.at, b.at, b.cpu-a.cpu)}
	}
	return out
}

// timed is one latency sample and when it completed.
type timed struct {
	at time.Time
	d  time.Duration
}

// countIn returns how many samples completed in [from, to).
func countIn(xs []timed, from, to time.Time) int {
	n := 0
	for _, x := range xs {
		if !x.at.Before(from) && x.at.Before(to) {
			n++
		}
	}
	return n
}

// blockTail returns a p99 and how it was formed. With at least
// minBlocks blocks of tailBlock samples in completion order, it is the
// median over blocks of each block's p99. With fewer, a median over so few
// blocks is itself noisy, and it is the pooled highest percentile up to
// p99 that leaves at least minBeyond samples above it.
func blockTail(xs []timed) (time.Duration, string) {
	if len(xs) < minBlocks*tailBlock {
		d, label := newDist(durations(xs)).tail(9900)
		return d, label + ", pooled"
	}
	s := slices.Clone(xs)
	slices.SortFunc(s, func(a, b timed) int { return a.at.Compare(b.at) })
	var tails []float64
	for i := 0; i+tailBlock <= len(s); i += tailBlock {
		tails = append(tails, float64(newDist(durations(s[i:i+tailBlock])).at(9900)))
	}
	return time.Duration(medianFloat(tails)),
		fmt.Sprintf("median over %d blocks of %d of each block's p99; %d samples", len(tails), tailBlock, len(xs))
}

func durations(xs []timed) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = x.d
	}
	return out
}
