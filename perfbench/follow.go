package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"leishen/internal/evm"
)

// steadyRate is the open-loop release rate of the traced run's steady
// follow phase, in blocks per second: about a third of what one
// follower catches up on the reference 2-core host, so the daemon idles
// between blocks and each block pays its own fsync. It is a constant,
// never derived from a run.
const steadyRate = 150

// catchupLaps sizes the follow-catchup backlog: three laps of the
// corpus' flash-loan blocks, about 350 blocks and 18,000 screened
// transactions, drained per round.
const catchupLaps = 3

// checkStride samples every stride-th screened receipt for the
// stored-bytes check, which re-inspects it from scratch.
const checkStride = 16

// pollInterval spaces the GET /checkpoint polls while a released block
// is not yet visible; it bounds how much a latency reads high.
const pollInterval = 50 * time.Microsecond

// lapsFor returns how many laps cover n blocks, plus one spare.
func lapsFor(env *corpusEnv, n int) int { return n/len(env.blocks) + 2 }

// openLoop is the outcome of one scheduled release of n blocks.
type openLoop struct {
	due, visible []time.Time
	late         []time.Duration
	maxLag       uint64
}

// runOpenLoop releases heights from+1 .. from+n of d's source at rate
// blocks/s, steps the follower whenever a block is released, and polls
// GET /checkpoint to stamp the moment each height becomes durable and
// visible. Step errors abort it.
func runOpenLoop(d *daemon, from, n int, rate float64) (*openLoop, error) {
	ol := &openLoop{due: make([]time.Time, n), visible: make([]time.Time, n), late: make([]time.Duration, n)}
	period := time.Duration(float64(time.Second) / rate)
	stepCh := make(chan struct{}, 1)
	obsCh := make(chan struct{}, 1)
	stop := make(chan struct{})
	var (
		wg      sync.WaitGroup
		seen    atomic.Uint64
		maxLag  atomic.Uint64
		stepErr error
	)
	t0 := time.Now().Add(2 * time.Millisecond)
	for i := range ol.due {
		ol.due[i] = t0.Add(time.Duration(i) * period)
	}
	wg.Add(2)
	go func() { // generator: releases on schedule, never waits for the follower
		defer wg.Done()
		for i := 0; i < n; i++ {
			if wait := time.Until(ol.due[i]); wait > 0 {
				time.Sleep(wait)
			}
			d.src.head.Store(uint64(from + i + 1))
			ol.late[i] = time.Since(ol.due[i])
			if lag := uint64(i+1) - seen.Load(); lag > maxLag.Load() {
				maxLag.Store(lag)
			}
			for _, ch := range []chan struct{}{stepCh, obsCh} {
				select {
				case ch <- struct{}{}:
				default:
				}
			}
		}
	}()
	go func() { // the daemon's stepping loop, woken by each release
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-stepCh:
			}
			for {
				processed, err := d.fol.Step()
				if err != nil {
					stepErr = err
					return
				}
				if !processed {
					break
				}
			}
		}
	}()

	var obsErr error
	poller := newCheckpointPoller(d)
	limit := ol.due[n-1].Add(30 * time.Second)
	for done := 0; done < n && obsErr == nil; {
		if uint64(from+done) >= d.src.head.Load() {
			select {
			case <-obsCh:
			case <-time.After(time.Millisecond):
			}
			continue
		}
		cp, err := poller.poll()
		now := time.Now()
		switch {
		case err != nil:
			obsErr = err
		case now.After(limit):
			obsErr = fmt.Errorf("block %d not durable 30 s after its due time", from+done+1)
		}
		for ; done < n && uint64(from+done) < cp; done++ {
			ol.visible[done] = now
		}
		seen.Store(uint64(done))
		if uint64(from+done) < d.src.head.Load() {
			time.Sleep(pollInterval)
		}
	}
	close(stop)
	wg.Wait()
	if stepErr != nil {
		return nil, fmt.Errorf("follower step: %w", stepErr)
	}
	if obsErr != nil {
		return nil, obsErr
	}
	ol.maxLag = maxLag.Load()
	return ol, nil
}

// latenciesMs returns each block's due-to-visible latency.
func (ol *openLoop) latenciesMs() []float64 {
	out := make([]float64, len(ol.due))
	for i := range out {
		out[i] = float64(ol.visible[i].Sub(ol.due[i])) / 1e6
	}
	return out
}

// catchupWorkload is restart after downtime: a backlog of sealed blocks
// exists when the follower starts and the catch-up loop drains it into a
// fresh archive, round after round.
type catchupWorkload struct {
	env    *corpusEnv
	blocks []*evm.Block
}

func setupCatchup(cfg config) (workload, error) {
	env, err := newCorpusEnv(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	return &catchupWorkload{env: env, blocks: env.buildLaps(catchupLaps)}, nil
}

func (w *catchupWorkload) close() error { return nil }

// drain is one catch-up round's timing: wall and process CPU time from
// the first Step to the final Flush, and each Step's duration.
type drain struct {
	wall, cpu time.Duration
	steps     []time.Duration
}

// catchUpRound opens a fresh daemon with the whole backlog sealed and
// drains it the way follower.CatchUp does — Step until caught up, then
// Flush — timing each Step.
func catchUpRound(dir string, env *corpusEnv, blocks []*evm.Block) (drain, error) {
	d, err := openDaemon(dir, env, blocks)
	if err != nil {
		return drain{}, err
	}
	d.src.head.Store(uint64(len(blocks)))
	steps := make([]time.Duration, 0, len(blocks))
	t0, cpu0 := time.Now(), cpuTime()
	for err == nil {
		ts := time.Now()
		var processed bool
		if processed, err = d.fol.Step(); !processed {
			break
		}
		steps = append(steps, time.Since(ts))
	}
	if err == nil {
		err = d.fol.Flush()
	}
	dr := drain{wall: time.Since(t0), cpu: cpuTime() - cpu0, steps: steps}
	if err == nil {
		err = checkArchive(d, env.det, len(blocks), checkStride*4)
	}
	if cerr := d.close(true); err == nil {
		err = cerr
	}
	return dr, err
}

func (w *catchupWorkload) run(cfg config) (*result, error) {
	// One untimed round warms the page cache and the arena pool.
	if _, err := catchUpRound(filepath.Join(cfg.dir, "warm"), w.env, w.blocks); err != nil {
		return nil, err
	}
	res := &result{}
	var rates, perCPU, cpuPerBlock, wallPerBlock, steps []float64
	txs := float64(catchupLaps * w.env.screenedPerLap)
	blocks := float64(len(w.blocks))
	heap := startHeapSampler()
	deadline := time.Now().Add(seconds(cfg.seconds))
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		dr, err := catchUpRound(filepath.Join(cfg.dir, fmt.Sprintf("round-%d", round)), w.env, w.blocks)
		res.attempted += len(w.blocks)
		if err != nil {
			return nil, err
		}
		rates = append(rates, txs/dr.wall.Seconds())
		perCPU = append(perCPU, txs/dr.cpu.Seconds())
		cpuPerBlock = append(cpuPerBlock, float64(dr.cpu)/1e6/blocks)
		wallPerBlock = append(wallPerBlock, float64(dr.wall)/1e6/blocks)
		steps = append(steps, durationsMs(dr.steps)...)
	}
	peak := heap.Stop()
	res.set("ops_per_cpu_s", median(perCPU), "1/s")
	// Latency is the process CPU time one block costs in a drain, through
	// the final Flush: screening, detection, encoding, the writer's
	// appends and GC. The drain's wall time also waits on fsync, which on
	// a shared host swings a third run to run, so it is printed on the
	// information line and not gated.
	res.set("lat_p75_ms", quantile(cpuPerBlock, 0.75), "ms")
	res.set("lat_p90_ms", quantile(cpuPerBlock, 0.90), "ms")
	res.set("peak_live_heap_mb", peak, "MB")
	res.note("catchup_tx_per_s=%.0f wall_ms_per_block_p50=%.4f wall_ms_per_block_p90=%.4f step_p50_ms=%.4f step_p75_ms=%.4f step_p90_ms=%.4f step_p99_ms=%.3f rounds=%d backlog_blocks=%d follower_workers=%d",
		median(rates), quantile(wallPerBlock, 0.50), quantile(wallPerBlock, 0.90),
		windowed(steps, 0.50), windowed(steps, 0.75), windowed(steps, 0.90), windowed(steps, 0.99), len(rates), len(w.blocks), followWorkers)
	return res, nil
}
