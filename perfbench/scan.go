package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/scan"
)

// scanWorkload is the forensic batch use (cmd/leishen -scan, POST
// /batch): the whole corpus held in memory and scanned with scan.Scan
// on nproc workers, pass after pass. Detection stages do the work; the
// archive, encoding and serving layers do none.
type scanWorkload struct {
	env      *corpusEnv
	receipts []*evm.Receipt
	// wantDigest / wantSum come from a sequential Inspect loop.
	wantDigest [sha256.Size]byte
	wantSum    scan.Summary
}

func setupScan(cfg config) (workload, error) {
	env, err := newCorpusEnv(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	w := &scanWorkload{env: env, receipts: env.corpus.Receipts}
	reps := make([]*core.Report, len(w.receipts))
	for i, r := range w.receipts {
		reps[i] = env.det.Inspect(r)
		w.wantSum.Observe(reps[i])
	}
	if w.wantDigest, err = reportsDigest(reps); err != nil {
		return nil, err
	}
	return w, nil
}

// reportsDigest hashes the reports' JSON in order, wall time zeroed.
func reportsDigest(reps []*core.Report) ([sha256.Size]byte, error) {
	h := sha256.New()
	for _, rep := range reps {
		r := *rep
		r.Elapsed = 0
		b, err := json.Marshal(&r)
		if err != nil {
			return [sha256.Size]byte{}, err
		}
		h.Write(b)
	}
	var d [sha256.Size]byte
	copy(d[:], h.Sum(nil))
	return d, nil
}

func (w *scanWorkload) close() error { return nil }

// check compares one pass's output with the sequential reference: the
// summary always, the full JSON digest when full is set.
func (w *scanWorkload) check(reps []*core.Report, sum scan.Summary, full bool) error {
	if sum != w.wantSum || len(reps) != len(w.receipts) {
		return fmt.Errorf("scan summary %+v over %d reports, want %+v over %d", sum, len(reps), w.wantSum, len(w.receipts))
	}
	if !full {
		return nil
	}
	d, err := reportsDigest(reps)
	if err != nil {
		return err
	}
	if d != w.wantDigest {
		return fmt.Errorf("scan report digest differs from the sequential Inspect loop")
	}
	return nil
}

// latencyEvery makes every latencyEvery-th scan pass a single-worker
// one. Per-transaction latency is taken from those passes only, the
// way the paper measures it (one transaction at a time): with every
// worker busy, the figure follows how hard the host's other tenants
// press on the shared cores more than it follows the detector.
const latencyEvery = 4

func (w *scanWorkload) run(cfg config) (*result, error) {
	many, one := scan.Options{Workers: cfg.nproc}, scan.Options{Workers: 1}
	res := &result{}
	// One untimed pass warms the arena pool.
	reps, sum := scan.Scan(w.env.det, w.receipts, many)
	if err := w.check(reps, sum, true); err != nil {
		return nil, err
	}
	// Each single-worker pass is one latency window: its p75 and p90
	// are taken over all of its reports, and the run reports the median
	// pass.
	var rates, p75s, p90s []float64
	elapsed := make([]float64, 0, len(w.receipts))
	heap := startHeapSampler()
	cpu0 := cpuTime()
	deadline := time.Now().Add(seconds(cfg.seconds))
	for pass := 0; pass < 2*latencyEvery || time.Now().Before(deadline); pass++ {
		opts := many
		if pass%latencyEvery == latencyEvery-1 {
			opts = one
		}
		t0 := time.Now()
		reps, sum = scan.Scan(w.env.det, w.receipts, opts)
		dt := time.Since(t0)
		res.attempted += len(reps)
		for _, rep := range reps {
			if rep.Error != "" {
				res.failed++
			}
		}
		if opts.Workers == 1 {
			elapsed = elapsed[:0]
			for _, rep := range reps {
				elapsed = append(elapsed, float64(rep.Elapsed)/1e6)
			}
			p75s = append(p75s, quantile(elapsed, 0.75))
			p90s = append(p90s, quantile(elapsed, 0.90))
		} else {
			rates = append(rates, float64(len(reps))/dt.Seconds())
		}
		if err := w.check(reps, sum, pass == 0); err != nil {
			return nil, err
		}
	}
	cpu := cpuTime() - cpu0
	peak := heap.Stop()
	if err := w.check(reps, sum, true); err != nil {
		return nil, err
	}
	res.set("ops_per_cpu_s", float64(res.attempted)/cpu.Seconds(), "1/s")
	res.set("lat_p75_ms", median(p75s), "ms")
	res.set("lat_p90_ms", median(p90s), "ms")
	res.set("peak_live_heap_mb", peak, "MB")
	res.note("scan_tx_per_s=%.0f workers=%d passes=%d latency_passes=%d txs_per_pass=%d", median(rates), cfg.nproc, len(rates)+len(p75s), len(p75s), len(w.receipts))
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
