package main

import (
	"fmt"
	"io"
	"time"

	"leishen/internal/archive/torture"
)

// FaultResult is the BENCH_fault.json document: the crash-consistency
// torture matrix. Unlike the throughput passes, this one is a pure
// correctness gate — the interesting number is Violations, which must
// be zero.
type FaultResult struct {
	// Schedules are the per-workload results (append, rotate, replay,
	// checkpoint), each enumerating every crash point of its run.
	Schedules []torture.Result `json:"schedules"`
	// CrashPoints / Recoveries / Violations total across schedules.
	// Every crash point is recovered under three disk variants
	// (durable, volatile, torn).
	CrashPoints int `json:"crash_points"`
	Recoveries  int `json:"recoveries"`
	Violations  int `json:"violations"`
	// TotalMillis is the wall time of the whole matrix.
	TotalMillis float64 `json:"total_millis"`
}

// benchFault runs the full torture matrix; the shape is the same under
// -smoke.
func benchFault(bool) (result, error) {
	start := time.Now()
	results, err := torture.RunAll()
	if err != nil {
		return nil, err
	}
	res := &FaultResult{Schedules: results}
	for _, r := range results {
		res.CrashPoints += r.CrashPoints
		res.Recoveries += r.Recoveries
		res.Violations += len(r.Violations)
	}
	res.TotalMillis = float64(time.Since(start).Microseconds()) / 1000
	return res, nil
}

func (r *FaultResult) summary() string {
	return fmt.Sprintf("%d crash points, %d recoveries across %d schedules, %d violation(s) in %.0f ms",
		r.CrashPoints, r.Recoveries, len(r.Schedules), r.Violations, r.TotalMillis)
}

// gate fails on any recovery-invariant violation, logging each one.
func (r *FaultResult) gate(log io.Writer) error {
	for _, s := range r.Schedules {
		for _, v := range s.Violations {
			fmt.Fprintf(log, "fault violation: %s point %d (%s, %s): %s\n",
				v.Schedule, v.CrashPoint, v.Op, v.Variant, v.Detail)
		}
	}
	if r.Violations > 0 {
		return fmt.Errorf("crash-consistency torture: %d violation(s)", r.Violations)
	}
	return nil
}
