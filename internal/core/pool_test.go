package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"leishen/internal/core"
	"leishen/internal/simplify"
)

// TestPooledInspectConcurrent runs plain Inspect, which borrows its
// arena from the detector's pool, from several goroutines over the
// golden corpus. Every report must match its committed digest when it
// is returned and again after all goroutines finish, so reports carved
// from recycled arenas stay byte-stable. A panicking call must drop its
// arena without disturbing later calls.
func TestPooledInspectConcurrent(t *testing.T) {
	c := referenceCorpus(t)
	n := len(c.Receipts)
	want := readGolden(t)
	if len(want) < n {
		t.Fatalf("%s has %d lines, corpus has %d receipts", pipelineGolden, len(want), n)
	}
	want = want[:n]
	tick := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	det := core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: c.Env.WETH},
		Clock:    func() time.Time { return tick },
	})
	// check compares reps, the reports of the corpus receipts from
	// index lo on, with their golden digests.
	check := func(lo int, reps []*core.Report) error {
		for k, rep := range reps {
			i := lo + k
			got, err := reportDigest(rep)
			if err != nil {
				return err
			}
			if got != want[i] {
				return fmt.Errorf("receipt %d: got %q, want %q", i, got, want[i])
			}
		}
		return nil
	}

	const workers = 4
	reports := make([][]*core.Report, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps := make([]*core.Report, n)
			// Each goroutine starts at a different offset, so the
			// workers inspect different receipts at the same time.
			for k := range n {
				i := (k + g*n/workers) % n
				reps[i] = det.Inspect(c.Receipts[i])
				if err := check(i, reps[i:i+1]); err != nil {
					errs[g] = err
					return
				}
			}
			reports[g] = reps
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g, reps := range reports {
		if err := check(0, reps); err != nil {
			t.Fatalf("goroutine %d, after all inspections: %v", g, err)
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Inspect(nil) did not panic")
			}
		}()
		det.Inspect(nil)
	}()
	after := make([]*core.Report, n)
	for i, r := range c.Receipts {
		after[i] = det.Inspect(r)
	}
	if err := check(0, after); err != nil {
		t.Fatalf("after a recovered panic: %v", err)
	}
}
