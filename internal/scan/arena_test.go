package scan_test

import (
	"testing"

	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/scan"
)

// TestScanArenaReuseAcrossRuns scans the same corpus twice through one
// engine for several worker counts. The second run draws warmed arenas
// from the pool; its reports must be byte-identical to the first run's,
// and the first run's reports must stay byte-stable after the second
// run (slab regions are never rewritten).
func TestScanArenaReuseAcrossRuns(t *testing.T) {
	c := testCorpus(t)
	det := frozenDetector(c)
	for _, workers := range []int{1, 2, 4, 8} {
		opts := scan.Options{Workers: workers}
		firstReps, firstSum := scan.Scan(det, c.Receipts, opts)
		first := make([]string, len(firstReps))
		for i, rep := range firstReps {
			first[i] = reportBytes(t, rep)
		}
		secondReps, secondSum := scan.Scan(det, c.Receipts, opts)
		if secondSum != firstSum {
			t.Fatalf("workers=%d: summary drifted across runs: %+v vs %+v", workers, secondSum, firstSum)
		}
		for i, rep := range secondReps {
			if got := reportBytes(t, rep); got != first[i] {
				t.Fatalf("workers=%d: report %d differs on arena-reused run:\n got: %s\nwant: %s", workers, i, got, first[i])
			}
		}
		// The second run appended to the same pooled slabs; the first
		// run's reports must be untouched.
		for i, rep := range firstReps {
			if got := reportBytes(t, rep); got != first[i] {
				t.Fatalf("workers=%d: first-run report %d mutated by later scan", workers, i)
			}
		}
	}
}

// TestInspectAllocBudget pins the steady-state detection hot path to
// the allocation budget the bench gate enforces: at most 2 allocations
// per transaction, averaged over the corpus, after one warm pass. It
// holds for a caller-owned arena (InspectScratch) and for plain
// Inspect, which draws its arena from the detector's pool.
func TestInspectAllocBudget(t *testing.T) {
	c := testCorpus(t)
	det := frozenDetector(c)
	arena := core.NewArena()
	for _, entry := range []struct {
		name    string
		pooled  bool
		inspect func(*evm.Receipt) *core.Report
	}{
		{"InspectScratch", false, func(r *evm.Receipt) *core.Report { return det.InspectScratch(r, arena) }},
		{"Inspect", true, det.Inspect},
	} {
		t.Run(entry.name, func(t *testing.T) {
			if entry.pooled && raceEnabled {
				t.Skip("the race detector drops pooled arenas at random, so a pooled count means nothing")
			}
			pass := func() {
				for _, r := range c.Receipts {
					entry.inspect(r)
				}
			}
			pass() // grow buffers and intern tables to their high-water marks
			perTx := testing.AllocsPerRun(3, pass) / float64(len(c.Receipts))
			if perTx > 2.0 {
				t.Errorf("steady-state allocations = %.3f per tx, budget is 2.0", perTx)
			}
		})
	}
}

// TestDetailIntoAllocFree pins the reused-buffer Detail rendering to
// zero steady-state allocations.
func TestDetailIntoAllocFree(t *testing.T) {
	c := testCorpus(t)
	det := frozenDetector(c)
	arena := core.NewArena()
	reps := make([]*core.Report, 0, len(c.Receipts))
	for _, r := range c.Receipts {
		reps = append(reps, det.InspectScratch(r, arena))
	}
	render := func() {
		for _, rep := range reps {
			arena.DetailInto(rep)
		}
	}
	render() // size the buffer to the largest report
	if allocs := testing.AllocsPerRun(5, render); allocs > 0 {
		t.Errorf("DetailInto allocated %.1f times per corpus pass, want 0", allocs)
	}
}
