package scan_test

import (
	"fmt"
	"runtime"
	"testing"

	"leishen/internal/core"
	"leishen/internal/scan"
	"leishen/internal/simplify"
	"leishen/internal/world"
)

func benchDetector(c *world.Corpus) *core.Detector {
	return core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: c.Env.WETH},
	})
}

// BenchmarkScanThroughput measures corpus scan rate by worker count. The
// tx/s metric is the headline: on multi-core hardware the pooled rows
// scale near-linearly over workers=1 until GOMAXPROCS is exhausted
// (compare rows only up to runtime.GOMAXPROCS(0); beyond that the pool
// just adds scheduling overhead).
func BenchmarkScanThroughput(b *testing.B) {
	c := testCorpus(b)
	det := benchDetector(c)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			if workers > 1 && runtime.GOMAXPROCS(0) == 1 {
				b.Logf("GOMAXPROCS=1: pooled rows cannot beat sequential on this host")
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sum scan.Summary
			for i := 0; i < b.N; i++ {
				_, sum = scan.Scan(det, c.Receipts, scan.Options{Workers: workers})
			}
			b.StopTimer()
			if sum.Inspected != len(c.Receipts) {
				b.Fatalf("inspected %d of %d", sum.Inspected, len(c.Receipts))
			}
			txPerSec := float64(b.N) * float64(len(c.Receipts)) / b.Elapsed().Seconds()
			b.ReportMetric(txPerSec, "tx/s")
			b.ReportMetric(0, "ns/op") // tx/s is the meaningful rate here
		})
	}
}

// BenchmarkScanAllocs measures steady-state allocations per transaction
// with a reused scratch — the allocation-free-hot-path target. Only
// report-owned data (the report struct and its result slices) should
// allocate; the pipeline intermediates are scratch-backed.
func BenchmarkScanAllocs(b *testing.B) {
	c := testCorpus(b)
	det := benchDetector(c)
	scratch := core.NewArena()
	// Warm the scratch to steady-state capacity.
	for _, r := range c.Receipts {
		det.InspectScratch(r, scratch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.InspectScratch(c.Receipts[i%len(c.Receipts)], scratch)
	}
}
