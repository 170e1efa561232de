// Command benchjson measures scan-engine, archive, lint and HTTP-serve
// throughput and writes the results as machine-readable JSON
// (BENCH_scan.json, BENCH_archive.json, BENCH_lint.json,
// BENCH_serve.json), so performance can be tracked across commits
// without parsing `go test -bench` output:
//
//	benchjson                      # default corpus, GOMAXPROCS workers
//	benchjson -workers 8 -scale 2  # explicit pool size and corpus scale
//	benchjson -smoke               # tiny corpus, one round — CI gate that
//	                               # the harness itself still works
//	benchjson -out BENCH_scan.json # scan output path ("" skips the pass)
//	benchjson -archive-out BENCH_archive.json # archive output path
//	benchjson -serve-out BENCH_serve.json     # HTTP serve output path
//
// The scan pass times two sweeps over the same generated corpus — a
// sequential scan (workers=1) and a parallel scan — and reports both as
// transactions/second, plus the steady-state heap allocations per
// transaction of the scratch-reusing hot path. On a single-core host the
// parallel figure tracks the sequential one (there is no parallelism to
// exploit); the gain appears with GOMAXPROCS > 1.
//
// The scan pass also emits a per-worker-count scaling table, so the
// parallel figure can be read against the host's core count instead of
// trusting a single speedup number.
//
// The archive pass appends 100k synthetic report records (5k under
// -smoke) into a fresh archive in a temporary directory at two
// durability cadences — a synced checkpoint every checkpointEvery
// records (the per-block path) and the group-commit cadence of deferred
// checkpoints with one sync per batch — then reopens it both ways
// (sidecar-indexed and full replay) and times a flag-filtered Select,
// which segment fence/bloom pruning answers from a few segments.
//
// The serve pass (serve.go) checks the /reports routes' bodies against
// a json.NewEncoder oracle and their allocations against a per-shape
// ceiling before timing them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"leishen/internal/archive"
	"leishen/internal/core"
	"leishen/internal/scan"
	"leishen/internal/simplify"
	"leishen/internal/types"
	"leishen/internal/uint256"
	"leishen/internal/world"
)

// Result is the BENCH_scan.json schema.
type Result struct {
	// Corpus provenance.
	Seed     int64 `json:"seed"`
	ScalePct int   `json:"scale_pct"`
	Txs      int   `json:"txs"`
	// Throughput, transactions per second.
	SeqTxPerSec float64 `json:"seq_tx_per_sec"`
	ParTxPerSec float64 `json:"par_tx_per_sec"`
	Speedup     float64 `json:"speedup"`
	// Pool shape.
	Workers    int `json:"workers"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// Steady-state heap allocations per transaction with a reused
	// core.Arena (the engine's per-worker configuration), and the budget
	// the -scan-gate enforces on it.
	AllocsPerTx  float64 `json:"allocs_per_tx"`
	AllocsBudget float64 `json:"allocs_budget"`
	// FastPathHitRate is the fraction of counted uint256 operations that
	// took a small-value fast path during a full corpus sweep —
	// hits/(hits+falls), measured with counting enabled on a dedicated
	// untimed pass.
	FastPathHitRate float64 `json:"fast_path_hit_rate"`
	// Rounds is how many timed passes the medians were taken over.
	Rounds int `json:"rounds"`
	// Scaling is throughput at each worker count — on a single-core host
	// (gomaxprocs 1) the curve is flat and the Speedup figure above says
	// nothing about multi-core gains.
	Scaling []ScalePoint `json:"scaling"`
}

// ScalePoint is one row of the worker-scaling table. GOMAXPROCS is
// recorded per row so a flat curve is self-explaining: workers beyond
// the scheduler's core budget cannot add throughput.
type ScalePoint struct {
	Workers    int     `json:"workers"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	TxPerSec   float64 `json:"tx_per_sec"`
}

// ArchiveResult is the BENCH_archive.json schema.
type ArchiveResult struct {
	// Workload shape.
	Records         int   `json:"records"`
	PayloadBytes    int   `json:"payload_bytes"`
	CheckpointEvery int   `json:"checkpoint_every"`
	SegmentBytes    int64 `json:"segment_bytes"`
	// Append throughput at the follower's per-block durability cadence
	// (a synced checkpoint every CheckpointEvery records), records per
	// second.
	AppendPerSec float64 `json:"append_per_sec"`
	// BatchedAppendPerSec is the group-commit cadence the follower's
	// writer actually runs: checkpoints appended deferred, one Sync per
	// SyncEvery checkpoints.
	BatchedAppendPerSec float64 `json:"batched_append_per_sec"`
	SyncEvery           int     `json:"sync_every"`
	// Reopen cost, both paths: ReopenMillis is a full-replay open
	// (sidecars ignored — the worst-case recovery path and the
	// pre-sidecar baseline), ReopenIndexedMillis an open that loads
	// every sealed segment from its .idx sidecar.
	ReopenMillis        float64 `json:"reopen_ms"`
	ReopenRecPerSec     float64 `json:"reopen_rec_per_sec"`
	ReopenIndexedMillis float64 `json:"reopen_indexed_ms"`
	ReopenSpeedup       float64 `json:"reopen_speedup"`
	// Select throughput for a flag-filtered query (FlagAttack lives in a
	// narrow band of blocks, so fence pruning skips most segments).
	SelectPrunedPerSec float64 `json:"select_pruned_per_sec"`
	// Resulting on-disk shape.
	Segments int   `json:"segments"`
	DirBytes int64 `json:"dir_bytes"`
	// Rounds is how many timed passes the best figures were taken over.
	Rounds int `json:"rounds"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed     = flag.Int64("seed", 7, "corpus seed")
		scale    = flag.Int("scale", 2, "corpus scale percent")
		workers  = flag.Int("workers", 0, "parallel pass pool size (0 = GOMAXPROCS)")
		out      = flag.String("out", "BENCH_scan.json", "scan output path (- for stdout, \"\" to skip)")
		arcOut   = flag.String("archive-out", "BENCH_archive.json", "archive output path (- for stdout, \"\" to skip)")
		lintOut  = flag.String("lint-out", "BENCH_lint.json", "lint timing output path (- for stdout, \"\" to skip)")
		serveOut = flag.String("serve-out", "BENCH_serve.json", "serve output path (- for stdout, \"\" to skip)")
		metOut   = flag.String("metrics-out", "BENCH_metrics.json", "metrics overhead output path (- for stdout, \"\" to skip); the pass fails if instrumentation costs >3% throughput or allocates per tx")
		faultOut = flag.String("fault-out", "BENCH_fault.json", "crash-consistency torture output path (- for stdout, \"\" to skip); the pass hard-fails on any invariant violation")
		smoke    = flag.Bool("smoke", false, "tiny corpus, single round (CI sanity gate)")
		scanGate = flag.Bool("scan-gate", false, "hard-fail when allocs/tx exceeds -alloc-budget or sequential throughput regresses >10% vs -baseline")
		budget   = flag.Float64("alloc-budget", 2.0, "steady-state allocation budget per transaction enforced by -scan-gate")
		baseline = flag.String("baseline", "BENCH_scan.json", "committed result the -scan-gate compares throughput against (skipped when corpus shape differs)")
	)
	flag.Parse()

	rounds := 5
	if *smoke {
		*scale = 1
		rounds = 1
	}

	// The scan pass is the only one that needs the generated corpus, so
	// -out "" skips corpus generation entirely — `-out "" -serve-out -`
	// measures just the serve path in seconds, not minutes.
	if *out != "" {
		fmt.Fprintf(os.Stderr, "generating corpus (seed %d, scale %d%%)...\n", *seed, *scale)
		c, err := world.Generate(world.Config{Seed: *seed, ScalePct: *scale})
		if err != nil {
			return err
		}
		det := core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{
			Simplify: simplify.Options{WETH: c.Env.WETH},
		})

		res := Result{
			Seed:       *seed,
			ScalePct:   *scale,
			Txs:        len(c.Receipts),
			Workers:    scan.Options{Workers: *workers}.ResolvedWorkers(len(c.Receipts)),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Rounds:     rounds,
		}

		// Warm every cache (tagger memo, scratch growth) before timing.
		scan.Scan(det, c.Receipts, scan.Options{Workers: 1})

		res.SeqTxPerSec = timeScan(det, c, scan.Options{Workers: 1}, rounds)
		res.ParTxPerSec = timeScan(det, c, scan.Options{Workers: *workers}, rounds)
		if res.SeqTxPerSec > 0 {
			res.Speedup = res.ParTxPerSec / res.SeqTxPerSec
		}
		res.AllocsPerTx = allocsPerTx(det, c)
		res.AllocsBudget = *budget
		res.FastPathHitRate = fastPathHitRate(det, c)
		res.Scaling = scalingTable(det, c, res.Workers, rounds)

		// The result is written before any gate verdict, so the numbers
		// behind a red CI run are on disk to read.
		if err := emitJSON(res, *out); err != nil {
			return err
		}
		if *out != "-" {
			fmt.Fprintf(os.Stderr, "seq %.0f tx/s, par %.0f tx/s (%.2fx at %d workers, GOMAXPROCS %d), %.3f allocs/tx, %.1f%% fast-path hits -> %s\n",
				res.SeqTxPerSec, res.ParTxPerSec, res.Speedup, res.Workers, res.GOMAXPROCS, res.AllocsPerTx, 100*res.FastPathHitRate, *out)
		}
		if *scanGate {
			if err := gateScan(res, *budget, *baseline); err != nil {
				return err
			}
		}
	}

	if *arcOut != "" {
		ares, err := benchArchive(*smoke, rounds)
		if err != nil {
			return err
		}
		if err := emitJSON(ares, *arcOut); err != nil {
			return err
		}
		if *arcOut != "-" {
			fmt.Fprintf(os.Stderr, "archive: %d records, append %.0f rec/s (batched %.0f), reopen replay %.1f ms / indexed %.2f ms (%.1fx), select %.0f q/s, %d segments -> %s\n",
				ares.Records, ares.AppendPerSec, ares.BatchedAppendPerSec, ares.ReopenMillis, ares.ReopenIndexedMillis,
				ares.ReopenSpeedup, ares.SelectPrunedPerSec, ares.Segments, *arcOut)
		}
	}

	if *lintOut != "" {
		// Smoke keeps the gate honest without paying for a whole-module
		// type check: one small leaf package.
		patterns := []string{"./..."}
		if *smoke {
			patterns = []string{"./internal/uint256"}
		}
		lres, err := benchLint(patterns, rounds)
		if err != nil {
			return err
		}
		if err := emitJSON(lres, *lintOut); err != nil {
			return err
		}
		if *lintOut != "-" {
			fmt.Fprintf(os.Stderr, "lint: %d package(s) loaded in %.0f ms, %d analyzers in %.1f ms, %d finding(s) -> %s\n",
				lres.Packages, lres.LoadMillis, len(lres.Analyzers), lres.TotalMillis, lres.Findings, *lintOut)
		}
	}

	if *metOut != "" {
		mres, err := benchMetrics(*seed, *scale, rounds)
		// The gate result is written even when the gate fails, so the
		// numbers behind a red CI run are on disk to read.
		if mres != nil {
			if werr := emitJSON(mres, *metOut); werr != nil && err == nil {
				err = werr
			}
		}
		if err != nil {
			return err
		}
		if *metOut != "-" {
			fmt.Fprintf(os.Stderr, "metrics: bare %.0f tx/s vs instrumented %.0f (%.2f%% overhead, budget %.1f%%), %+.3f extra allocs/tx, %d families in %d exposition bytes -> %s\n",
				mres.BareTxPerSec, mres.InstrTxPerSec, mres.OverheadPct, mres.MaxOverheadPct,
				mres.ExtraAllocsPerTx, mres.ExpositionFamilies, mres.ExpositionBytes, *metOut)
		}
	}

	if *faultOut != "" {
		if err := runFaultPass(*faultOut); err != nil {
			return err
		}
	}

	if *serveOut != "" {
		sres, err := benchServe(*smoke, rounds)
		if err != nil {
			return err
		}
		if err := emitJSON(sres, *serveOut); err != nil {
			return err
		}
		if *serveOut != "-" {
			fmt.Fprintf(os.Stderr, "serve: %d records, /reports %.0f q/s, /reports/{tx} %.0f q/s, %.2f allocs/list-req (ceiling %.0f) -> %s\n",
				sres.Records, sres.Raw.List.QPS, sres.Raw.Get.QPS,
				sres.Raw.List.AllocsPerReq, sres.ListAllocsCeiling, *serveOut)
		}
	}
	return nil
}

// emitJSON writes v as indented JSON to path ("-" for stdout).
func emitJSON(v any, path string) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// benchArchive populates a throwaway archive with synthetic report
// records at the follower's cadence and times append (both durability
// cadences), reopen (replay and sidecar-indexed) and Select.
func benchArchive(smoke bool, rounds int) (*ArchiveResult, error) {
	res := &ArchiveResult{
		Records:         100_000,
		CheckpointEvery: 512,
		SyncEvery:       8,
		SegmentBytes:    8 << 20,
		Rounds:          rounds,
	}
	if smoke {
		res.Records = 5_000
	}
	// A representative mid-size detection report payload: the archived
	// JSON for a benign screened transaction runs a few hundred bytes.
	payload := []byte(`{"txHash":"0x0000000000000000000000000000000000000000000000000000000000000000",` +
		`"block":0,"success":true,"isFlashLoanTx":true,"isAttack":false,` +
		`"loans":[{"provider":"Uniswap","token":"0x00","amount":"40000000000000"}],` +
		`"matches":[],"trades":12,"transfers":31,"elapsedMicros":184}`)
	res.PayloadBytes = len(payload)

	for round := 0; round < rounds; round++ {
		dir, err := os.MkdirTemp("", "leishen-bench-archive-")
		if err != nil {
			return nil, err
		}
		fig, err := archiveRound(dir, res, payload)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		// Keep the best (least noise-disturbed) figure of each round.
		best := func(cur *float64, v float64) {
			if v > *cur {
				*cur = v
			}
		}
		best(&res.AppendPerSec, float64(res.Records)/fig.appendSec)
		best(&res.BatchedAppendPerSec, float64(res.Records)/fig.batchedSec)
		best(&res.SelectPrunedPerSec, fig.selectQPS)
		if ms := fig.replaySec * 1e3; res.ReopenMillis == 0 || ms < res.ReopenMillis {
			res.ReopenMillis = ms
			res.ReopenRecPerSec = float64(res.Records) / fig.replaySec
		}
		if ms := fig.indexedSec * 1e3; res.ReopenIndexedMillis == 0 || ms < res.ReopenIndexedMillis {
			res.ReopenIndexedMillis = ms
		}
		res.Segments = fig.segs
		res.DirBytes = fig.dirBytes
	}
	if res.ReopenIndexedMillis > 0 {
		res.ReopenSpeedup = res.ReopenMillis / res.ReopenIndexedMillis
	}
	return res, nil
}

// roundFigures is one archive round's raw timings.
type roundFigures struct {
	appendSec  float64 // per-block synced cadence
	batchedSec float64 // group-commit cadence
	replaySec  float64 // full-replay reopen
	indexedSec float64 // sidecar-indexed reopen
	selectQPS  float64
	segs       int
	dirBytes   int64
}

// populate appends res.Records synthetic reports into a fresh archive
// under dir. Records in a narrow band of blocks additionally carry
// FlagAttack, giving the Select benchmark something pruning can skip.
// batched selects the durability cadence: per-block synced checkpoints,
// or deferred checkpoints with one Sync per res.SyncEvery.
func populate(dir string, res *ArchiveResult, payload []byte, batched bool) (sec float64, segs int, err error) {
	arc, err := archive.Open(dir, archive.Options{SegmentBytes: res.SegmentBytes})
	if err != nil {
		return 0, 0, err
	}
	attackLo := res.Records / 2
	attackHi := attackLo + res.Records/100
	start := time.Now()
	rec := archive.Record{Kind: archive.KindReport, Report: payload}
	cps := 0
	for i := 0; i < res.Records; i++ {
		// Two records per block, like a busy screened chain.
		rec.Block = uint64(1 + i/2)
		rec.TxHash = types.HashFromData([]byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)})
		rec.Flags = archive.FlagFlashLoan
		if i >= attackLo && i < attackHi {
			rec.Flags |= archive.FlagAttack
		}
		if err := arc.AppendReport(&rec); err != nil {
			arc.Close()
			return 0, 0, err
		}
		if (i+1)%res.CheckpointEvery == 0 {
			cp := archive.Checkpoint{Block: rec.Block, Digest: rec.TxHash}
			if batched {
				err = arc.AppendCheckpointDeferred(cp)
				if cps++; err == nil && cps%res.SyncEvery == 0 {
					err = arc.Sync()
				}
			} else {
				err = arc.AppendCheckpoint(cp)
			}
			if err != nil {
				arc.Close()
				return 0, 0, err
			}
		}
	}
	if err := arc.Sync(); err != nil {
		arc.Close()
		return 0, 0, err
	}
	sec = time.Since(start).Seconds()
	segs = arc.Segments()
	return sec, segs, arc.Close()
}

// archiveRound runs one full measurement cycle in dir.
func archiveRound(dir string, res *ArchiveResult, payload []byte) (fig roundFigures, err error) {
	syncedDir := filepath.Join(dir, "synced")
	batchedDir := filepath.Join(dir, "batched")
	if fig.appendSec, fig.segs, err = populate(syncedDir, res, payload, false); err != nil {
		return fig, err
	}
	if fig.batchedSec, _, err = populate(batchedDir, res, payload, true); err != nil {
		return fig, err
	}

	entries, err := os.ReadDir(syncedDir)
	if err != nil {
		return fig, err
	}
	for _, e := range entries {
		if info, ierr := e.Info(); ierr == nil {
			fig.dirBytes += info.Size()
		}
	}

	// Reopen, worst case first: a full replay of every record (the
	// pre-sidecar behaviour, and still the fallback when sidecars are
	// missing or stale). Each path is timed as the best of a few opens —
	// a single open is at the mercy of GC pauses from the corpus heap.
	var replayed *archive.Archive
	fig.replaySec, replayed, err = timeOpen(syncedDir, archive.Options{SegmentBytes: res.SegmentBytes, NoSidecars: true}, res.Records)
	if err != nil {
		return fig, err
	}
	if err := replayed.Close(); err != nil {
		return fig, err
	}

	// The indexed path: every segment (active tail included, sealed by
	// the clean Close) loads from its sidecar.
	var indexed *archive.Archive
	fig.indexedSec, indexed, err = timeOpen(syncedDir, archive.Options{SegmentBytes: res.SegmentBytes}, res.Records)
	if err != nil {
		return fig, err
	}

	// Select: first matches of the rare flag, the "what did we flag"
	// query a monitor asks constantly.
	query := archive.Query{Flags: archive.FlagAttack, Limit: 10}
	fig.selectQPS, err = timeSelect(indexed, query)
	if err != nil {
		indexed.Close()
		return fig, err
	}
	return fig, indexed.Close()
}

// timeOpen opens dir a few times, returning the fastest open's wall
// time and the final archive, left open for the caller.
func timeOpen(dir string, opts archive.Options, want int) (float64, *archive.Archive, error) {
	const iters = 3
	var best float64
	var arc *archive.Archive
	for i := 0; i < iters; i++ {
		if arc != nil {
			if err := arc.Close(); err != nil {
				return 0, nil, err
			}
		}
		start := time.Now()
		a, err := archive.Open(dir, opts)
		if err != nil {
			return 0, nil, err
		}
		sec := time.Since(start).Seconds()
		if got := a.Count(); got != want {
			a.Close()
			return 0, nil, fmt.Errorf("reopen recovered %d report records, want %d", got, want)
		}
		if best == 0 || sec < best {
			best = sec
		}
		arc = a
	}
	return best, arc, nil
}

// timeSelect measures q against arc, queries per second.
func timeSelect(arc *archive.Archive, q archive.Query) (float64, error) {
	const iters = 200
	start := time.Now()
	for i := 0; i < iters; i++ {
		recs, _, err := arc.Select(q)
		if err != nil {
			return 0, err
		}
		if len(recs) == 0 {
			return 0, fmt.Errorf("select benchmark query matched nothing")
		}
	}
	return iters / time.Since(start).Seconds(), nil
}

// scalingTable times a full scan at each worker count. The sweep always
// covers {1, 2, 4, 8} — even on a single-core host, where the curve is
// flat — and keeps doubling up to the larger of GOMAXPROCS and the
// resolved pool size when that goes higher. Each row records the
// GOMAXPROCS it ran under, so a flat curve carries its own explanation
// in the data instead of a prose caveat.
func scalingTable(det *core.Detector, c *world.Corpus, resolved, rounds int) []ScalePoint {
	maxW := runtime.GOMAXPROCS(0)
	if resolved > maxW {
		maxW = resolved
	}
	counts := []int{1, 2, 4, 8}
	for w := 16; w <= maxW; w *= 2 {
		counts = append(counts, w)
	}
	if maxW > counts[len(counts)-1] {
		counts = append(counts, maxW)
	}
	if rounds > 3 {
		rounds = 3
	}
	table := make([]ScalePoint, 0, len(counts))
	for _, w := range counts {
		table = append(table, ScalePoint{
			Workers:    w,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			TxPerSec:   timeScan(det, c, scan.Options{Workers: w}, rounds),
		})
	}
	return table
}

// timeScan runs `rounds` full scans and returns the best throughput —
// the round least disturbed by GC or scheduler noise.
func timeScan(det *core.Detector, c *world.Corpus, opts scan.Options, rounds int) float64 {
	best := 0.0
	for i := 0; i < rounds; i++ {
		// Drain GC debt before the clock starts: the hot path allocates
		// almost nothing, so collections triggered by corpus-generation
		// garbage would otherwise land on a few unlucky passes whole
		// instead of amortizing across all of them.
		runtime.GC()
		start := time.Now()
		scan.Scan(det, c.Receipts, opts)
		if d := time.Since(start); d > 0 {
			if tps := float64(len(c.Receipts)) / d.Seconds(); tps > best {
				best = tps
			}
		}
	}
	return best
}

// allocsPerTx measures steady-state heap allocations per transaction of
// the arena-reusing detection path, the configuration each pool worker
// runs in.
func allocsPerTx(det *core.Detector, c *world.Corpus) float64 {
	if len(c.Receipts) == 0 {
		return 0
	}
	s := core.NewArena()
	// Warm the arena to steady-state capacity.
	for _, r := range c.Receipts {
		det.InspectScratch(r, s)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, r := range c.Receipts {
		det.InspectScratch(r, s)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(c.Receipts))
}

// fastPathHitRate sweeps the corpus once with uint256 fast-path
// counting enabled and returns hits/(hits+falls). The pass is untimed
// and single-goroutine so the atomic counters never disturb the
// throughput figures.
func fastPathHitRate(det *core.Detector, c *world.Corpus) float64 {
	if len(c.Receipts) == 0 {
		return 0
	}
	s := core.NewArena()
	uint256.ResetFastPathCounts()
	uint256.SetFastPathCounting(true)
	for _, r := range c.Receipts {
		det.InspectScratch(r, s)
	}
	uint256.SetFastPathCounting(false)
	hits, falls := uint256.FastPathCounts()
	if hits+falls == 0 {
		return 0
	}
	return float64(hits) / float64(hits+falls)
}

// gateScan enforces the scan-performance contract: steady-state
// allocations within budget, and sequential throughput within 10% of
// the committed baseline (compared only when the baseline ran the same
// corpus — seed, scale and transaction count — so a corpus change never
// masquerades as a regression).
func gateScan(res Result, budget float64, baselinePath string) error {
	if res.AllocsPerTx > budget {
		return fmt.Errorf("scan gate: %.3f allocs/tx exceeds budget %.1f", res.AllocsPerTx, budget)
	}
	if baselinePath == "" {
		return nil
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "scan gate: no baseline at %s, throughput check skipped\n", baselinePath)
			return nil
		}
		return fmt.Errorf("scan gate: read baseline: %w", err)
	}
	var base Result
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("scan gate: parse baseline %s: %w", baselinePath, err)
	}
	if base.Seed != res.Seed || base.ScalePct != res.ScalePct || base.Txs != res.Txs {
		fmt.Fprintf(os.Stderr, "scan gate: baseline %s ran a different corpus (seed %d scale %d txs %d), throughput check skipped\n",
			baselinePath, base.Seed, base.ScalePct, base.Txs)
		return nil
	}
	if floor := 0.9 * base.SeqTxPerSec; res.SeqTxPerSec < floor {
		return fmt.Errorf("scan gate: seq throughput %.0f tx/s is below 90%% of baseline %.0f tx/s",
			res.SeqTxPerSec, base.SeqTxPerSec)
	}
	fmt.Fprintf(os.Stderr, "scan gate: ok (%.3f allocs/tx <= %.1f, seq %.0f tx/s vs baseline %.0f)\n",
		res.AllocsPerTx, budget, res.SeqTxPerSec, base.SeqTxPerSec)
	return nil
}
