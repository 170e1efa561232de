// Command benchjson runs LeiShen's named benches and writes each result
// as JSON, BENCH_<name>.json, so performance and the gates that hold it
// can be tracked across commits without parsing `go test -bench` output:
//
//	benchjson                     # every bench, BENCH_*.json in .
//	benchjson -smoke -o - serve   # one bench on its small shape, to stdout
//	benchjson -o out scan metrics # two benches, BENCH_*.json in out/
//
// A bare run takes the registry in order: scan and archive (here), lint
// (lint.go), serve (serve.go), metrics (metrics.go) and fault
// (fault.go). Every bench but archive and lint has a gate, a method
// beside its result type that the driver calls only after the result is
// written, so the numbers behind a red run are on disk. A failed bench
// does not stop the rest; the exit status is non-zero and the error
// names each failure. -smoke runs every bench on a small shape (a 1%
// corpus, one timed round) under the same gates.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"leishen/internal/archive"
	"leishen/internal/core"
	"leishen/internal/scan"
	"leishen/internal/simplify"
	"leishen/internal/types"
	"leishen/internal/uint256"
	"leishen/internal/world"
)

// ScanResult is the BENCH_scan.json schema.
type ScanResult struct {
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
	// the gate enforces on it.
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

	// baseline is the committed result the gate compares throughput
	// against, nil when there is none.
	baseline *ScanResult
}

// ScalePoint is one row of the worker-scaling table. GOMAXPROCS is
// recorded per row so a flat curve is self-explaining: workers beyond
// the scheduler's core budget cannot add throughput.
type ScalePoint struct {
	Workers    int     `json:"workers"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	TxPerSec   float64 `json:"tx_per_sec"`
}

// The scan gate: steady-state allocations stay within allocsBudget per
// transaction, and sequential throughput stays at or above
// minSeqFraction of the committed scanBaseline.
const (
	allocsBudget   = 2.0
	minSeqFraction = 0.9
	scanBaseline   = "BENCH_scan.json"
)

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

// bench is one named entry of the registry; run measures and returns
// the result the driver writes as BENCH_<name>.json.
type bench struct {
	name string
	run  func(smoke bool) (result, error)
}

// registry is every bench, in the order a bare `benchjson` runs them.
var registry = []bench{
	{"scan", benchScan},
	{"archive", benchArchive},
	{"lint", benchLint},
	{"serve", benchServe},
	{"metrics", benchMetrics},
	{"fault", benchFault},
}

// result is a bench's JSON document; summary is its one-line digest for
// stderr.
type result interface{ summary() string }

// gated is a result that carries a verdict. The driver calls gate only
// after the result is written; notes that are not failures go to log.
type gated interface{ gate(log io.Writer) error }

func main() {
	smoke := flag.Bool("smoke", false, "small shapes and one timed round, under the same gates")
	out := flag.String("o", ".", "directory for BENCH_<name>.json, or - for stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: benchjson [-smoke] [-o DIR|-] [name...]\nbenches (none named runs all): %s\n", benchNames())
		flag.PrintDefaults()
	}
	flag.Parse()
	benches, err := selectBenches(flag.Args())
	if err == nil {
		err = runBenches(benches, *smoke, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// selectBenches maps command-line names to registry entries, in the
// order given; no names selects the whole registry.
func selectBenches(names []string) ([]bench, error) {
	if len(names) == 0 {
		return registry, nil
	}
	var sel []bench
	for i, name := range names {
		if slices.Contains(names[:i], name) {
			return nil, fmt.Errorf("bench %q named twice", name)
		}
		j := slices.IndexFunc(registry, func(b bench) bool { return b.name == name })
		if j < 0 {
			return nil, fmt.Errorf("unknown bench %q (known: %s)", name, benchNames())
		}
		sel = append(sel, registry[j])
	}
	return sel, nil
}

func benchNames() string {
	names := make([]string, len(registry))
	for i, b := range registry {
		names[i] = b.name
	}
	return strings.Join(names, ", ")
}

// runBenches runs each bench in turn and writes its result to dir ("-"
// for stdout). A bench that fails to run, or whose gate fails, does not
// stop the rest; the returned error lists every failure.
func runBenches(benches []bench, smoke bool, dir string) error {
	var failed []string
	for _, b := range benches {
		if err := runBench(b, smoke, dir); err != nil {
			failed = append(failed, b.name+": "+err.Error())
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d bench(es) failed:\n  %s", len(failed), len(benches), strings.Join(failed, "\n  "))
	}
	return nil
}

func runBench(b bench, smoke bool, dir string) error {
	res, err := b.run(smoke)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	path := "-"
	if dir == "-" {
		_, err = os.Stdout.Write(raw)
	} else {
		path = filepath.Join(dir, "BENCH_"+b.name+".json")
		err = os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: %s -> %s\n", b.name, res.summary(), path)
	if g, ok := res.(gated); ok {
		if err := g.gate(os.Stderr); err != nil {
			return fmt.Errorf("gate: %w", err)
		}
	}
	return nil
}

func timedRounds(smoke bool) int {
	if smoke {
		return 1
	}
	return 5
}

// corpus is the generated corpus the scan and metrics benches measure,
// with the config that generated it and a detector over its chain.
type corpus struct {
	world.Config
	*world.Corpus
	det *core.Detector
}

// shared is generated once per process: generation costs more than
// either bench's timing.
var shared *corpus

func sharedCorpus(smoke bool) (*corpus, error) {
	cfg := world.Config{Seed: 7, ScalePct: 2}
	if smoke {
		cfg.ScalePct = 1
	}
	if shared == nil || shared.Config != cfg {
		fmt.Fprintf(os.Stderr, "generating corpus (seed %d, scale %d%%)...\n", cfg.Seed, cfg.ScalePct)
		c, err := world.Generate(cfg)
		if err != nil {
			return nil, err
		}
		det := core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{
			Simplify: simplify.Options{WETH: c.Env.WETH},
		})
		shared = &corpus{cfg, c, det}
	}
	return shared, nil
}

// allocsPer returns the heap allocations one call of f makes, divided by
// n, with GC debt drained first. Callers warm the path beforehand, so
// the figure is the steady state.
func allocsPer(n int, f func()) float64 {
	if n == 0 {
		return 0
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// benchArchive populates a throwaway archive with synthetic report
// records at the follower's cadence and times append (both durability
// cadences), reopen (replay and sidecar-indexed) and Select.
func benchArchive(smoke bool) (result, error) {
	res := archiveShape(100_000)
	if smoke {
		res.Records = 5_000
	}
	res.Rounds = timedRounds(smoke)
	payload := benchReportPayload()
	res.PayloadBytes = len(payload)

	for round := 0; round < res.Rounds; round++ {
		dir, err := os.MkdirTemp("", "leishen-bench-archive-")
		if err != nil {
			return nil, err
		}
		err = archiveRound(dir, res, payload)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
	}
	if res.ReopenIndexedMillis > 0 {
		res.ReopenSpeedup = res.ReopenMillis / res.ReopenIndexedMillis
	}
	return res, nil
}

func (r *ArchiveResult) summary() string {
	return fmt.Sprintf("%d records, append %.0f rec/s (batched %.0f), reopen replay %.1f ms / indexed %.2f ms (%.1fx), select %.0f q/s, %d segments",
		r.Records, r.AppendPerSec, r.BatchedAppendPerSec, r.ReopenMillis, r.ReopenIndexedMillis,
		r.ReopenSpeedup, r.SelectPrunedPerSec, r.Segments)
}

// archiveShape is the archive workload the archive and serve benches
// populate: records synthetic reports at the follower's cadences.
func archiveShape(records int) *ArchiveResult {
	return &ArchiveResult{Records: records, CheckpointEvery: 512, SyncEvery: 8, SegmentBytes: 8 << 20}
}

// benchReportPayload is the payload of every record the archive and
// serve benches write: a representative mid-size detection report (the
// archived JSON for a benign screened transaction runs a few hundred
// bytes).
func benchReportPayload() []byte {
	return []byte(`{"txHash":"0x0000000000000000000000000000000000000000000000000000000000000000",` +
		`"block":0,"success":true,"isFlashLoanTx":true,"isAttack":false,` +
		`"loans":[{"provider":"Uniswap","token":"0x00","amount":"40000000000000"}],` +
		`"matches":[],"trades":12,"transfers":31,"elapsedMicros":184}`)
}

// benchTxHash is the hash of the i-th record populate writes, so the
// serve bench can build point lookups without reading the archive.
func benchTxHash(i int) types.Hash {
	return types.HashFromData([]byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)})
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
	defer func() {
		if cerr := arc.Close(); err == nil {
			err = cerr
		}
	}()
	attackLo := res.Records / 2
	attackHi := attackLo + res.Records/100
	start := time.Now()
	rec := archive.Record{Kind: archive.KindReport, Report: payload}
	cps := 0
	for i := 0; i < res.Records; i++ {
		// Two records per block, like a busy screened chain.
		rec.Block = uint64(1 + i/2)
		rec.TxHash = benchTxHash(i)
		rec.Flags = archive.FlagFlashLoan
		if i >= attackLo && i < attackHi {
			rec.Flags |= archive.FlagAttack
		}
		if err := arc.AppendReport(&rec); err != nil {
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
				return 0, 0, err
			}
		}
	}
	if err := arc.Sync(); err != nil {
		return 0, 0, err
	}
	return time.Since(start).Seconds(), arc.Segments(), nil
}

// archiveRound runs one full measurement cycle in dir, folding each
// figure into res where it beats the best (least noise-disturbed) round
// so far.
func archiveRound(dir string, res *ArchiveResult, payload []byte) error {
	syncedDir := filepath.Join(dir, "synced")
	sec, segs, err := populate(syncedDir, res, payload, false)
	if err != nil {
		return err
	}
	res.AppendPerSec = max(res.AppendPerSec, float64(res.Records)/sec)
	res.Segments = segs
	if sec, _, err = populate(filepath.Join(dir, "batched"), res, payload, true); err != nil {
		return err
	}
	res.BatchedAppendPerSec = max(res.BatchedAppendPerSec, float64(res.Records)/sec)

	entries, err := os.ReadDir(syncedDir)
	if err != nil {
		return err
	}
	res.DirBytes = 0
	for _, e := range entries {
		if info, ierr := e.Info(); ierr == nil {
			res.DirBytes += info.Size()
		}
	}

	// Reopen, worst case first: a full replay of every record (the
	// pre-sidecar behaviour, and still the fallback when sidecars are
	// missing or stale). Each path is timed as the best of a few opens —
	// a single open is at the mercy of GC pauses from the corpus heap.
	sec, replayed, err := timeOpen(syncedDir, archive.Options{SegmentBytes: res.SegmentBytes, NoSidecars: true}, res.Records)
	if err != nil {
		return err
	}
	if err := replayed.Close(); err != nil {
		return err
	}
	if res.ReopenMillis == 0 || sec*1e3 < res.ReopenMillis {
		res.ReopenMillis = sec * 1e3
		res.ReopenRecPerSec = float64(res.Records) / sec
	}

	// The indexed path: every segment (active tail included, sealed by
	// the clean Close) loads from its sidecar.
	sec, indexed, err := timeOpen(syncedDir, archive.Options{SegmentBytes: res.SegmentBytes}, res.Records)
	if err != nil {
		return err
	}
	if res.ReopenIndexedMillis == 0 || sec*1e3 < res.ReopenIndexedMillis {
		res.ReopenIndexedMillis = sec * 1e3
	}

	// Select: first matches of the rare flag, the "what did we flag"
	// query a monitor asks constantly.
	qps, err := timeSelect(indexed, archive.Query{Flags: archive.FlagAttack, Limit: 10})
	if err != nil {
		indexed.Close()
		return err
	}
	res.SelectPrunedPerSec = max(res.SelectPrunedPerSec, qps)
	return indexed.Close()
}

// timeOpen opens dir a few times, returning the fastest open's wall
// time and the final archive, left open for the caller.
func timeOpen(dir string, opts archive.Options, want int) (best float64, arc *archive.Archive, err error) {
	for i := 0; i < 3; i++ {
		if arc != nil {
			if err := arc.Close(); err != nil {
				return 0, nil, err
			}
		}
		start := time.Now()
		if arc, err = archive.Open(dir, opts); err != nil {
			return 0, nil, err
		}
		sec := time.Since(start).Seconds()
		if got := arc.Count(); got != want {
			arc.Close()
			return 0, nil, fmt.Errorf("reopen recovered %d report records, want %d", got, want)
		}
		if best == 0 || sec < best {
			best = sec
		}
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

// benchScan times a sequential (workers=1) and a parallel (GOMAXPROCS
// workers) sweep over the shared corpus, and the steady-state heap
// allocations per transaction of the arena-reusing hot path. On a
// single-core host the parallel figure tracks the sequential one; the
// gain appears with GOMAXPROCS > 1, hence the scaling table.
func benchScan(smoke bool) (result, error) {
	// Read the baseline before measuring: under -o . the driver writes
	// this run's result over the same file before the gate runs.
	base, err := readScanBaseline()
	if err != nil {
		return nil, err
	}
	c, err := sharedCorpus(smoke)
	if err != nil {
		return nil, err
	}
	rounds := timedRounds(smoke)
	res := &ScanResult{
		Seed:         c.Seed,
		ScalePct:     c.ScalePct,
		Txs:          len(c.Receipts),
		Workers:      scan.Options{}.ResolvedWorkers(len(c.Receipts)),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		AllocsBudget: allocsBudget,
		Rounds:       rounds,
		baseline:     base,
	}

	// Warm every cache (tagger memo, scratch growth) before timing.
	scan.Scan(c.det, c.Receipts, scan.Options{Workers: 1})

	res.SeqTxPerSec = timeScan(c, scan.Options{Workers: 1}, rounds)
	res.ParTxPerSec = timeScan(c, scan.Options{}, rounds)
	if res.SeqTxPerSec > 0 {
		res.Speedup = res.ParTxPerSec / res.SeqTxPerSec
	}
	res.AllocsPerTx = allocsPerTx(c)
	res.FastPathHitRate = fastPathHitRate(c)
	res.Scaling = scalingTable(c, res.Workers, rounds)
	return res, nil
}

// readScanBaseline loads the committed scan result, nil when there is
// none.
func readScanBaseline() (*ScanResult, error) {
	raw, err := os.ReadFile(scanBaseline)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("read baseline: %w", err)
	}
	var base ScanResult
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", scanBaseline, err)
	}
	return &base, nil
}

// scalingTable times a full scan at each worker count. The sweep always
// covers {1, 2, 4, 8} — even on a single-core host, where the curve is
// flat — and keeps doubling up to the larger of GOMAXPROCS and the
// resolved pool size when that goes higher. Each row records the
// GOMAXPROCS it ran under, so a flat curve carries its own explanation
// in the data instead of a prose caveat.
func scalingTable(c *corpus, resolved, rounds int) []ScalePoint {
	maxW := max(runtime.GOMAXPROCS(0), resolved)
	counts := []int{1, 2, 4, 8}
	for w := 16; w <= maxW; w *= 2 {
		counts = append(counts, w)
	}
	if maxW > counts[len(counts)-1] {
		counts = append(counts, maxW)
	}
	table := make([]ScalePoint, 0, len(counts))
	for _, w := range counts {
		table = append(table, ScalePoint{
			Workers:    w,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			TxPerSec:   timeScan(c, scan.Options{Workers: w}, min(rounds, 3)),
		})
	}
	return table
}

// timeScan runs `rounds` full scans and returns the best throughput —
// the round least disturbed by GC or scheduler noise.
func timeScan(c *corpus, opts scan.Options, rounds int) float64 {
	best := 0.0
	for i := 0; i < rounds; i++ {
		// Drain GC debt before the clock starts: the hot path allocates
		// almost nothing, so collections triggered by corpus-generation
		// garbage would otherwise land on a few unlucky passes whole
		// instead of amortizing across all of them.
		runtime.GC()
		start := time.Now()
		scan.Scan(c.det, c.Receipts, opts)
		if d := time.Since(start); d > 0 {
			best = max(best, float64(len(c.Receipts))/d.Seconds())
		}
	}
	return best
}

// allocsPerTx measures steady-state heap allocations per transaction of
// the arena-reusing detection path, the configuration each pool worker
// runs in.
func allocsPerTx(c *corpus) float64 {
	s := core.NewArena()
	inspectAll(c, s) // warm the arena to steady-state capacity
	return allocsPer(len(c.Receipts), func() { inspectAll(c, s) })
}

// inspectAll runs every corpus receipt through the detector on arena s.
func inspectAll(c *corpus, s *core.Arena) {
	for _, r := range c.Receipts {
		c.det.InspectScratch(r, s)
	}
}

// fastPathHitRate sweeps the corpus once with uint256 fast-path
// counting enabled and returns hits/(hits+falls). The pass is untimed
// and single-goroutine so the atomic counters never disturb the
// throughput figures.
func fastPathHitRate(c *corpus) float64 {
	uint256.ResetFastPathCounts()
	uint256.SetFastPathCounting(true)
	inspectAll(c, core.NewArena())
	uint256.SetFastPathCounting(false)
	hits, falls := uint256.FastPathCounts()
	if hits+falls == 0 {
		return 0
	}
	return float64(hits) / float64(hits+falls)
}

func (r *ScanResult) summary() string {
	return fmt.Sprintf("seq %.0f tx/s, par %.0f tx/s (%.2fx at %d workers, GOMAXPROCS %d), %.3f allocs/tx, %.1f%% fast-path hits",
		r.SeqTxPerSec, r.ParTxPerSec, r.Speedup, r.Workers, r.GOMAXPROCS, r.AllocsPerTx, 100*r.FastPathHitRate)
}

// gate enforces the scan-performance contract. Throughput is compared
// only when the baseline ran the same corpus — seed, scale and
// transaction count — so a corpus change never masquerades as a
// regression; otherwise the check is skipped with a note.
func (r *ScanResult) gate(log io.Writer) error {
	if r.AllocsPerTx > allocsBudget {
		return fmt.Errorf("%.3f allocs/tx exceeds budget %.1f", r.AllocsPerTx, allocsBudget)
	}
	base := r.baseline
	if base == nil {
		fmt.Fprintf(log, "scan gate: no baseline at %s, throughput check skipped\n", scanBaseline)
		return nil
	}
	if base.Seed != r.Seed || base.ScalePct != r.ScalePct || base.Txs != r.Txs {
		fmt.Fprintf(log, "scan gate: baseline %s ran a different corpus (seed %d scale %d txs %d), throughput check skipped\n",
			scanBaseline, base.Seed, base.ScalePct, base.Txs)
		return nil
	}
	if r.SeqTxPerSec < minSeqFraction*base.SeqTxPerSec {
		return fmt.Errorf("seq throughput %.0f tx/s is below %.0f%% of baseline %.0f tx/s",
			r.SeqTxPerSec, 100*minSeqFraction, base.SeqTxPerSec)
	}
	fmt.Fprintf(log, "scan gate: ok (%.3f allocs/tx <= %.1f, seq %.0f tx/s vs baseline %.0f)\n",
		r.AllocsPerTx, allocsBudget, r.SeqTxPerSec, base.SeqTxPerSec)
	return nil
}
