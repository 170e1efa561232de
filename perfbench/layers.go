package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"leishen/internal/archive"
	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/flashloan"
	"leishen/internal/follower"
	"leishen/internal/scan"
	"leishen/internal/serve"
	"leishen/internal/simplify"
	"leishen/internal/trace"
	"leishen/internal/trades"
	"leishen/internal/types"
)

// The traced run. It wraps spans around the benchmark's own calls into
// each module's public functions — the program itself is not
// instrumented — and derives the per-layer metrics of BENCHMARK.json
// from them. Every workload runs the same suite on the inputs its seed
// generates, then reports its own breakdown: the untraced per-operation
// time beside the summed self times of the layers it passes through.
const (
	// profileLaps is the follower backlog the traced catch-up drains and
	// the archive the read and serve phases query: about 10 MB, so the
	// archive rotates once and range reads can prune a segment.
	profileLaps = 3
	// steadySeconds is the length of the traced open-loop follow phase.
	steadySeconds = 3
	// phaseTime bounds each repeated measurement loop.
	phaseTime = 1500 * time.Millisecond
	// serveRequests is how many in-process requests each route gets;
	// /block re-inspects a whole block, so it gets a tenth.
	serveRequests = 300
)

func (w *scanWorkload) traced(cfg config) (*result, error)    { return runProfile(cfg, w.env, 0) }
func (w *catchupWorkload) traced(cfg config) (*result, error) { return runProfile(cfg, w.env, 0) }

// traced first measures the query workload's own operation untraced —
// requests over loopback beside ingest, as run does, for at most two
// seconds — so the breakdown can set its mean latency beside the layers'
// self times.
func (w *queryWorkload) traced(cfg config) (*result, error) {
	win, err := w.measure(cfg.seed, min(2*time.Second, seconds(cfg.seconds)))
	if err != nil {
		return nil, err
	}
	all, _ := win.latencies()
	sum := 0.0
	for _, us := range all {
		sum += us
	}
	return runProfile(cfg, w.env, sum/float64(len(all)))
}

// profile carries the traced run's state between phases.
type profile struct {
	cfg config
	env *corpusEnv
	tr  *tracer
	res *result
	d   *daemon // the archive the traced catch-up wrote; read and served later

	// Figures the breakdown combines.
	loopbackUs        float64 // query: mean untraced request latency over loopback
	scan1wTxPerS      float64
	catchupUntraced   float64 // tx/s
	catchupTraced     float64 // tx/s
	catchupTxs        int
	stepUsPerTx       float64
	appendNsPerRecord float64
	syncUsPerRecord   float64
	routeTracedUs     [numRoutes]float64
}

// runProfile runs the traced suite. loopbackUs is the query workload's
// untraced loopback latency per request, 0 for the other workloads.
func runProfile(cfg config, env *corpusEnv, loopbackUs float64) (*result, error) {
	p := &profile{cfg: cfg, env: env, tr: newTracer(), res: &result{}, loopbackUs: loopbackUs}
	defer func() {
		if p.d != nil {
			p.d.close(true) // error paths only; the success path closes it below
		}
	}()
	for _, phase := range []func() error{p.stages, p.allocs, p.scanEngine, p.followCatchup, p.followSteady, p.archiveWrites, p.archiveReads, p.serveRoutes} {
		if err := phase(); err != nil {
			return nil, err
		}
	}
	err := p.d.close(true)
	p.d = nil
	if err != nil {
		return nil, err
	}
	p.breakdown()
	spans := filepath.Join(filepath.Dir(cfg.dir), fmt.Sprintf("spans-%s-seed%d.tsv", cfg.workload, cfg.seed))
	if err := p.tr.write(spans); err != nil {
		return nil, err
	}
	p.res.note("spans=%s", spans)
	return p.res, nil
}

// passes alternates fn(false) and fn(true) — untraced, then traced —
// until phaseTime has passed (at least three of each), and returns the
// per-pass results of each kind.
func passes(fn func(traced bool) (float64, error)) (untraced, traced []float64, err error) {
	deadline := time.Now().Add(phaseTime)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		u, err := fn(false)
		if err != nil {
			return nil, nil, err
		}
		t, err := fn(true)
		if err != nil {
			return nil, nil, err
		}
		untraced, traced = append(untraced, u), append(traced, t)
	}
	return untraced, traced, nil
}

// stages replays the detection pipeline one transaction at a time: an
// InspectScratch span, then the five stage calls it makes internally,
// re-run from outside on the same receipt as the span's children. The
// replay's outputs must match the report. core.inspect's self time is
// then what the stages do not cover: pattern matching plus report
// materialization.
func (p *profile) stages() error {
	c, det := p.env.corpus, p.env.det
	ext := trace.NewExtractor(c.Env.Registry)
	in := trace.NewInterner(c.Env.Registry)
	tagger := det.Tagger()
	rules := simplify.ResolveRules(simplify.Options{WETH: c.Env.WETH}, tagger.IDOfTag, in.IDOf)
	var (
		fls   flashloan.Scratch
		it    []types.ITransfer
		isimp simplify.IScratch
		tr    []types.ITrade
	)
	arena := core.NewArena()
	checked := false
	names := []string{"core.inspect", "flashloan.identify", "trace.extract", "tagging.tag", "simplify", "trades.identify"}
	perStage := map[string][]float64{}
	var ownInspect []float64
	untraced, traced, err := passes(func(on bool) (float64, error) {
		p.tr.on = on
		defer func() { p.tr.on = true }()
		from := len(p.tr.spans)
		t0 := time.Now()
		for i, r := range c.Receipts {
			op := int64(i)
			id := p.tr.begin("core.inspect", noSpan, op)
			rep := det.InspectScratch(r, arena)
			p.tr.end(id)
			s := p.tr.begin("flashloan.identify", id, op)
			loans := flashloan.IdentifyScratch(r, &fls)
			p.tr.end(s)
			if len(loans) == 0 {
				continue
			}
			s = p.tr.begin("trace.extract", id, op)
			it = ext.ExtractInterned(it[:0], in, r)
			p.tr.end(s)
			s = p.tr.begin("tagging.tag", id, op)
			tagger.TagTransferIDs(it)
			p.tr.end(s)
			s = p.tr.begin("simplify", id, op)
			app := simplify.SimplifyInterned(it, rules, &isimp)
			p.tr.end(s)
			s = p.tr.begin("trades.identify", id, op)
			tr = trades.IdentifyInterned(tr[:0], app)
			p.tr.end(s)
			if !checked {
				if err := checkReplay(rep, loans, it, app, tr, in, tagger.ResolveTag); err != nil {
					return 0, fmt.Errorf("tx %s: %w", r.TxHash, err)
				}
			}
		}
		dt := time.Since(t0)
		checked = true
		p.res.attempted += len(c.Receipts)
		if on {
			lt := p.tr.layerTimes(from)
			// Every stage is spread over all receipts, so the stages
			// that run only on loan transactions add up with the rest.
			for _, n := range names {
				perStage[n] = append(perStage[n], lt.perOpNs(n, len(c.Receipts), false))
			}
			ownInspect = append(ownInspect, lt.perOpNs("core.inspect", len(c.Receipts), true))
			if len(perStage["core.inspect"]) > 1 {
				p.tr.spans = p.tr.spans[:from] // keep one traced pass for the span file
			}
		}
		return float64(dt) / float64(len(c.Receipts)), nil
	})
	if err != nil {
		return err
	}
	p.res.set("flashloan.identify_ns_per_tx", median(perStage["flashloan.identify"]), "ns")
	p.res.set("trace.extract_ns_per_tx", median(perStage["trace.extract"]), "ns")
	p.res.set("tagging.tag_ns_per_tx", median(perStage["tagging.tag"]), "ns")
	p.res.set("simplify.ns_per_tx", median(perStage["simplify"]), "ns")
	p.res.set("trades.identify_ns_per_tx", median(perStage["trades.identify"]), "ns")
	p.res.set("core.inspect_ns_per_tx", median(perStage["core.inspect"]), "ns")
	p.res.set("core.self_ns_per_tx", median(ownInspect), "ns")
	u, t := median(untraced), median(traced)
	p.res.set("tracing.overhead_pct", 100*(t-u)/u, "%")
	return nil
}

// checkReplay compares the outside replay of the stages with the
// report InspectScratch built from the same receipt.
func checkReplay(rep *core.Report, loans []flashloan.Loan, it []types.ITransfer, app []types.ITransfer, tr []types.ITrade, in *trace.Interner, tag func(types.TagID) types.Tag) error {
	if len(loans) != len(rep.Loans) {
		return fmt.Errorf("replay found %d loans, report %d", len(loans), len(rep.Loans))
	}
	if len(it) != len(rep.Transfers) {
		return fmt.Errorf("replay extracted %d transfers, report %d", len(it), len(rep.Transfers))
	}
	for k := range it {
		want := &rep.Transfers[k]
		if it[k].Sender != want.Sender || it[k].Receiver != want.Receiver || it[k].Amount != want.Amount || in.Token(it[k].Token).Address != want.Token.Address {
			return fmt.Errorf("replay transfer %d differs from the report", k)
		}
	}
	if len(app) != len(rep.AppTransfers) {
		return fmt.Errorf("replay simplified to %d transfers, report %d", len(app), len(rep.AppTransfers))
	}
	for k := range app {
		want := &rep.AppTransfers[k]
		if tag(app[k].SenderTag) != want.Sender || tag(app[k].ReceiverTag) != want.Receiver || app[k].Amount != want.Amount {
			return fmt.Errorf("replay app transfer %d differs from the report", k)
		}
	}
	if len(tr) != len(rep.Trades) {
		return fmt.Errorf("replay identified %d trades, report %d", len(tr), len(rep.Trades))
	}
	for k := range tr {
		if tr[k].Kind != rep.Trades[k].Kind {
			return fmt.Errorf("replay trade %d is %v, report %v", k, tr[k].Kind, rep.Trades[k].Kind)
		}
	}
	return nil
}

// allocsPerCall runs fn over every receipt and returns heap objects
// allocated per call and ns per call.
func allocsPerCall(receipts []*evm.Receipt, fn func(r *evm.Receipt)) (allocs, ns float64) {
	a0, t0 := mallocs(), time.Now()
	for _, r := range receipts {
		fn(r)
	}
	dt := time.Since(t0)
	n := float64(len(receipts))
	return float64(mallocs()-a0) / n, float64(dt) / n
}

// allocs counts steady-state allocations per transaction of the pooled
// stages and the unpooled Inspect the HTTP routes run.
func (p *profile) allocs() error {
	c, det := p.env.corpus, p.env.det
	ext := trace.NewExtractor(c.Env.Registry)
	in := trace.NewInterner(c.Env.Registry)
	var (
		fls flashloan.Scratch
		it  []types.ITransfer
	)
	arena := core.NewArena()
	// One warm pass grows every reused buffer to its high-water mark.
	for _, r := range c.Receipts {
		flashloan.IdentifyScratch(r, &fls)
		it = ext.ExtractInterned(it[:0], in, r)
		det.InspectScratch(r, arena)
	}
	span := p.tr.begin("alloc.loops", noSpan, -1)
	defer p.tr.end(span)
	a, _ := allocsPerCall(c.Receipts, func(r *evm.Receipt) { flashloan.IdentifyScratch(r, &fls) })
	p.res.set("flashloan.allocs_per_tx", a, "count")
	a, _ = allocsPerCall(c.Receipts, func(r *evm.Receipt) { it = ext.ExtractInterned(it[:0], in, r) })
	p.res.set("trace.allocs_per_tx", a, "count")
	a, _ = allocsPerCall(c.Receipts, func(r *evm.Receipt) { det.InspectScratch(r, arena) })
	p.res.set("core.allocs_per_tx", a, "count")
	a, ns := allocsPerCall(c.Receipts, func(r *evm.Receipt) { det.Inspect(r) })
	p.res.set("core.inspect_unpooled_allocs", a, "count")
	p.res.set("core.inspect_unpooled_us", ns/1e3, "us")
	return nil
}

// scanEngine times the scan pool at one worker and at nproc, and
// scan.Each over one block at a time as the follower calls it.
func (p *profile) scanEngine() error {
	det, receipts := p.env.det, p.env.corpus.Receipts
	rate := func(workers int) float64 {
		id := p.tr.begin("scan.scan", noSpan, int64(workers))
		t0 := time.Now()
		scan.Scan(det, receipts, scan.Options{Workers: workers})
		dt := time.Since(t0)
		p.tr.end(id)
		return float64(len(receipts)) / dt.Seconds()
	}
	one, many, err := passes(func(parallel bool) (float64, error) {
		if parallel {
			return rate(p.cfg.nproc), nil
		}
		return rate(1), nil
	})
	if err != nil {
		return err
	}
	p.scan1wTxPerS = median(one)
	p.res.set("scan.tx_per_s_1w", p.scan1wTxPerS, "1/s")
	p.res.set("scan.parallel_speedup", median(many)/p.scan1wTxPerS, "x")

	var perBlock []float64
	screenedOf := make([][]*evm.Receipt, len(p.env.blocks))
	for i, b := range p.env.blocks {
		for _, r := range b.Receipts {
			if screened(r) {
				screenedOf[i] = append(screenedOf[i], r)
			}
		}
	}
	deadline := time.Now().Add(phaseTime)
	for pass := 0; pass < 3 || time.Now().Before(deadline); pass++ {
		var total time.Duration
		for i, rs := range screenedOf {
			id := p.tr.begin("scan.each", noSpan, int64(p.env.blocks[i].Number))
			t0 := time.Now()
			if _, err := scan.Each(det, rs, scan.Options{Workers: followWorkers}, func(int, *core.Report) error { return nil }); err != nil {
				return err
			}
			total += time.Since(t0)
			p.tr.end(id)
		}
		perBlock = append(perBlock, float64(total)/1e3/float64(len(screenedOf)))
	}
	p.res.set("scan.each_us_per_block", median(perBlock), "us")
	return nil
}

// followCatchup drains a backlog untraced, then again with a span
// around every Step, and keeps the second archive for the read and
// serve phases. It also times the follower's per-transaction screen and
// encode calls.
func (p *profile) followCatchup() error {
	blocks := p.env.buildLaps(profileLaps)
	p.catchupTxs = profileLaps * p.env.screenedPerLap
	dr, err := catchUpRound(filepath.Join(p.cfg.dir, "profile-untraced"), p.env, blocks)
	if err != nil {
		return err
	}
	p.catchupUntraced = float64(p.catchupTxs) / dr.wall.Seconds()

	if p.d, err = openDaemon(filepath.Join(p.cfg.dir, "profile"), p.env, blocks); err != nil {
		return err
	}
	p.d.src.head.Store(uint64(len(blocks)))
	from := len(p.tr.spans)
	t0 := time.Now()
	for height := int64(1); ; height++ {
		id := p.tr.begin("follower.step", noSpan, height)
		processed, err := p.d.fol.Step()
		p.tr.end(id)
		if err != nil {
			return err
		}
		if !processed {
			break
		}
	}
	if err := p.d.fol.Flush(); err != nil {
		return err
	}
	p.catchupTraced = float64(p.catchupTxs) / time.Since(t0).Seconds()
	p.res.attempted += 2 * len(blocks)
	if err := checkArchive(p.d, p.env.det, len(blocks), checkStride); err != nil {
		return err
	}
	steps := p.tr.spanMs(from, "follower.step")
	p.res.set("follower.step_us_p50", quantile(steps, 0.50)*1e3, "us")
	p.res.set("follower.step_us_p99", quantile(steps, 0.99)*1e3, "us")
	p.stepUsPerTx = p.tr.layerTimes(from).meanNs("follower.step", false) * float64(len(blocks)) / float64(p.catchupTxs) / 1e3
	st := p.d.fol.Stats()
	p.res.set("follower.ops_per_sync", float64(st.WriterOps)/float64(st.WriterSyncs), "count")

	var receipts, screenedRs []*evm.Receipt
	for _, b := range blocks {
		receipts = append(receipts, b.Receipts...)
	}
	id := p.tr.begin("follower.screen", noSpan, -1)
	t0 = time.Now()
	for _, r := range receipts {
		if screened(r) {
			screenedRs = append(screenedRs, r)
		}
	}
	p.res.set("follower.screen_ns_per_tx", float64(time.Since(t0))/float64(len(receipts)), "ns")
	p.tr.end(id)

	arena := core.NewArena()
	reps := make([]*core.Report, len(screenedRs))
	for i, r := range screenedRs {
		reps[i] = p.env.det.InspectScratch(r, arena)
	}
	var encoded int
	id = p.tr.begin("follower.encode", noSpan, -1)
	t0 = time.Now()
	for _, rep := range reps {
		raw, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		encoded += len(raw)
	}
	p.res.set("follower.encode_ns_per_tx", float64(time.Since(t0))/float64(len(reps)), "ns")
	p.tr.end(id)
	p.res.set("follower.encode_bytes_per_tx", float64(encoded)/float64(len(reps)), "B")
	return nil
}

// followSteady releases blocks on a fixed schedule, the per-block
// alerting use: each block's latency runs from when it was due to when
// in-process GET /checkpoint first reports its height.
func (p *profile) followSteady() error {
	n := steadyRate * steadySeconds
	d, err := openDaemon(filepath.Join(p.cfg.dir, "profile-steady"), p.env, p.env.buildLaps(lapsFor(p.env, n)))
	if err != nil {
		return err
	}
	id := p.tr.begin("follower.open_loop", noSpan, -1)
	ol, err := runOpenLoop(d, 0, n, steadyRate)
	p.tr.end(id)
	if err == nil {
		err = d.fol.Flush()
	}
	if err == nil {
		err = checkArchive(d, p.env.det, n, checkStride)
	}
	if cerr := d.close(true); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	p.res.attempted += n
	lat := ol.latenciesMs()
	p.res.set("follower.block_lat_p50_ms", quantile(lat, 0.50), "ms")
	p.res.set("follower.block_lat_p99_ms", quantile(lat, 0.99), "ms")
	p.res.set("follower.lag_max_blocks", float64(ol.maxLag), "count")
	p.res.set("follower.generator_late_p99_ms", quantile(durationsMs(ol.late), 0.99), "ms")
	p.res.note("steady_rate_blocks_per_s=%d steady_blocks=%d", steadyRate, n)
	return nil
}

// archiveWrites replays the follower's record stream into a fresh
// archive at the follower's observed group-commit cadence: the same
// appends, one Sync per batch of blocks.
func (p *profile) archiveWrites() error {
	recs, _, err := p.d.arc.SelectRaw(archive.Query{})
	if err != nil {
		return err
	}
	st := p.d.fol.Stats()
	opsPerBlock := float64(len(recs)+len(p.d.src.blocks)) / float64(len(p.d.src.blocks))
	blocksPerSync := int(float64(st.WriterOps)/float64(st.WriterSyncs)/opsPerBlock + 0.5)
	if blocksPerSync < 1 {
		blocksPerSync = 1
	}
	dir := filepath.Join(p.cfg.dir, "profile-replay")
	arc, err := archive.Open(dir, archive.Options{})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	from := len(p.tr.spans)
	sync := func(block uint64) error {
		id := p.tr.begin("archive.sync", noSpan, int64(block))
		defer p.tr.end(id)
		return arc.Sync()
	}
	i, sinceSync := 0, 0
	for _, b := range p.d.src.blocks {
		for ; i < len(recs) && recs[i].Block == b.Number; i++ {
			rec := &archive.Record{Kind: archive.KindReport, TxHash: recs[i].TxHash, Block: recs[i].Block, Flags: recs[i].Flags, Report: recs[i].Report}
			id := p.tr.begin("archive.append", noSpan, int64(b.Number))
			err := arc.AppendReport(rec)
			p.tr.end(id)
			if err != nil {
				arc.Close()
				return err
			}
		}
		if err := arc.AppendCheckpointDeferred(archive.Checkpoint{Block: b.Number, Digest: follower.BlockDigest(b)}); err != nil {
			arc.Close()
			return err
		}
		if sinceSync++; sinceSync == blocksPerSync {
			sinceSync = 0
			if err := sync(b.Number); err != nil {
				arc.Close()
				return err
			}
		}
	}
	if err := sync(0); err != nil {
		arc.Close()
		return err
	}
	ast := arc.Stats()
	if err := arc.Close(); err != nil {
		return err
	}
	if ast.Records != len(recs) {
		return fmt.Errorf("archive replay holds %d records, want %d", ast.Records, len(recs))
	}
	lt := p.tr.layerTimes(from)
	syncs := p.tr.spanMs(from, "archive.sync")
	p.appendNsPerRecord = lt.meanNs("archive.append", false)
	p.syncUsPerRecord = float64(lt["archive.sync"].total) / 1e3 / float64(len(recs))
	p.res.set("archive.append_ns_per_record", p.appendNsPerRecord, "ns")
	p.res.set("archive.sync_us_p50", quantile(syncs, 0.50)*1e3, "us")
	p.res.set("archive.sync_us_p99", quantile(syncs, 0.99)*1e3, "us")
	p.res.set("archive.bytes_per_record", float64(ast.AppendedBytes)/float64(ast.Appends), "B")
	p.res.set("archive.rotations", float64(ast.Rotations), "count")
	return nil
}

// archiveReads times point lookups and one-block range reads on the
// archive the traced catch-up wrote, and reads the index-layer
// counters they moved.
func (p *profile) archiveReads() error {
	arc := p.d.arc
	recs, _, err := arc.SelectRaw(archive.Query{})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(p.cfg.seed))
	before := arc.Stats()
	from := len(p.tr.spans)
	for _, i := range rng.Perm(len(recs)) {
		id := p.tr.begin("archive.get_raw", noSpan, int64(i))
		raw, ok, err := arc.GetRaw(recs[i].TxHash)
		p.tr.end(id)
		if err != nil {
			return err
		}
		if !ok || !bytes.Equal(raw.Report, recs[i].Report) {
			return fmt.Errorf("GetRaw %s does not return the archived bytes", recs[i].TxHash)
		}
	}
	mid := arc.Stats()
	for _, h := range rng.Perm(len(p.d.src.blocks)) {
		q := archive.Query{FromBlock: uint64(h + 1), ToBlock: uint64(h + 1), Limit: serve.DefaultReportsLimit}
		id := p.tr.begin("archive.select_raw", noSpan, int64(h+1))
		got, _, err := arc.SelectRaw(q)
		p.tr.end(id)
		if err != nil {
			return err
		}
		if len(got) == 0 || got[0].Block != q.FromBlock {
			return fmt.Errorf("SelectRaw of block %d returned no records of it", q.FromBlock)
		}
	}
	after := arc.Stats()
	p.res.attempted += len(recs) + len(p.d.src.blocks)
	lt := p.tr.layerTimes(from)
	p.res.set("archive.get_raw_us", lt.meanNs("archive.get_raw", false)/1e3, "us")
	p.res.set("archive.select_raw_us", lt.meanNs("archive.select_raw", false)/1e3, "us")
	hits, misses := mid.CacheHits-before.CacheHits, mid.CacheMisses-before.CacheMisses
	p.res.set("archive.cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	p.res.set("archive.frames_per_read_run", ratio(after.ReadFrames-mid.ReadFrames, after.ReadRuns-mid.ReadRuns), "count")
	pruned, scanned := after.SelectSegmentsPruned-mid.SelectSegmentsPruned, after.SelectSegmentsScanned-mid.SelectSegmentsScanned
	p.res.set("archive.pruned_segment_ratio", ratio(pruned, pruned+scanned), "ratio")
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serveRoutes sends in-process requests to each route of the daemon's
// handler, each in a span, and replays the layer call beneath the route
// as the request span's child. A route's self time is its latency minus
// that layer call: routing, parsing, assembly and writing. Every body is
// checked.
func (p *profile) serveRoutes() error {
	det, arc := p.env.det, p.d.arc
	rng := rand.New(rand.NewSource(p.cfg.seed + 1))
	txs := p.env.corpus.Receipts
	recs, _, err := arc.SelectRaw(archive.Query{})
	if err != nil {
		return err
	}
	var scratch []byte
	// do sends one request and returns the body; the caller checks it.
	do := func(path string) ([]byte, error) {
		rec := httptest.NewRecorder()
		p.d.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d", path, rec.Code)
		}
		return rec.Body.Bytes(), nil
	}
	type call struct {
		path  string
		child func(parent spanID, op int64) ([]byte, error) // replays the layer call; returns the expected body
	}
	routes := [numRoutes][]call{}
	for _, i := range rng.Perm(len(txs))[:min(serveRequests, len(txs))] {
		r := txs[i]
		routes[routeTx] = append(routes[routeTx], call{"/tx/" + r.TxHash.String(), func(parent spanID, op int64) ([]byte, error) {
			id := p.tr.begin("core.inspect_unpooled", parent, op)
			rep := det.Inspect(r)
			p.tr.end(id)
			id = p.tr.begin("serve.encode", parent, op)
			defer p.tr.end(id)
			return txReply(rep)
		}})
	}
	for _, i := range rng.Perm(len(recs))[:min(serveRequests, len(recs))] {
		h := recs[i].TxHash
		routes[routeReportGet] = append(routes[routeReportGet], call{"/reports/" + h.String(), func(parent spanID, op int64) ([]byte, error) {
			id := p.tr.begin("archive.get_raw", parent, op)
			raw, _, err := arc.GetRaw(h)
			p.tr.end(id)
			return reportReply(raw), err
		}})
	}
	for _, i := range rng.Perm(len(p.d.src.blocks))[:min(serveRequests, len(p.d.src.blocks))] {
		h := uint64(i + 1)
		routes[routeReportsRange] = append(routes[routeReportsRange], call{rangePath(h), func(parent spanID, op int64) ([]byte, error) {
			id := p.tr.begin("archive.select_raw", parent, op)
			got, more, err := arc.SelectRaw(rangeQuery(h))
			p.tr.end(id)
			if err != nil {
				return nil, err
			}
			return rangeReply(got, more)
		}})
	}
	for _, i := range rng.Perm(len(p.env.blocks))[:min(serveRequests/10, len(p.env.blocks))] {
		b := p.env.blocks[i]
		routes[routeBlock] = append(routes[routeBlock], call{"/block/" + strconv.FormatUint(b.Number, 10), func(parent spanID, op int64) ([]byte, error) {
			return blockReply(b, func(r *evm.Receipt) *core.Report {
				id := p.tr.begin("core.inspect_unpooled", parent, op)
				defer p.tr.end(id)
				return det.Inspect(r)
			})
		}})
	}

	// Warm: every point-lookup key once, so the cache state is the same
	// for a route and its replay.
	for _, c := range routes[routeReportGet] {
		if _, err := do(c.path); err != nil {
			return err
		}
	}
	from := len(p.tr.spans)
	for r := route(0); r < numRoutes; r++ {
		name := "serve." + routeNames[r]
		for k, c := range routes[r] {
			op := int64(k)
			id := p.tr.begin(name, noSpan, op)
			body, err := do(c.path)
			p.tr.end(id)
			if err != nil {
				return err
			}
			got := bodyDigest(&scratch, body)
			p.res.attempted++
			want, err := c.child(id, op)
			if err != nil {
				return err
			}
			if bodyDigest(&scratch, want) != got {
				return fmt.Errorf("GET %s: body differs from the replayed layer call", c.path)
			}
		}
	}
	lt := p.tr.layerTimes(from)
	for r := route(0); r < numRoutes; r++ {
		name := "serve." + routeNames[r]
		p.routeTracedUs[r] = lt.meanNs(name, false) / 1e3
		// The median request: a GC pause that lands in a replayed child
		// but not in its request would skew a mean, even below zero.
		p.res.set(name+"_self_us", median(p.tr.ownUs(from, name)), "us")
	}
	p.res.set("serve.encode_us", lt.meanNs("serve.encode", false)/1e3, "us")
	return nil
}

// breakdown sets, for this run's workload, the untraced per-operation
// time, the same operation traced, and the sum of the self times of the
// layers it passes through; what the self times do not explain is the
// remainder.
func (p *profile) breakdown() {
	var untraced, traced, selfSum float64
	m := p.res.metrics
	switch p.cfg.workload {
	case "scan": // one transaction through the scan pool at one worker
		untraced = 1e6 / p.scan1wTxPerS
		traced = m["core.inspect_ns_per_tx"].Value / 1e3
		selfSum = (m["core.self_ns_per_tx"].Value + m["flashloan.identify_ns_per_tx"].Value + m["trace.extract_ns_per_tx"].Value +
			m["tagging.tag_ns_per_tx"].Value + m["simplify.ns_per_tx"].Value + m["trades.identify_ns_per_tx"].Value) / 1e3
	case "follow-catchup": // one screened transaction through catch-up
		untraced = 1e6 / p.catchupUntraced
		traced = 1e6 / p.catchupTraced
		selfSum = p.stepUsPerTx + p.appendNsPerRecord/1e3 + p.syncUsPerRecord
	case "query": // one request of the route mix
		// The workload's own request: over loopback, one client, beside
		// ingest. The traced requests are in process, one at a time.
		untraced = p.loopbackUs
		total := 0
		for r := route(0); r < numRoutes; r++ {
			total += routeWeights[r]
			traced += float64(routeWeights[r]) * p.routeTracedUs[r]
		}
		traced /= float64(total)
		// A route's self time and its replayed layer call together make
		// up the request span by definition, so their sum is the traced
		// latency; the remainder is what in-process requests leave out.
		selfSum = traced
	}
	p.res.set("breakdown.untraced_us_per_op", untraced, "us")
	p.res.set("breakdown.traced_us_per_op", traced, "us")
	p.res.set("breakdown.self_sum_us_per_op", selfSum, "us")
	p.res.set("breakdown.unexplained_us_per_op", untraced-selfSum, "us")
}
