package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"leishen/internal/archive"
	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/serve"
)

// Query workload shape: closed-loop keep-alive clients over loopback
// against the daemon's HTTP handler, beside a follower ingesting at a
// low fixed rate into the archive being read. One client, not two: the
// clients run in the benchmark's own process, so two clients and their
// server goroutines want four CPUs of a 2-vCPU host, and light requests
// queued behind the other client's /block. The p90 then sat in that
// queueing tail, where it spread 21–29% between runs of the same code.
const (
	queryClients    = 1
	queryLaps       = 2  // laps archived during set-up, the read set
	queryIngestRate = 20 // blocks per second ingested while reads run
)

// route indexes the request mix.
type route int

const (
	routeTx           route = iota // GET /tx/{hash}: unpooled Inspect
	routeReportGet                 // GET /reports/{hash}: archive GetRaw
	routeReportsRange              // GET /reports?from=n&to=n: archive SelectRaw
	routeBlock                     // GET /block/{n}: Inspect per screened tx
	numRoutes
)

var routeNames = [numRoutes]string{"tx", "report_get", "reports_range", "block"}

// routeWeights is the request mix in percent. No traffic to this daemon
// has been recorded, so the mix is an assumption, not a measurement: the
// three single-item routes get equal shares, and /block, which
// re-inspects a whole block of about 50 transactions, gets the small
// share it would have as an occasional drill-down.
var routeWeights = [numRoutes]int{32, 32, 32, 4}

// target is one request path and the digest its 200 body must have.
type target struct {
	path   string
	digest uint32
	norm   bool // digest is over the body with elapsedMicros zeroed
}

type queryWorkload struct {
	env      *corpusEnv
	blocks   []*evm.Block
	d        *daemon
	prebuilt int // heights archived during set-up
	targets  [numRoutes][]target
}

func setupQuery(cfg config) (workload, error) {
	env, err := newCorpusEnv(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	ingest := max(1, int(queryIngestRate*cfg.seconds))
	w := &queryWorkload{env: env, prebuilt: queryLaps * len(env.blocks)}
	w.blocks = env.buildLaps(queryLaps + lapsFor(env, ingest))
	if w.d, err = openDaemon(filepath.Join(cfg.dir, "query"), env, w.blocks); err != nil {
		return nil, err
	}
	w.d.src.head.Store(uint64(w.prebuilt))
	if err := w.d.fol.CatchUp(); err != nil {
		//lint:allow errflow the catch-up error is the one to report
		_ = w.d.close(true)
		return nil, err
	}
	if err := w.buildTargets(); err != nil {
		//lint:allow errflow the target error is the one to report
		_ = w.d.close(true)
		return nil, err
	}
	return w, nil
}

// buildTargets computes every request the clients may send and the body
// it must return: a fresh inspection's JSON for /tx and /block, the
// archived bytes for /reports.
func (w *queryWorkload) buildTargets() error {
	arena := core.NewArena()
	inspect := func(r *evm.Receipt) *core.Report { return w.env.det.InspectScratch(r, arena) }
	var buf []byte
	norm := func(b []byte) uint32 { return bodyDigest(&buf, b) }
	for _, r := range w.env.corpus.Receipts {
		body, err := txReply(inspect(r))
		if err != nil {
			return err
		}
		w.targets[routeTx] = append(w.targets[routeTx], target{"/tx/" + r.TxHash.String(), norm(body), true})
	}
	for _, b := range w.env.blocks {
		body, err := blockReply(b, inspect)
		if err != nil {
			return err
		}
		w.targets[routeBlock] = append(w.targets[routeBlock], target{"/block/" + strconv.FormatUint(b.Number, 10), norm(body), true})
	}
	all, _, err := w.d.arc.SelectRaw(archive.Query{})
	if err != nil {
		return err
	}
	for _, rec := range all {
		body := reportReply(rec)
		w.targets[routeReportGet] = append(w.targets[routeReportGet], target{"/reports/" + rec.TxHash.String(), crc32.Checksum(body, castagnoli), false})
	}
	for h := uint64(1); h <= uint64(w.prebuilt); h++ {
		recs, more, err := w.d.arc.SelectRaw(rangeQuery(h))
		if err != nil {
			return err
		}
		body, err := rangeReply(recs, more)
		if err != nil {
			return err
		}
		w.targets[routeReportsRange] = append(w.targets[routeReportsRange], target{rangePath(h), crc32.Checksum(body, castagnoli), false})
	}
	return nil
}

// The expected replies. Each is the body a route answers with, built
// from the layer call beneath it, newline-ended as the server writes it.

// txReply is GET /tx/{hash}'s body for the transaction's report.
func txReply(rep *core.Report) ([]byte, error) {
	b, err := json.Marshal(rep.JSON())
	return append(b, '\n'), err
}

// blockReply is GET /block/{n}'s body: the block's number and time and
// the report inspect gives for each screened receipt.
func blockReply(b *evm.Block, inspect func(*evm.Receipt) *core.Report) ([]byte, error) {
	reports := make([]core.ReportJSON, 0, len(b.Receipts))
	for _, r := range b.Receipts {
		if screened(r) {
			reports = append(reports, inspect(r).JSON())
		}
	}
	body, err := json.Marshal(map[string]any{"block": b.Number, "time": b.Time, "reports": reports})
	return append(body, '\n'), err
}

// reportReply is GET /reports/{hash}'s body: the archived bytes.
func reportReply(rec archive.RawRecord) []byte {
	return append(append([]byte(nil), rec.Report...), '\n')
}

// rangePath and rangeQuery are the one-block GET /reports?from=n&to=n
// request and the archive query the server makes for it.
func rangePath(h uint64) string { return fmt.Sprintf("/reports?from=%d&to=%d", h, h) }

func rangeQuery(h uint64) archive.Query {
	return archive.Query{FromBlock: h, ToBlock: h, Limit: serve.DefaultReportsLimit}
}

// rangeReply is the one-block range body for the records SelectRaw
// returned and whether more remain.
func rangeReply(recs []archive.RawRecord, more bool) ([]byte, error) {
	resp := serve.ReportsResponse{Reports: make([]json.RawMessage, len(recs)), More: more}
	for i := range recs {
		resp.Reports[i] = recs[i].Report
	}
	if more {
		resp.NextAfter = recs[len(recs)-1].TxHash.String()
	}
	b, err := json.Marshal(resp)
	return append(b, '\n'), err
}

func (w *queryWorkload) close() error {
	if w.d == nil {
		return nil
	}
	err := w.d.close(true)
	w.d = nil
	return err
}

// plan is one client's deterministic request sequence: routes drawn by
// weight from the seed, and within a route every target visited once per
// cycle in a seeded order, so each run spreads its requests over the same
// key population.
type plan struct {
	rng   *rand.Rand
	perm  [numRoutes][]int
	next  [numRoutes]int
	total int
}

func newPlan(seed int64, w *queryWorkload) *plan {
	p := &plan{rng: rand.New(rand.NewSource(seed))}
	for r := range p.perm {
		p.perm[r] = p.rng.Perm(len(w.targets[r]))
	}
	for _, wt := range routeWeights {
		p.total += wt
	}
	return p
}

func (p *plan) pick() (route, int) {
	x := p.rng.Intn(p.total)
	r := route(0)
	for x >= routeWeights[r] {
		x -= routeWeights[r]
		r++
	}
	i := p.perm[r][p.next[r]%len(p.perm[r])]
	p.next[r]++
	return r, i
}

// clientStats is one client's tally.
type clientStats struct {
	lat      [numRoutes][]float64 // microseconds, per route
	all      []float64            // microseconds, in the order sent
	attempts int
	failed   int
	firstErr error
}

// do sends one request and checks the reply; it returns the latency.
func do(c *http.Client, base string, t *target, buf *bytes.Buffer, scratch *[]byte) (time.Duration, error) {
	t0 := time.Now()
	resp, err := c.Get(base + t.path)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	dt := time.Since(t0)
	if err != nil {
		return dt, err
	}
	if resp.StatusCode != http.StatusOK {
		return dt, fmt.Errorf("GET %s: status %d", t.path, resp.StatusCode)
	}
	var got uint32
	if t.norm {
		got = bodyDigest(scratch, buf.Bytes())
	} else {
		got = crc32.Checksum(buf.Bytes(), castagnoli)
	}
	if got != t.digest {
		return dt, fmt.Errorf("GET %s: body differs from the expected reply", t.path)
	}
	return dt, nil
}

// runClients drives queryClients closed-loop clients against base until
// the deadline.
func (w *queryWorkload) runClients(base string, seed int64, deadline time.Time) []*clientStats {
	stats := make([]*clientStats, queryClients)
	var wg sync.WaitGroup
	for c := range stats {
		st := &clientStats{}
		stats[c] = st
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			p := newPlan(seed*1000+int64(c), w)
			var (
				buf     bytes.Buffer
				scratch []byte
			)
			for time.Now().Before(deadline) {
				r, i := p.pick()
				st.attempts++
				dt, err := do(client, base, &w.targets[r][i], &buf, &scratch)
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = err
					}
					continue
				}
				us := float64(dt) / 1e3
				st.lat[r] = append(st.lat[r], us)
				st.all = append(st.all, us)
			}
		}(c)
	}
	wg.Wait()
	return stats
}

// serveLoopback serves the daemon's HTTP server on a loopback listener;
// the returned stop function closes it and waits for it.
func serveLoopback(d *daemon) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := d.hs
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	stop := func() error {
		err := hs.Close()
		if serr := <-errCh; serr != nil && serr != http.ErrServerClosed && err == nil {
			err = serr
		}
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// window is what one measured stretch of query traffic produced.
type window struct {
	stats  []*clientStats
	ingest *openLoop
	wall   time.Duration
	cpu    time.Duration
	peakMB float64
}

// measure serves the daemon on loopback and runs the clients for dur
// while the follower ingests queryIngestRate blocks per second past the
// set-up archive. It then checks everything the follower archived.
func (w *queryWorkload) measure(seed int64, dur time.Duration) (*window, error) {
	base, stop, err := serveLoopback(w.d)
	if err != nil {
		return nil, err
	}
	ingest := max(1, int(queryIngestRate*dur.Seconds()))
	// A short untimed pass warms connections and handler pools.
	w.runClients(base, seed+1, time.Now().Add(200*time.Millisecond))

	heap := startHeapSampler()
	var (
		win   window
		olErr error
		ingWG sync.WaitGroup
	)
	ingWG.Add(1)
	go func() {
		defer ingWG.Done()
		win.ingest, olErr = runOpenLoop(w.d, w.prebuilt, ingest, queryIngestRate)
	}()
	t0, cpu0 := time.Now(), cpuTime()
	win.stats = w.runClients(base, seed, t0.Add(dur))
	win.wall = time.Since(t0)
	win.cpu = cpuTime() - cpu0
	ingWG.Wait()
	win.peakMB = heap.Stop()
	if err := stop(); err != nil {
		return nil, err
	}
	if olErr != nil {
		return nil, olErr
	}
	if err := w.d.fol.Flush(); err != nil {
		return nil, err
	}
	if err := checkArchive(w.d, w.env.det, w.prebuilt+ingest, checkStride); err != nil {
		return nil, err
	}
	for _, st := range win.stats {
		if st.firstErr != nil {
			return nil, st.firstErr
		}
	}
	return &win, nil
}

// latencies pools the clients' request latencies, in µs: all routes in
// the order sent, and per route.
func (win *window) latencies() (all []float64, perRoute [numRoutes][]float64) {
	for _, st := range win.stats {
		for r := range st.lat {
			perRoute[r] = append(perRoute[r], st.lat[r]...)
		}
		all = append(all, st.all...)
	}
	return all, perRoute
}

func (w *queryWorkload) run(cfg config) (*result, error) {
	win, err := w.measure(cfg.seed, seconds(cfg.seconds))
	if err != nil {
		return nil, err
	}
	res := &result{}
	for _, st := range win.stats {
		res.attempted += st.attempts
		res.failed += st.failed
	}
	res.attempted += len(win.ingest.due)
	all, perRoute := win.latencies()
	res.set("ops_per_cpu_s", float64(len(all))/win.cpu.Seconds(), "1/s")
	res.set("lat_p75_ms", windowed(all, 0.75)/1e3, "ms")
	res.set("lat_p90_ms", windowed(all, 0.90)/1e3, "ms")
	res.set("peak_live_heap_mb", win.peakMB, "MB")
	res.note("lat_p50_ms=%.4f lat_p99_ms=%.3f query_rps=%.0f tx_p50_us=%.1f tx_p99_us=%.1f report_get_p50_us=%.1f report_get_p99_us=%.1f reports_range_p99_us=%.1f block_route_p99_ms=%.3f block_requests=%d ingest_blocks_per_s=%d ingest_lat_p99_ms=%.3f clients=%d",
		windowed(all, 0.50)/1e3, windowed(all, 0.99)/1e3, float64(len(all))/win.wall.Seconds(),
		quantile(perRoute[routeTx], 0.5), quantile(perRoute[routeTx], 0.99),
		quantile(perRoute[routeReportGet], 0.5), quantile(perRoute[routeReportGet], 0.99),
		quantile(perRoute[routeReportsRange], 0.99),
		quantile(perRoute[routeBlock], 0.99)/1e3, len(perRoute[routeBlock]),
		queryIngestRate, quantile(win.ingest.latenciesMs(), 0.99), queryClients)
	return res, nil
}
