// The serve benchmark: end-to-end HTTP read-path throughput of the
// zero-decode /reports routes against a generated archive. The server
// runs in-process (httptest over a real TCP listener) and the load is
// concurrent GET /reports pages and GET /reports/{txhash} point
// lookups — the two queries a monitoring backend answers constantly.
//
// Before any timing, the harness checks every served body against
// json.NewEncoder output for the value the route promises, computed
// from the generator's record numbering rather than read back from the
// archive, and holds the list route's allocations per request under a
// per-shape ceiling. A violation is an error, not a bad number, so
// `make bench-serve-smoke` doubles as a correctness gate.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"leishen/internal/archive"
	"leishen/internal/serve"
	"leishen/internal/types"
)

// ServeResult is the BENCH_serve.json schema.
type ServeResult struct {
	// Workload shape: an archive of Records synthetic reports served
	// in-process; list requests page ListLimit reports, point requests
	// fetch one report by hash.
	Records      int `json:"records"`
	PayloadBytes int `json:"payload_bytes"`
	ListLimit    int `json:"list_limit"`
	Concurrency  int `json:"concurrency"`
	GOMAXPROCS   int `json:"gomaxprocs"`
	Rounds       int `json:"rounds"`
	// ListAllocsCeiling is the shape's bound on Raw.List.AllocsPerReq;
	// the pass fails unless the measured figure stays below it.
	ListAllocsCeiling float64 `json:"list_allocs_ceiling"`
	// Raw is the zero-decode serving path: stored report bytes
	// assembled into a pooled buffer and written with Content-Length.
	Raw ServePathResult `json:"raw"`
}

// ServePathResult groups one path's figures per endpoint.
type ServePathResult struct {
	List ServeFigures `json:"reports_list"`
	Get  ServeFigures `json:"reports_get"`
}

// ServeFigures is one endpoint's measurement.
type ServeFigures struct {
	Requests     int     `json:"requests"`
	QPS          float64 `json:"qps"`
	P50Micros    float64 `json:"p50_us"`
	P99Micros    float64 `json:"p99_us"`
	AllocsPerReq float64 `json:"allocs_per_req"`
	BodyBytes    int     `json:"body_bytes"`
}

// The list route's allocation ceilings, one per bench shape. Each is
// the floor of the lowest allocs/req the retired decode-then-re-encode
// /reports path measured on that shape (smoke 21.16-21.63 over 6 runs,
// full 25.31-25.88 over 5 runs; 2-CPU Linux x86-64, GOMAXPROCS 2), so
// the gate is no looser than the raw-beats-decode comparison it
// replaced.
const (
	fullListAllocsCeiling  = 25
	smokeListAllocsCeiling = 21
)

// benchServe builds the archive corpus, checks every served body
// against the encoder oracle, then measures the serving path.
func benchServe(smoke bool, rounds int) (*ServeResult, error) {
	res := &ServeResult{
		Records:           100_000,
		ListLimit:         1000,
		Concurrency:       4,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Rounds:            rounds,
		ListAllocsCeiling: fullListAllocsCeiling,
	}
	listReqs, getReqs := 400, 4000
	if smoke {
		res.Records = 2_000
		res.ListLimit = 100
		res.ListAllocsCeiling = smokeListAllocsCeiling
		listReqs, getReqs = 40, 400
	}
	if rounds > 3 {
		res.Rounds = 3
	}

	// Reuse the archive bench's corpus generator: same synthetic report
	// payload, same two-records-per-block cadence, group-commit ingest.
	shape := &ArchiveResult{Records: res.Records, CheckpointEvery: 512, SyncEvery: 8, SegmentBytes: 8 << 20}
	payload := benchReportPayload()
	res.PayloadBytes = len(payload)
	dir, err := os.MkdirTemp("", "leishen-bench-serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if _, _, err := populate(dir, shape, payload, true); err != nil {
		return nil, err
	}
	arc, err := archive.Open(dir, archive.Options{})
	if err != nil {
		return nil, err
	}
	defer arc.Close()

	s := serve.New(nil, nil)
	s.SetArchive(arc)
	h := s.Handler()

	listURLs := benchListURLs(res)
	getURLs := benchGetURLs(res)
	if err := assertEncoderBodies(h, res, payload); err != nil {
		return nil, err
	}

	// Allocation profile, handler-level (recorder, serial). A list
	// request at or over the ceiling means the zero-decode plumbing
	// regressed into copying.
	res.Raw.List.AllocsPerReq = allocsPerRequest(h, listURLs)
	res.Raw.Get.AllocsPerReq = allocsPerRequest(h, getURLs)
	if res.Raw.List.AllocsPerReq >= res.ListAllocsCeiling {
		return nil, fmt.Errorf("/reports allocates %.2f/req, ceiling for this shape is %.0f",
			res.Raw.List.AllocsPerReq, res.ListAllocsCeiling)
	}

	// Timed load over real HTTP, best round kept per endpoint.
	for round := 0; round < res.Rounds; round++ {
		if err := loadRound(h, listURLs, listReqs, res.Concurrency, &res.Raw.List); err != nil {
			return nil, err
		}
		if err := loadRound(h, getURLs, getReqs, res.Concurrency, &res.Raw.Get); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// benchReportPayload is the representative mid-size detection report
// the archive bench also uses.
func benchReportPayload() []byte {
	return []byte(`{"txHash":"0x0000000000000000000000000000000000000000000000000000000000000000",` +
		`"block":0,"success":true,"isFlashLoanTx":true,"isAttack":false,` +
		`"loans":[{"provider":"Uniswap","token":"0x00","amount":"40000000000000"}],` +
		`"matches":[],"trades":12,"transfers":31,"elapsedMicros":184}`)
}

// benchTxHash mirrors populate's hash scheme, so point lookups can be
// generated without reading the archive.
func benchTxHash(i int) types.Hash {
	return types.HashFromData([]byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)})
}

// benchListFroms spreads page queries across the block range (two
// records per block in the generated corpus).
func benchListFroms(res *ServeResult) []int {
	const n = 16
	froms := make([]int, 0, n)
	maxBlock := res.Records / 2
	for i := 0; i < n; i++ {
		froms = append(froms, 1+i*maxBlock/n)
	}
	return froms
}

func benchListURLs(res *ServeResult) []string {
	var urls []string
	for _, from := range benchListFroms(res) {
		urls = append(urls, benchListURL(res, from))
	}
	return urls
}

func benchListURL(res *ServeResult, from int) string {
	return fmt.Sprintf("/reports?limit=%d&from=%d", res.ListLimit, from)
}

// benchGetURLs spreads point lookups over the whole corpus — far more
// hashes than the record cache holds, so the figures include real frame
// reads, not just cache hits.
func benchGetURLs(res *ServeResult) []string {
	const n = 512
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		urls = append(urls, "/reports/"+benchTxHash(i*res.Records/n).String())
	}
	return urls
}

// assertEncoderBodies checks the served status, body and
// Content-Length against json.NewEncoder output for the value each
// route promises: every bench URL, a full-limit pagination walk, an
// empty page and a 404. The expected pages come from the generator's
// numbering — record i sits in block 1+i/2 under benchTxHash(i) and
// stores payload, every record carries FlagFlashLoan — not from the
// archive under test.
func assertEncoderBodies(h http.Handler, res *ServeResult, payload []byte) error {
	// page is the ReportsResponse for the ListLimit records from first.
	page := func(first int) serve.ReportsResponse {
		last := min(first+res.ListLimit, res.Records)
		resp := serve.ReportsResponse{Reports: []json.RawMessage{}, More: last < res.Records}
		for i := first; i < last; i++ {
			resp.Reports = append(resp.Reports, payload)
		}
		if resp.More {
			resp.NextAfter = benchTxHash(last - 1).String()
		}
		return resp
	}
	for _, from := range benchListFroms(res) {
		if err := checkEncoderBody(h, benchListURL(res, from), http.StatusOK, page(2*(from-1))); err != nil {
			return err
		}
	}
	for _, url := range benchGetURLs(res) {
		if err := checkEncoderBody(h, url, http.StatusOK, json.RawMessage(payload)); err != nil {
			return err
		}
	}
	miss := types.Hash{}.String()
	if err := checkEncoderBody(h, "/reports/"+miss, http.StatusNotFound,
		map[string]string{"error": "no archived report for " + miss}); err != nil {
		return err
	}
	if err := checkEncoderBody(h, "/reports?from=999999999", http.StatusOK,
		serve.ReportsResponse{Reports: []json.RawMessage{}}); err != nil {
		return err
	}
	// Pagination walk: follow each page's cursor from the start.
	url := fmt.Sprintf("/reports?verdict=flashloan&limit=%d", res.ListLimit)
	for first := 0; first < res.Records && first < 8*res.ListLimit; first += res.ListLimit {
		want := page(first)
		if err := checkEncoderBody(h, url, http.StatusOK, want); err != nil {
			return err
		}
		url = fmt.Sprintf("/reports?verdict=flashloan&limit=%d&after=%s", res.ListLimit, want.NextAfter)
	}
	return nil
}

// checkEncoderBody serves one GET and compares it to json.NewEncoder's
// encoding of want.
func checkEncoderBody(h http.Handler, url string, status int, want any) error {
	var wantBody bytes.Buffer
	if err := json.NewEncoder(&wantBody).Encode(want); err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if rec.Code != status {
		return fmt.Errorf("GET %s: status %d, want %d", url, rec.Code, status)
	}
	if !bytes.Equal(rec.Body.Bytes(), wantBody.Bytes()) {
		return fmt.Errorf("GET %s: body differs from json.NewEncoder output (%d vs %d bytes)", url, rec.Body.Len(), wantBody.Len())
	}
	if status == http.StatusOK {
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(wantBody.Len()) {
			return fmt.Errorf("GET %s: Content-Length %q, body is %d bytes", url, cl, wantBody.Len())
		}
	}
	return nil
}

// discardResponseWriter is a reusable ResponseWriter that swallows the
// body, so allocsPerRequest counts the handler's allocations, not a
// fresh recorder's buffer growth per request.
type discardResponseWriter struct{ h http.Header }

func (d *discardResponseWriter) Header() http.Header         { return d.h }
func (d *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponseWriter) WriteHeader(int)             {}

// allocsPerRequest measures steady-state heap allocations per request,
// driving the handler directly (no network, requests pre-built, body
// discarded) so the figure isolates the handler + encoding path.
func allocsPerRequest(h http.Handler, urls []string) float64 {
	const n = 64
	reqs := make([]*http.Request, len(urls))
	for i, u := range urls {
		reqs[i] = httptest.NewRequest("GET", u, nil)
	}
	w := &discardResponseWriter{h: make(http.Header, 4)}
	for i := 0; i < 8; i++ {
		h.ServeHTTP(w, reqs[i%len(reqs)])
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		h.ServeHTTP(w, reqs[i%len(reqs)])
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// loadRound drives total requests at the given concurrency over a real
// HTTP listener and folds the round's QPS and latency percentiles into
// fig, keeping the best round's figures.
func loadRound(h http.Handler, urls []string, total, concurrency int, fig *ServeFigures) error {
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := srv.Client()

	perWorker := total / concurrency
	lats := make([][]time.Duration, concurrency)
	errs := make([]error, concurrency)
	var bodyBytes int
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				u := srv.URL + urls[(w*perWorker+i)%len(urls)]
				t0 := time.Now()
				resp, err := client.Get(u)
				if err != nil {
					errs[w] = err
					return
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					errs[w] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs[w] = fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
					return
				}
				if w == 0 && i == 0 {
					bodyBytes = int(n)
				}
				mine = append(mine, time.Since(t0))
			}
			lats[w] = mine
		}(w)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	qps := float64(len(all)) / wall
	if qps > fig.QPS {
		fig.Requests = len(all)
		fig.QPS = qps
		fig.P50Micros = float64(all[len(all)/2].Microseconds())
		fig.P99Micros = float64(all[len(all)*99/100].Microseconds())
		fig.BodyBytes = bodyBytes
	}
	return nil
}
