// Package serve exposes the detector over HTTP — the deployment mode a
// monitoring service (Forta-style) would run: a node-side process that
// answers "is this transaction a flpAttack?" in microseconds.
//
// Endpoints:
//
//	GET  /healthz           liveness: uptime, archive record count,
//	                        follower lag (when attached); 503 with
//	                        status "degraded" when the writer is
//	                        retrying/failed or lag exceeds the threshold
//	GET  /stats             corpus-wide detection statistics
//	GET  /tx/{hash}         detection report for one transaction
//	GET  /block/{number}    reports for every flash loan tx in a block
//	POST /batch             batched ingest: {"hashes": [...]} scanned on
//	                        the parallel engine, reports in request order
//
// With an archive attached (SetArchive) three query endpoints answer
// from stored verdicts instead of re-running detection:
//
//	GET  /reports           archived reports; ?from=&to= bound the block
//	                        range, ?verdict=attack|flashloan|suppressed
//	                        filters, ?limit= and ?after={txhash} paginate
//	GET  /reports/{hash}    one archived report by transaction hash
//	GET  /checkpoint        the follower's durable progress checkpoint
package serve

import (
	"encoding/json"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"leishen/internal/archive"
	"leishen/internal/buildinfo"
	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/flashloan"
	"leishen/internal/follower"
	"leishen/internal/metrics"
	"leishen/internal/scan"
	"leishen/internal/types"
)

// MaxBatch bounds one /batch request; larger corpora should be split by
// the client (the limit protects the monitor from one giant ingest call
// monopolizing the pool).
const MaxBatch = 10_000

// DefaultReportsLimit and MaxReportsLimit bound one /reports page.
const (
	DefaultReportsLimit = 100
	MaxReportsLimit     = 1000
)

// DefaultDegradedLag is the follower lag (blocks behind the source
// head) at which /healthz flips to degraded when Server.DegradedLag is
// unset. A monitor a few blocks behind is normal pipelining; tens of
// blocks means ingestion is not keeping up and alerts should fire.
const DefaultDegradedLag = 16

// Server serves detection reports over a chain snapshot.
type Server struct {
	chain *evm.Chain
	det   *core.Detector
	start time.Time

	// ScanOpts configures the worker pool used by /batch. Set before
	// Handler is called; the zero value means GOMAXPROCS workers.
	ScanOpts scan.Options

	// DegradedLag is the follower lag (blocks) beyond which /healthz
	// reports degraded; 0 means DefaultDegradedLag. Set before Handler
	// is called.
	DegradedLag uint64

	arc *archive.Archive
	fol *follower.Follower
	met *Metrics

	stats statCounters
}

// Stats summarizes what the server has inspected so far. It is the
// scan engine's summary type: one report-counting vocabulary across the
// batch engine, the follower and the HTTP surface.
type Stats = scan.Summary

// statCounters accumulates Stats with one lock-free counter per field,
// so concurrent /tx, /block and /batch requests never serialize on a
// shared lock. A snapshot taken while requests are in flight may count
// one request in some fields and not yet in others.
type statCounters struct {
	inspected, flashLoans, attacks, suppressed, errors metrics.Counter
}

func (c *statCounters) add(s Stats) {
	c.inspected.Add(uint64(s.Inspected))
	c.flashLoans.Add(uint64(s.FlashLoans))
	c.attacks.Add(uint64(s.Attacks))
	c.suppressed.Add(uint64(s.Suppressed))
	c.errors.Add(uint64(s.Errors))
}

func (c *statCounters) observe(rep *core.Report) {
	var one Stats
	one.Observe(rep)
	c.add(one)
}

func (c *statCounters) snapshot() Stats {
	return Stats{
		Inspected:  int(c.inspected.Value()),
		FlashLoans: int(c.flashLoans.Value()),
		Attacks:    int(c.attacks.Value()),
		Suppressed: int(c.suppressed.Value()),
		Errors:     int(c.errors.Value()),
	}
}

// New builds a server.
func New(chain *evm.Chain, det *core.Detector) *Server {
	return &Server{chain: chain, det: det, start: time.Now()}
}

// SetArchive attaches the durable report store backing /reports,
// /reports/{hash} and /checkpoint. Call before Handler.
func (s *Server) SetArchive(a *archive.Archive) { s.arc = a }

// SetFollower attaches the ingestion daemon whose lag /healthz reports.
// Call before Handler.
func (s *Server) SetFollower(f *follower.Follower) { s.fol = f }

// SetMetrics attaches HTTP-layer telemetry: every route gains request,
// latency and response-size series, and GET /metrics serves m's
// registry in Prometheus text format. Call before Handler.
func (s *Server) SetMetrics(m *Metrics) { s.met = m }

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.Handler) {
		if s.met != nil {
			h = s.met.route(pattern).instrument(h)
		}
		mux.Handle(pattern, h)
	}
	handle("GET /healthz", http.HandlerFunc(s.handleHealthz))
	handle("GET /stats", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.stats.snapshot())
	}))
	handle("GET /tx/{hash}", http.HandlerFunc(s.handleTx))
	handle("GET /block/{number}", http.HandlerFunc(s.handleBlock))
	handle("POST /batch", http.HandlerFunc(s.handleBatch))
	handle("GET /reports", http.HandlerFunc(s.handleReports))
	handle("GET /reports/{hash}", http.HandlerFunc(s.handleReportByTx))
	handle("GET /checkpoint", http.HandlerFunc(s.handleCheckpoint))
	if s.met != nil {
		handle("GET /metrics", s.met.reg.Handler())
	}
	return mux
}

// Healthz is the /healthz reply. Status is "ok" — or "degraded" (with
// a 503 status code) when the attached follower's writer is retrying
// or failed, or its lag exceeds the degraded threshold; Degraded then
// lists the human-readable reasons.
type Healthz struct {
	Status   string   `json:"status"`
	Degraded []string `json:"degraded,omitempty"`
	// Version is the build version stamped at link time (-ldflags -X);
	// "dev" for unstamped builds. GoVersion is the runtime's toolchain.
	Version       string `json:"version"`
	GoVersion     string `json:"go_version"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	// Archive holds store figures — size, index-layer effectiveness
	// (sidecar loads vs. replays, segments pruned, cache hit rate) —
	// when an archive is attached.
	Archive *archive.Stats `json:"archive,omitempty"`
	// Follower holds ingestion progress when a follower is attached.
	Follower *follower.Stats `json:"follower,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Healthz{
		Status:        "ok",
		Version:       buildinfo.Version,
		GoVersion:     buildinfo.GoVersion(),
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
	}
	if s.arc != nil {
		st := s.arc.Stats()
		h.Archive = &st
	}
	status := http.StatusOK
	if s.fol != nil {
		st := s.fol.Stats()
		h.Follower = &st
		if err := s.fol.WriterErr(); err != nil {
			h.Degraded = append(h.Degraded, "archive writer failed: "+err.Error())
		} else if st.Degraded {
			h.Degraded = append(h.Degraded, "archive writer retrying after transient faults")
		}
		if lim := s.degradedLag(); st.Lag > lim {
			h.Degraded = append(h.Degraded,
				"follower lag "+strconv.FormatUint(st.Lag, 10)+" blocks exceeds "+strconv.FormatUint(lim, 10))
		}
	}
	if len(h.Degraded) > 0 {
		h.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	writePooledJSON(w, status, h)
}

func (s *Server) degradedLag() uint64 {
	if s.DegradedLag > 0 {
		return s.DegradedLag
	}
	return DefaultDegradedLag
}

// writerDown returns the follower's sticky archive-writer failure, if
// any — the state in which the store-backed and ingest endpoints
// refuse with 503 (temporarily unavailable, operator action needed)
// rather than serving from a store that is no longer advancing.
func (s *Server) writerDown() error {
	if s.fol == nil {
		return nil
	}
	return s.fol.WriterErr()
}

// ReportsResponse is the /reports reply: the stored report documents in
// block order plus the pagination cursor.
type ReportsResponse struct {
	Reports []json.RawMessage `json:"reports"`
	// More is true when the limit cut the scan short; NextAfter is then
	// the ?after= cursor for the next page.
	More      bool   `json:"more"`
	NextAfter string `json:"nextAfter,omitempty"`
}

// handleReports answers range queries from the archive — no detection
// runs; the stored verdict bytes are returned as written.
func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	if s.arc == nil {
		writeError(w, http.StatusServiceUnavailable, "no archive attached")
		return
	}
	if err := s.writerDown(); err != nil {
		writeError(w, http.StatusServiceUnavailable, "archive writer down: "+err.Error())
		return
	}
	q := archive.Query{Limit: DefaultReportsLimit}
	params := r.URL.Query()
	var err error
	if q.FromBlock, err = uintParam(params.Get("from")); err != nil {
		writeError(w, http.StatusBadRequest, "bad from: "+err.Error())
		return
	}
	if q.ToBlock, err = uintParam(params.Get("to")); err != nil {
		writeError(w, http.StatusBadRequest, "bad to: "+err.Error())
		return
	}
	if raw := params.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad limit "+strconv.Quote(raw))
			return
		}
		if n > MaxReportsLimit {
			n = MaxReportsLimit
		}
		q.Limit = n
	}
	if raw := params.Get("after"); raw != "" {
		if q.After, err = types.HashFromHex(raw); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	switch params.Get("verdict") {
	case "", "all":
	case "attack":
		q.Flags = archive.FlagAttack
	case "flashloan":
		q.Flags = archive.FlagFlashLoan
	case "suppressed":
		q.Flags = archive.FlagSuppressed
	default:
		writeError(w, http.StatusBadRequest, "verdict must be attack, flashloan, suppressed or all")
		return
	}
	recs, more, err := s.arc.SelectRaw(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Assemble the ReportsResponse envelope by hand around the stored
	// bytes — no unmarshal, no re-encode. The layout must stay
	// byte-identical to json.NewEncoder output for the equivalent
	// ReportsResponse; TestReportsBodiesMatchEncoder holds it there.
	rb := getRespBuf()
	rb.buf.WriteString(`{"reports":[`)
	for i := range recs {
		if i > 0 {
			rb.buf.WriteByte(',')
		}
		rb.buf.Write(recs[i].Report)
	}
	rb.buf.WriteString(`],"more":`)
	rb.buf.WriteString(strconv.FormatBool(more))
	if more && len(recs) > 0 {
		rb.buf.WriteString(`,"nextAfter":"`)
		rb.buf.WriteString(recs[len(recs)-1].TxHash.String())
		rb.buf.WriteByte('"')
	}
	rb.buf.WriteString("}\n")
	writeBuf(w, http.StatusOK, rb)
}

func uintParam(raw string) (uint64, error) {
	if raw == "" {
		return 0, nil
	}
	return strconv.ParseUint(strings.TrimSpace(raw), 10, 64)
}

// handleReportByTx serves one stored report document.
func (s *Server) handleReportByTx(w http.ResponseWriter, r *http.Request) {
	if s.arc == nil {
		writeError(w, http.StatusServiceUnavailable, "no archive attached")
		return
	}
	if err := s.writerDown(); err != nil {
		writeError(w, http.StatusServiceUnavailable, "archive writer down: "+err.Error())
		return
	}
	raw := r.PathValue("hash")
	h, err := types.HashFromHex(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rec, ok, err := s.arc.GetRaw(h)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no archived report for "+raw)
		return
	}
	rb := getRespBuf()
	rb.buf.Write(rec.Report)
	rb.buf.WriteByte('\n')
	writeBuf(w, http.StatusOK, rb)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.arc == nil {
		writeError(w, http.StatusServiceUnavailable, "no archive attached")
		return
	}
	cp, ok := s.arc.Checkpoint()
	if !ok {
		writeError(w, http.StatusNotFound, "archive holds no checkpoint yet")
		return
	}
	writeJSON(w, http.StatusOK, cp)
}

// BatchRequest is the /batch ingest payload.
type BatchRequest struct {
	// Hashes lists the transactions to scan, in the order reports are
	// wanted back.
	Hashes []string `json:"hashes"`
}

// BatchResponse is the /batch reply: one report per requested hash, in
// request order, plus the batch summary.
type BatchResponse struct {
	Reports []core.ReportJSON `json:"reports"`
	Summary scan.Summary      `json:"summary"`
}

// handleBatch resolves the requested receipts and scans them on the
// parallel engine. Output order matches request order regardless of the
// pool's scheduling, so clients can zip reports back to their hashes.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if err := s.writerDown(); err != nil {
		writeError(w, http.StatusServiceUnavailable, "archive writer down: "+err.Error())
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		media, _, err := mime.ParseMediaType(ct)
		if err != nil || media != "application/json" {
			writeError(w, http.StatusUnsupportedMediaType, "batch body must be application/json, got "+strconv.Quote(ct))
			return
		}
	}
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad batch payload: "+err.Error())
		return
	}
	if len(req.Hashes) > MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			"batch of "+strconv.Itoa(len(req.Hashes))+" exceeds the "+strconv.Itoa(MaxBatch)+" limit")
		return
	}
	receipts := make([]*evm.Receipt, 0, len(req.Hashes))
	for _, raw := range req.Hashes {
		h, err := types.HashFromHex(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		receipt, ok := s.chain.Receipt(h)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown transaction "+raw)
			return
		}
		receipts = append(receipts, receipt)
	}
	reports, sum := scan.Scan(s.det, receipts, s.ScanOpts)
	s.stats.add(sum)
	resp := BatchResponse{Reports: make([]core.ReportJSON, len(reports)), Summary: sum}
	for i, rep := range reports {
		resp.Reports[i] = rep.JSON()
	}
	writePooledJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTx(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("hash")
	h, err := types.HashFromHex(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	receipt, ok := s.chain.Receipt(h)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown transaction "+raw)
		return
	}
	writePooledJSON(w, http.StatusOK, s.inspect(receipt).JSON())
}

// blockResponse is the /block reply: the block's number and time and
// the report for each of its successful flash loan transactions, in
// block order. Fields are declared in key order, so the body matches
// what encoding/json writes for the equivalent map.
type blockResponse struct {
	Block   uint64            `json:"block"`
	Reports []core.ReportJSON `json:"reports"`
	Time    time.Time         `json:"time"`
}

func (s *Server) handleBlock(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.ParseUint(strings.TrimSpace(r.PathValue("number")), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad block number")
		return
	}
	blk, ok := s.chain.BlockByNumber(n)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown block")
		return
	}
	resp := blockResponse{Block: blk.Number, Reports: make([]core.ReportJSON, 0, 4), Time: blk.Time}
	for _, receipt := range blk.Receipts {
		if !receipt.Success || !flashloan.IsFlashLoanTx(receipt) {
			continue
		}
		resp.Reports = append(resp.Reports, s.inspect(receipt).JSON())
	}
	writePooledJSON(w, http.StatusOK, resp)
}

func (s *Server) inspect(receipt *evm.Receipt) *core.Report {
	rep := s.det.Inspect(receipt)
	s.stats.observe(rep)
	return rep
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//lint:allow errflow headers are already sent; an encode failure here has no recovery path
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
