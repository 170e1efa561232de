package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"leishen/internal/archive"
	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/flashloan"
	"leishen/internal/follower"
	"leishen/internal/metrics"
	"leishen/internal/scan"
	"leishen/internal/serve"
	"leishen/internal/simplify"
	"leishen/internal/types"
	"leishen/internal/world"
)

// followWorkers is the follower's scan pool size (the daemon's
// -workers flag). A block carries about 50 screened transactions, too
// few to amortize a pool hand-off, so one worker is both the faster and
// the steadier setting on a small host.
const followWorkers = 1

// corpusEnv is what every workload builds first: the generated corpus,
// its detector (wired as cmd/leishen builds it) and the corpus blocks
// that hold at least one screened receipt.
type corpusEnv struct {
	corpus *world.Corpus
	det    *core.Detector
	// blocks are the corpus chain's flash-loan blocks, in height order.
	blocks []*evm.Block
	// screenedPerLap counts the receipts of blocks the follower screens
	// into the pipeline (successful flash-loan transactions).
	screenedPerLap int
}

func newCorpusEnv(seed int64, scale int) (*corpusEnv, error) {
	c, err := world.Generate(world.Config{Seed: seed, ScalePct: scale})
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	det := core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{Simplify: simplify.Options{WETH: c.Env.WETH}})
	env := &corpusEnv{corpus: c, det: det}
	for _, b := range c.Env.Chain.Blocks() {
		n := 0
		for _, r := range b.Receipts {
			if screened(r) {
				n++
			}
		}
		if n > 0 {
			env.blocks = append(env.blocks, b)
			env.screenedPerLap += n
		}
	}
	if env.screenedPerLap == 0 {
		return nil, errors.New("corpus holds no flash-loan blocks")
	}
	return env, nil
}

// screened is the follower's gate: successful flash-loan transactions.
func screened(r *evm.Receipt) bool { return r.Success && flashloan.IsFlashLoanTx(r) }

// buildLaps replays the flash-loan blocks lap after lap as one chain:
// every copy gets the next height and a shifted timestamp, and every
// receipt a fresh tx hash, so each lap hands the detector identical
// work under new identities. Receipts are shallow copies: logs and call
// frames are shared and read-only.
func (e *corpusEnv) buildLaps(laps int) []*evm.Block {
	first, last := e.blocks[0].Time, e.blocks[len(e.blocks)-1].Time
	span := last.Sub(first) + 12*time.Second
	out := make([]*evm.Block, 0, laps*len(e.blocks))
	var lapTag [8]byte
	for lap := 0; lap < laps; lap++ {
		binary.BigEndian.PutUint64(lapTag[:], uint64(lap))
		shift := time.Duration(lap) * span
		for _, b := range e.blocks {
			nb := &evm.Block{
				Number:   uint64(len(out) + 1),
				Time:     b.Time.Add(shift),
				Receipts: make([]*evm.Receipt, len(b.Receipts)),
			}
			for i, r := range b.Receipts {
				cp := *r
				cp.TxHash = types.HashFromData(r.TxHash[:], lapTag[:])
				cp.Block = nb.Number
				cp.Time = nb.Time
				nb.Receipts[i] = &cp
			}
			out = append(out, nb)
		}
	}
	return out
}

// releaseSource is the benchmark-owned follower.BlockSource: a fixed
// block stream of which only the first head blocks are visible. The
// generator advances head; the follower sees a chain growing on its
// schedule.
type releaseSource struct {
	blocks []*evm.Block
	head   atomic.Uint64
}

func (s *releaseSource) HeadBlock() (uint64, error) { return s.head.Load(), nil }

func (s *releaseSource) BlockByNumber(n uint64) (*evm.Block, bool, error) {
	if n == 0 || n > s.head.Load() {
		return nil, false, nil
	}
	return s.blocks[n-1], true, nil
}

// daemon is the -follow -serve wiring of cmd/leishen: one detector, a
// follower over an on-disk archive, and the HTTP server reading that
// archive, all reporting into one telemetry registry.
type daemon struct {
	dir     string
	src     *releaseSource
	arc     *archive.Archive
	fol     *follower.Follower
	hs      *http.Server // serves handler once, on a loopback listener
	handler http.Handler
}

func openDaemon(dir string, env *corpusEnv, blocks []*evm.Block) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	sm, fm := scan.NewMetrics(reg), follower.NewMetrics(reg)
	arc, err := archive.Open(dir, archive.Options{})
	if err != nil {
		return nil, err
	}
	arc.RegisterMetrics(reg)
	src := &releaseSource{blocks: blocks}
	fol, err := follower.New(src, env.det, arc, follower.Options{
		Scan:    scan.Options{Workers: followWorkers, Metrics: sm},
		Metrics: fm,
	})
	if err != nil {
		//lint:allow errflow the follower error is the one to report
		_ = arc.Close()
		return nil, err
	}
	srv := serve.New(env.corpus.Env.Chain, env.det)
	srv.ScanOpts = scan.Options{Workers: followWorkers, Metrics: sm}
	srv.SetMetrics(serve.NewMetrics(reg))
	srv.SetArchive(arc)
	srv.SetFollower(fol)
	// The instrumented handler registers its series once per registry,
	// so the listener and in-process requests share one handler.
	hs := srv.NewHTTPServer("127.0.0.1:0", serve.HTTPConfig{})
	return &daemon{dir: dir, src: src, arc: arc, fol: fol, hs: hs, handler: hs.Handler}, nil
}

// close drains the follower through its final fsync, seals the archive
// and, when remove is set, deletes the archive directory.
func (d *daemon) close(remove bool) error {
	err := d.fol.Close()
	if cerr := d.arc.Close(); err == nil {
		err = cerr
	}
	if remove {
		if rerr := os.RemoveAll(d.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// checkpointPoller asks the daemon's in-process GET /checkpoint for the
// durable height. It reuses one request and one response buffer, so a
// poll loop adds next to no garbage to the daemon it measures.
type checkpointPoller struct {
	handler http.Handler
	req     *http.Request
	header  http.Header
	code    int
	body    bytes.Buffer
	cp      archive.Checkpoint
}

func newCheckpointPoller(d *daemon) *checkpointPoller {
	return &checkpointPoller{
		handler: d.handler,
		req:     httptest.NewRequest(http.MethodGet, "/checkpoint", nil),
		header:  http.Header{},
	}
}

func (p *checkpointPoller) Header() http.Header         { return p.header }
func (p *checkpointPoller) Write(b []byte) (int, error) { return p.body.Write(b) }
func (p *checkpointPoller) WriteHeader(code int)        { p.code = code }

// poll returns the durable checkpoint height, 0 before the first one.
func (p *checkpointPoller) poll() (uint64, error) {
	clear(p.header)
	p.code = http.StatusOK
	p.body.Reset()
	p.handler.ServeHTTP(p, p.req)
	switch p.code {
	case http.StatusNotFound:
		return 0, nil
	case http.StatusOK:
	default:
		return 0, fmt.Errorf("GET /checkpoint: status %d", p.code)
	}
	if err := json.Unmarshal(p.body.Bytes(), &p.cp); err != nil {
		return 0, fmt.Errorf("GET /checkpoint: %w", err)
	}
	return p.cp.Block, nil
}

// checkArchive verifies what the follower archived from blocks[:upTo]:
// exactly one record per screened receipt, the checkpoint at the last
// height, and — for every stride-th screened receipt — stored bytes
// equal to json.Marshal of a fresh inspection of the same renumbered
// receipt.
func checkArchive(d *daemon, det *core.Detector, upTo int, stride int) error {
	if err := d.fol.WriterErr(); err != nil {
		return fmt.Errorf("archive writer: %w", err)
	}
	want := 0
	k := 0
	for _, b := range d.src.blocks[:upTo] {
		for _, r := range b.Receipts {
			if !screened(r) {
				continue
			}
			want++
			if k++; k%stride != 0 {
				continue
			}
			raw, ok, err := d.arc.GetRaw(r.TxHash)
			if err != nil {
				return fmt.Errorf("archive get %s: %w", r.TxHash, err)
			}
			if !ok {
				return fmt.Errorf("archive lacks screened tx %s (block %d)", r.TxHash, r.Block)
			}
			fresh, err := json.Marshal(det.Inspect(r))
			if err != nil {
				return err
			}
			if !bytes.Equal(normElapsed(nil, raw.Report), normElapsed(nil, fresh)) {
				return fmt.Errorf("archived report for %s differs from a fresh inspection", r.TxHash)
			}
		}
	}
	if got := d.arc.Count(); got != want {
		return fmt.Errorf("archive holds %d records, want one per screened receipt = %d", got, want)
	}
	cp, ok := d.arc.Checkpoint()
	if last := uint64(upTo); !ok || cp.Block != last {
		return fmt.Errorf("checkpoint at %d (present %v), want %d", cp.Block, ok, last)
	}
	return nil
}

// elapsedKey precedes the only field of a report document that varies
// between two inspections of one receipt: the wall time it took.
var elapsedKey = []byte(`"elapsedMicros":`)

// normElapsed appends src to dst with every elapsedMicros value
// rewritten to 0, so two encodings of the same verdict compare equal.
func normElapsed(dst, src []byte) []byte {
	for {
		i := bytes.Index(src, elapsedKey)
		if i < 0 {
			return append(dst, src...)
		}
		i += len(elapsedKey)
		dst = append(dst, src[:i]...)
		dst = append(dst, '0')
		src = src[i:]
		for len(src) > 0 && src[0] >= '0' && src[0] <= '9' {
			src = src[1:]
		}
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// bodyDigest fingerprints a response body with elapsedMicros zeroed.
func bodyDigest(scratch *[]byte, body []byte) uint32 {
	*scratch = normElapsed((*scratch)[:0], body)
	return crc32.Checksum(*scratch, castagnoli)
}
