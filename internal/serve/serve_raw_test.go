package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"leishen/internal/archive"
	"leishen/internal/types"
)

// rawTestArchive appends n randomized report records (varying flags,
// two-ish per block, interleaved checkpoints) and returns the open
// archive plus every stored record in append order — the model the
// /reports tests predict replies from.
func rawTestArchive(t *testing.T, seed int64, n int) (*archive.Archive, []archive.RawRecord) {
	t.Helper()
	arc, err := archive.Open(t.TempDir(), archive.Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { arc.Close() })
	rng := rand.New(rand.NewSource(seed))
	block := uint64(1)
	recs := make([]archive.RawRecord, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			block += uint64(rng.Intn(3))
		}
		flags := uint8(archive.FlagFlashLoan)
		if rng.Intn(3) == 0 {
			flags |= archive.FlagAttack
		}
		if rng.Intn(5) == 0 {
			flags |= archive.FlagSuppressed
		}
		rec := archive.Record{
			Kind:   archive.KindReport,
			TxHash: types.HashFromData([]byte("serveraw"), []byte{byte(seed), byte(i), byte(i >> 8)}),
			Block:  block,
			Flags:  flags,
			// Canonical JSON, as the follower's json.Marshal would store it.
			Report: []byte(fmt.Sprintf(`{"txHash":"%d","block":%d,"isAttack":%v}`, i, block, flags&archive.FlagAttack != 0)),
		}
		if err := arc.AppendReport(&rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, archive.RawRecord{TxHash: rec.TxHash, Block: rec.Block, Flags: rec.Flags, Report: rec.Report})
		if rng.Intn(7) == 0 {
			if err := arc.AppendCheckpoint(archive.Checkpoint{Block: block, Digest: rec.TxHash}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return arc, recs
}

// reportsHandler serves arc's /reports routes; they never touch the
// chain or detector, so none are attached.
func reportsHandler(arc *archive.Archive) http.Handler {
	s := New(nil, nil)
	s.SetArchive(arc)
	return s.Handler()
}

// get drives one request through a handler and returns the response.
func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

// modelPage is the /reports reply for recs (no duplicate hashes)
// resumed at index start: records in [from, to] (to 0 = open) carrying
// every bit of flags, cut at limit, with the cursor of the last record
// when a further match exists.
func modelPage(recs []archive.RawRecord, start int, from, to uint64, flags uint8, limit int) ReportsResponse {
	resp := ReportsResponse{Reports: []json.RawMessage{}}
	var lastHash types.Hash
	for _, r := range recs[start:] {
		if r.Block < from || (to != 0 && r.Block > to) || r.Flags&flags != flags {
			continue
		}
		if len(resp.Reports) == limit {
			resp.More = true
			resp.NextAfter = lastHash.String()
			break
		}
		resp.Reports = append(resp.Reports, r.Report)
		lastHash = r.TxHash
	}
	return resp
}

// errorBody is the {"error": msg} reply every failing route sends.
func errorBody(msg string) map[string]string { return map[string]string{"error": msg} }

// TestReportsBodiesMatchEncoder pins the hand-assembled /reports and
// /reports/{hash} bodies on randomized archives. A list reply must be
// byte for byte what json.NewEncoder writes for the ReportsResponse the
// model predicts from the appended records — verdict filters, block
// ranges, limits, more, nextAfter, and a full pagination walk
// included; a point lookup must be the stored bytes plus a newline;
// every error must be json.NewEncoder's {"error": …}; and every 200
// must carry an exact Content-Length.
func TestReportsBodiesMatchEncoder(t *testing.T) {
	hashErr := func(raw string) string {
		_, err := types.HashFromHex(raw)
		if err == nil {
			t.Fatalf("%q parsed as a hash", raw)
		}
		return err.Error()
	}
	for seed := int64(1); seed <= 3; seed++ {
		arc, recs := rawTestArchive(t, seed, 60+int(seed)*17)
		h := reportsHandler(arc)
		last := recs[len(recs)-1]

		check := func(url string, status int, want string) {
			t.Helper()
			rec := get(t, h, url)
			if rec.Code != status {
				t.Fatalf("GET %s: status %d, want %d (body %s)", url, rec.Code, status, rec.Body.Bytes())
			}
			if got := rec.Body.String(); got != want {
				t.Fatalf("GET %s: body differs:\n got: %s\nwant: %s", url, got, want)
			}
			if status == http.StatusOK {
				if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
					t.Fatalf("GET %s: Content-Length %q, body is %d bytes", url, cl, len(want))
				}
			}
		}
		ok := func(url string, want any) { t.Helper(); check(url, http.StatusOK, encoderBody(t, want)) }
		fail := func(url string, status int, msg string) {
			t.Helper()
			check(url, status, encoderBody(t, errorBody(msg)))
		}

		ok("/reports", modelPage(recs, 0, 0, 0, 0, DefaultReportsLimit))
		ok("/reports?verdict=all&limit=1", modelPage(recs, 0, 0, 0, 0, 1))
		ok("/reports?verdict=attack", modelPage(recs, 0, 0, 0, archive.FlagAttack, DefaultReportsLimit))
		ok("/reports?verdict=suppressed", modelPage(recs, 0, 0, 0, archive.FlagSuppressed, DefaultReportsLimit))
		ok("/reports?verdict=flashloan&limit=7", modelPage(recs, 0, 0, 0, archive.FlagFlashLoan, 7))
		ok("/reports?from=3&to=9", modelPage(recs, 0, 3, 9, 0, DefaultReportsLimit))
		ok("/reports?from=5&verdict=attack&limit=2", modelPage(recs, 0, 5, 0, archive.FlagAttack, 2))
		ok("/reports?from=999999", modelPage(recs, 0, 999999, 0, 0, DefaultReportsLimit))
		ok("/reports?after="+recs[9].TxHash.String()+"&limit=4", modelPage(recs, 10, 0, 0, 0, 4))
		ok("/reports?after="+last.TxHash.String(), modelPage(recs, len(recs), 0, 0, 0, DefaultReportsLimit))
		for _, r := range []archive.RawRecord{recs[0], recs[len(recs)/2], last} {
			check("/reports/"+r.TxHash.String(), http.StatusOK, string(r.Report)+"\n")
		}

		missing := types.HashFromData([]byte("missing"))
		fail("/reports?verdict=bogus", http.StatusBadRequest, "verdict must be attack, flashloan, suppressed or all")
		fail("/reports?limit=0", http.StatusBadRequest, `bad limit "0"`)
		fail("/reports?after=nothex", http.StatusBadRequest, hashErr("nothex"))
		fail("/reports?after="+missing.String(), http.StatusBadRequest, "archive: unknown pagination cursor "+missing.String())
		fail("/reports/"+missing.String(), http.StatusNotFound, "no archived report for "+missing.String())
		fail("/reports/nothex", http.StatusBadRequest, hashErr("nothex"))

		// Pagination walk on a small page size, each cursor taken from the
		// model's page and replayed against the server.
		start, pages := 0, 0
		for url := "/reports?limit=5"; ; pages++ {
			want := modelPage(recs, start, 0, 0, 0, 5)
			ok(url, want)
			if !want.More {
				break
			}
			start += 5
			url = "/reports?limit=5&after=" + want.NextAfter
		}
		if pages < 10 {
			t.Fatalf("seed %d: pagination walk ended after %d pages", seed, pages)
		}
	}
}

// TestReportsPaginationEdges pins the edge cases a paging client can
// produce: a cursor at the very last record, an unknown cursor, limit=0,
// an invalid verdict, an inverted block range, and a limit past
// MaxReportsLimit. Each must answer with well-formed JSON — an error
// object or a page — never a 500.
func TestReportsPaginationEdges(t *testing.T) {
	arc, recs := rawTestArchive(t, 9, 40)
	rawH := reportsHandler(arc)

	check := func(h http.Handler, url string, wantStatus int) map[string]any {
		t.Helper()
		rr := get(t, h, url)
		if rr.Code != wantStatus {
			t.Fatalf("GET %s: status %d, want %d (body %s)", url, rr.Code, wantStatus, rr.Body.Bytes())
		}
		if rr.Code >= http.StatusInternalServerError {
			t.Fatalf("GET %s: server error %d", url, rr.Code)
		}
		var v map[string]any
		if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
			t.Fatalf("GET %s: body is not JSON: %v (%s)", url, err, rr.Body.Bytes())
		}
		return v
	}

	// Cursor at the last record: a valid empty page, not an error.
	v := check(rawH, "/reports?after="+recs[len(recs)-1].TxHash.String(), http.StatusOK)
	if reports, ok := v["reports"].([]any); !ok || len(reports) != 0 {
		t.Fatalf("after-last page = %v, want empty reports array", v)
	}
	if v["more"] != false {
		t.Fatalf("after-last page claims more=%v", v["more"])
	}

	// Unknown cursor: a JSON error object, not a 500.
	v = check(rawH, "/reports?after="+types.HashFromData([]byte("never stored")).String(), http.StatusBadRequest)
	if _, ok := v["error"]; !ok {
		t.Fatalf("unknown cursor reply %v has no error field", v)
	}

	// limit=0 and invalid verdict: rejected as bad requests.
	check(rawH, "/reports?limit=0", http.StatusBadRequest)
	check(rawH, "/reports?limit=-3", http.StatusBadRequest)
	check(rawH, "/reports?verdict=bogus", http.StatusBadRequest)

	// Inverted range: nothing matches, and that is an empty page.
	v = check(rawH, "/reports?from=30&to=2", http.StatusOK)
	if reports, ok := v["reports"].([]any); !ok || len(reports) != 0 {
		t.Fatalf("inverted range page = %v, want empty reports array", v)
	}

	// A limit past MaxReportsLimit is clamped to it, not rejected: a
	// full page, more set, and the cursor at the last record served.
	big, bigRecs := rawTestArchive(t, 10, MaxReportsLimit+37)
	v = check(reportsHandler(big), "/reports?limit=5000", http.StatusOK)
	if reports, ok := v["reports"].([]any); !ok || len(reports) != MaxReportsLimit {
		t.Fatalf("limit=5000 served %d reports, want %d", len(reports), MaxReportsLimit)
	}
	if v["more"] != true {
		t.Fatalf("clamped page claims more=%v", v["more"])
	}
	if want := bigRecs[MaxReportsLimit-1].TxHash.String(); v["nextAfter"] != want {
		t.Fatalf("clamped page nextAfter = %v, want %s", v["nextAfter"], want)
	}
}

// TestRawServingConcurrent hammers the pooled read path from many
// goroutines (list pages and point gets interleaved) so the respBuf
// pool and the archive's shared read handles run under the race
// detector; every body must still be well-formed.
func TestRawServingConcurrent(t *testing.T) {
	arc, recs := rawTestArchive(t, 5, 80)
	srv := httptest.NewServer(reportsHandler(arc))
	defer srv.Close()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				var url string
				if i%2 == 0 {
					url = fmt.Sprintf("%s/reports?limit=%d", srv.URL, 1+(w+i)%9)
				} else {
					url = srv.URL + "/reports/" + recs[(w*31+i)%len(recs)].TxHash.String()
				}
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
					return
				}
				if !json.Valid(body) {
					errs <- fmt.Errorf("GET %s: invalid JSON body %q", url, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
