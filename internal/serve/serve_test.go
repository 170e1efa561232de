package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"leishen/internal/attacks"
	"leishen/internal/core"
	"leishen/internal/simplify"
)

func testServer(t *testing.T) (*httptest.Server, *attacks.Result) {
	t.Helper()
	sc, ok := attacks.ByName("Harvest Finance")
	if !ok {
		t.Fatal("scenario missing")
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewDetector(res.Env.Chain, res.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: res.Env.WETH},
	})
	srv := httptest.NewServer(New(res.Env.Chain, det).Handler())
	t.Cleanup(srv.Close)
	return srv, res
}

func getJSON(t *testing.T, url string, wantStatus int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	var out Healthz
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &out)
	if out.Status != "ok" {
		t.Errorf("health = %+v", out)
	}
	if out.Archive != nil || out.Follower != nil {
		t.Errorf("bare server advertises archive/follower sections: %+v", out)
	}
}

func TestTxReport(t *testing.T) {
	srv, res := testServer(t)
	var rep core.ReportJSON
	getJSON(t, srv.URL+"/tx/"+res.Receipt.TxHash.String(), http.StatusOK, &rep)
	if !rep.IsAttack || !rep.IsFlashLoanTx {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Matches) == 0 || rep.Matches[0].Pattern != "MBS" {
		t.Errorf("matches = %v", rep.Matches)
	}
	if len(rep.Loans) != 1 || rep.Loans[0].Provider != "Uniswap" {
		t.Errorf("loans = %v", rep.Loans)
	}
	if rep.ElapsedMicros < 0 {
		t.Errorf("elapsed = %d", rep.ElapsedMicros)
	}
}

func TestTxErrors(t *testing.T) {
	srv, _ := testServer(t)
	getJSON(t, srv.URL+"/tx/nothex", http.StatusBadRequest, nil)
	missing := "0x" + fmt.Sprintf("%064x", 12345)
	getJSON(t, srv.URL+"/tx/"+missing, http.StatusNotFound, nil)
}

func TestBlockScan(t *testing.T) {
	srv, res := testServer(t)
	type blockResp struct {
		Block   uint64            `json:"block"`
		Reports []core.ReportJSON `json:"reports"`
	}
	var out blockResp
	url := fmt.Sprintf("%s/block/%d", srv.URL, res.Receipt.Block)
	getJSON(t, url, http.StatusOK, &out)
	if len(out.Reports) != 1 || !out.Reports[0].IsAttack {
		t.Fatalf("block reports = %+v", out.Reports)
	}
	getJSON(t, srv.URL+"/block/0", http.StatusNotFound, nil)
	getJSON(t, srv.URL+"/block/999999", http.StatusNotFound, nil)
	getJSON(t, srv.URL+"/block/xyz", http.StatusBadRequest, nil)
}

func postJSON(t *testing.T, url string, body any, wantStatus int, into any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
}

func TestBatch(t *testing.T) {
	srv, res := testServer(t)
	hash := res.Receipt.TxHash.String()
	var out BatchResponse
	postJSON(t, srv.URL+"/batch", BatchRequest{Hashes: []string{hash, hash, hash}},
		http.StatusOK, &out)
	if len(out.Reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(out.Reports))
	}
	for i, rep := range out.Reports {
		if !rep.IsAttack || rep.TxHash != hash {
			t.Errorf("report %d = %+v", i, rep)
		}
	}
	if out.Summary.Inspected != 3 || out.Summary.Attacks != 3 || out.Summary.FlashLoans != 3 {
		t.Errorf("summary = %+v", out.Summary)
	}
	var st Stats
	getJSON(t, srv.URL+"/stats", http.StatusOK, &st)
	if st.Inspected != 3 || st.Attacks != 3 {
		t.Errorf("stats after batch = %+v", st)
	}
}

func TestBatchErrors(t *testing.T) {
	srv, _ := testServer(t)
	postJSON(t, srv.URL+"/batch", BatchRequest{Hashes: []string{"nothex"}},
		http.StatusBadRequest, nil)
	missing := "0x" + fmt.Sprintf("%064x", 12345)
	postJSON(t, srv.URL+"/batch", BatchRequest{Hashes: []string{missing}},
		http.StatusNotFound, nil)
	over := BatchRequest{Hashes: make([]string, MaxBatch+1)}
	postJSON(t, srv.URL+"/batch", over, http.StatusRequestEntityTooLarge, nil)
	resp, err := http.Post(srv.URL+"/batch", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated payload = %d, want 400", resp.StatusCode)
	}
}

func TestStatsAccumulate(t *testing.T) {
	srv, res := testServer(t)
	getJSON(t, srv.URL+"/tx/"+res.Receipt.TxHash.String(), http.StatusOK, nil)
	getJSON(t, srv.URL+"/tx/"+res.Receipt.TxHash.String(), http.StatusOK, nil)
	var st Stats
	getJSON(t, srv.URL+"/stats", http.StatusOK, &st)
	if st.Inspected != 2 || st.Attacks != 2 || st.FlashLoans != 2 {
		t.Errorf("stats = %+v", st)
	}
}
