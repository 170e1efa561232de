package serve

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
)

// TestConcurrentRequests hammers every endpoint from parallel clients.
// Run under -race this exercises the lock-free stats counters, the
// detector's arena pool and the chain's locks —
// the server must behave as one detector shared by many monitors.
func TestConcurrentRequests(t *testing.T) {
	srv, res := testServer(t)
	urls := []string{
		srv.URL + "/tx/" + res.Receipt.TxHash.String(),
		fmt.Sprintf("%s/block/%d", srv.URL, res.Receipt.Block),
		srv.URL + "/stats",
		srv.URL + "/healthz",
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for _, u := range urls {
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				resp, err := http.Get(u)
				if err != nil {
					t.Errorf("GET %s: %v", u, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}(u)
		}
	}
	wg.Wait()

	// 8 tx hits + 8 block scans of the same attack transaction.
	var st Stats
	getJSON(t, srv.URL+"/stats", http.StatusOK, &st)
	if st.Inspected != 16 || st.Attacks != 16 {
		t.Errorf("stats after concurrent load = %+v, want 16 inspected/attacks", st)
	}
}
