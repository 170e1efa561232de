package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"testing"
	"time"

	"leishen/internal/core"
	"leishen/internal/flashloan"
	"leishen/internal/simplify"
	"leishen/internal/world"
)

// encoderBody is what json.NewEncoder writes for v: the body /tx and
// /block sent before they moved onto the pooled response buffer.
func encoderBody(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestTxBlockBodiesMatchEncoder pins the pooled /tx and /block bodies
// byte for byte — key order and trailing newline included — to
// json.NewEncoder output for the same value, over corpus transactions
// of every verdict class and blocks with zero, one and several
// screened transactions. /block's reference is the map the route used
// to encode, so blockResponse must keep its keys in that order.
func TestTxBlockBodiesMatchEncoder(t *testing.T) {
	c, err := world.Generate(world.Config{Seed: 7, ScalePct: 1})
	if err != nil {
		t.Fatal(err)
	}
	tick := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	det := core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: c.Env.WETH},
		Clock:    func() time.Time { return tick },
	})
	h := New(c.Env.Chain, det).Handler()

	check := func(path, want string) {
		t.Helper()
		rec := get(t, h, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		if got := rec.Body.String(); got != want {
			t.Fatalf("GET %s body differs from json.NewEncoder:\n got: %q\nwant: %q", path, got, want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Fatalf("GET %s Content-Length = %q, want %d", path, cl, len(want))
		}
	}

	// A few transactions per class: attack, flash loan without attack,
	// and no flash loan (the corpus lists only flash loan receipts;
	// the chain also holds set-up transactions).
	blocks := c.Env.Chain.Blocks()
	var attacks, loans, plain int
	for _, r := range slices.Concat(blocks[0].Receipts, c.Receipts) {
		rep := det.Inspect(r)
		switch {
		case rep.IsAttack:
			if attacks++; attacks > 3 {
				continue
			}
		case len(rep.Loans) > 0:
			if loans++; loans > 3 {
				continue
			}
		default:
			if plain++; plain > 3 {
				continue
			}
		}
		check("/tx/"+r.TxHash.String(), encoderBody(t, rep.JSON()))
	}
	if attacks == 0 || loans == 0 || plain == 0 {
		t.Fatalf("corpus lacks a verdict class: attacks=%d loans=%d plain=%d", attacks, loans, plain)
	}

	// Blocks by number of screened transactions: 0, 1 and more.
	seen := map[int]int{}
	for _, blk := range blocks {
		reports := make([]core.ReportJSON, 0, 4)
		for _, r := range blk.Receipts {
			if r.Success && flashloan.IsFlashLoanTx(r) {
				reports = append(reports, det.Inspect(r).JSON())
			}
		}
		class := min(len(reports), 2)
		if seen[class]++; seen[class] > 2 {
			continue
		}
		check("/block/"+strconv.FormatUint(blk.Number, 10), encoderBody(t, map[string]any{
			"block":   blk.Number,
			"time":    blk.Time,
			"reports": reports,
		}))
	}
	for class := range 3 {
		if seen[class] == 0 {
			t.Errorf("no block with %d screened transactions (2 means two or more)", class)
		}
	}
}
