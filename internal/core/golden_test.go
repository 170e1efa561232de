package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"leishen/internal/attacks"
	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/simplify"
	"leishen/internal/types"
	"leishen/internal/world"
)

var update = flag.Bool("update", false, "rewrite golden files")

// pipelineGolden is the committed oracle for the detection pipeline: one
// line per inspected receipt, "<short tx hash> <digest>", where digest
// is the first 8 bytes of SHA-256 over the report's JSON bytes followed
// by its Detail text. The receipts are the seed-7, 1% corpus in order,
// then the Table I scenarios in attacks.All order.
const pipelineGolden = "testdata/pipeline.golden"

var (
	refCorpusOnce sync.Once
	refCorpus     *world.Corpus
	refCorpusErr  error
)

func referenceCorpus(tb testing.TB) *world.Corpus {
	tb.Helper()
	refCorpusOnce.Do(func() {
		refCorpus, refCorpusErr = world.Generate(world.Config{Seed: 7, ScalePct: 1})
	})
	if refCorpusErr != nil {
		tb.Fatalf("corpus: %v", refCorpusErr)
	}
	return refCorpus
}

// fmtDetail is the historical fmt-based Detail rendering, preserved
// verbatim as the reference for AppendDetail's bytes.
func fmtDetail(r *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "transaction %s (block %d)\n", r.TxHash, r.Block)
	fmt.Fprintf(&b, "flash loans: %d\n", len(r.Loans))
	for _, l := range r.Loans {
		fmt.Fprintf(&b, "  %s lends %s of token %s to %s\n", l.Provider, l.Amount, l.Token.Short(), l.Borrower.Short())
	}
	fmt.Fprintf(&b, "account-level transfers: %d\n", len(r.Transfers))
	fmt.Fprintf(&b, "app-level transfers: %d\n", len(r.AppTransfers))
	for _, at := range r.AppTransfers {
		fmt.Fprintf(&b, "  %s\n", at)
	}
	fmt.Fprintf(&b, "trades: %d\n", len(r.Trades))
	for _, t := range r.Trades {
		fmt.Fprintf(&b, "  %s\n", t)
	}
	fmt.Fprintf(&b, "matches: %d\n", len(r.Matches))
	for _, m := range r.Matches {
		fmt.Fprintf(&b, "  %s\n", m)
	}
	fmt.Fprintf(&b, "verdict: attack=%v\n", r.IsAttack)
	return b.String()
}

func mustJSON(tb testing.TB, rep *core.Report) string {
	tb.Helper()
	out, err := json.Marshal(rep)
	if err != nil {
		tb.Fatal(err)
	}
	return string(out)
}

// digestLine renders one golden line for a report.
func digestLine(tb testing.TB, rep *core.Report) string {
	tb.Helper()
	line, err := reportDigest(rep)
	if err != nil {
		tb.Fatal(err)
	}
	return line
}

// reportDigest is digestLine's body, returning the encoding error
// instead of failing the test so worker goroutines can call it.
func reportDigest(rep *core.Report) (string, error) {
	js, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(js)
	h.Write([]byte(rep.Detail()))
	return rep.TxHash.Short() + " " + hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// readGolden returns the committed golden lines.
func readGolden(tb testing.TB) []string {
	tb.Helper()
	raw, err := os.ReadFile(pipelineGolden)
	if err != nil {
		tb.Fatalf("%v (run TestPipelineGolden with -update to regenerate)", err)
	}
	return strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
}

// checkDetail pins Detail and the arena's DetailInto against the
// fmt-based reference rendering.
func checkDetail(tb testing.TB, arena *core.Arena, rep *core.Report) {
	tb.Helper()
	want := fmtDetail(rep)
	if got := rep.Detail(); got != want {
		tb.Fatalf("%s: Detail diverges from fmt reference\n got:\n%s\nwant:\n%s", rep.TxHash.Short(), got, want)
	}
	if got := string(arena.DetailInto(rep)); got != want {
		tb.Fatalf("%s: DetailInto diverges from fmt reference", rep.TxHash.Short())
	}
}

// TestPipelineGolden pins every report the pipeline produces — JSON wire
// bytes and Detail text — over a generated corpus and the 22 Table I
// attacks, with one reused arena per environment so slab reuse and
// buffer recycling are exercised the way a scanning worker would. Any
// change to a verdict, a trade, a match or the report rendering shows
// up as a reviewed golden diff. Regenerate with:
//
//	go test ./internal/core/ -run TestPipelineGolden -update
func TestPipelineGolden(t *testing.T) {
	tick := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return tick }
	var lines []string
	attacksSeen, flashLoans := 0, 0
	inspect := func(det *core.Detector, arena *core.Arena, r *evm.Receipt) {
		rep := det.InspectScratch(r, arena)
		checkDetail(t, arena, rep)
		lines = append(lines, digestLine(t, rep))
		if rep.IsAttack {
			attacksSeen++
		}
		if len(rep.Loans) > 0 {
			flashLoans++
		}
	}

	c := referenceCorpus(t)
	det := core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: c.Env.WETH},
		Clock:    clock,
	})
	arena := core.NewArena()
	for _, r := range c.Receipts {
		inspect(det, arena, r)
	}
	corpusAttacks := attacksSeen
	if corpusAttacks == 0 || flashLoans == 0 {
		t.Fatalf("vacuous corpus: attacks=%d flashLoans=%d", corpusAttacks, flashLoans)
	}

	scenarios := attacks.All()
	for _, sc := range scenarios {
		res, err := sc.Run()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		det := core.NewDetector(res.Env.Chain, res.Env.Registry, core.Options{
			Simplify: simplify.Options{WETH: res.Env.WETH},
			Clock:    clock,
		})
		inspect(det, core.NewArena(), res.Receipt)
	}
	if attacksSeen == corpusAttacks {
		t.Fatalf("vacuous scenarios: none of %d flagged", len(scenarios))
	}

	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(pipelineGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pipelineGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readGolden(t)
	if len(want) != len(lines) {
		t.Fatalf("%s has %d lines, pipeline produced %d (%d corpus receipts + %d scenarios)",
			pipelineGolden, len(want), len(lines), len(c.Receipts), len(scenarios))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("line %d: got %q, want %q", i+1, lines[i], want[i])
		}
	}
	if t.Failed() {
		t.Logf("%s diverged; run with -update and review the diff", pipelineGolden)
	}
}

// TestArenaReportsSurviveReuse checks the slab ownership guarantee:
// reports carved from an arena stay byte-stable while the same arena
// inspects the whole corpus again.
func TestArenaReportsSurviveReuse(t *testing.T) {
	c := referenceCorpus(t)
	tick := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	det := core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: c.Env.WETH},
		Clock:    func() time.Time { return tick },
	})

	arena := core.NewArena()
	reports := make([]*core.Report, len(c.Receipts))
	first := make([]string, len(c.Receipts))
	for i, r := range c.Receipts {
		reports[i] = det.InspectScratch(r, arena)
		first[i] = mustJSON(t, reports[i]) + reports[i].Detail()
	}
	// Second full pass through the same arena must not disturb the
	// reports returned by the first.
	for _, r := range c.Receipts {
		det.InspectScratch(r, arena)
	}
	for i, rep := range reports {
		if got := mustJSON(t, rep) + rep.Detail(); got != first[i] {
			t.Fatalf("report %d mutated by arena reuse:\n got: %s\nwant: %s", i, got, first[i])
		}
	}
}

// TestMatchAppendString pins Match.AppendString against the fmt form.
func TestMatchAppendString(t *testing.T) {
	m := core.Match{
		Kind:          core.PatternSBS,
		Target:        types.Token{Symbol: "USDC", Decimals: 6},
		Counterparty:  types.AppTag("SushiSwap"),
		Trades:        make([]types.Trade, 3),
		Rounds:        1,
		VolatilityPct: 31.41592,
	}
	want := m.String()
	if got := string(m.AppendString(nil)); got != want {
		t.Fatalf("AppendString = %q, want %q", got, want)
	}
}
