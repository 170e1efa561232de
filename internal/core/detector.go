package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"leishen/internal/evm"
	"leishen/internal/flashloan"
	"leishen/internal/simplify"
	"leishen/internal/tagging"
	"leishen/internal/trace"
	"leishen/internal/trades"
	"leishen/internal/types"
)

// Options configures a Detector.
type Options struct {
	// Thresholds are the pattern parameters (zero value → paper defaults).
	Thresholds Thresholds
	// Simplify configures the §V-B2 rules (WETH token, tolerances).
	Simplify simplify.Options
	// YieldAggregatorHeuristic, when true, suppresses MBS matches for
	// transactions whose flash loan borrower belongs to a known yield
	// aggregator application — the §VI-C heuristic that lifts MBS
	// precision from 56.1% to 80%.
	YieldAggregatorHeuristic bool
	// YieldAggregatorApps is the set of application names treated as
	// yield aggregators by the heuristic.
	YieldAggregatorApps map[string]bool
	// ExcludedLabelAccounts lists accounts whose Etherscan labels are
	// ignored during tagging (attacker labels applied post-hoc).
	ExcludedLabelAccounts []types.Address
	// Clock supplies the wall-clock reads for the report's Elapsed
	// latency measurement. Detection itself is a pure function of the
	// receipt; the clock only times it. Nil means the real clock.
	Clock func() time.Time
}

func (o Options) thresholds() Thresholds {
	if o.Thresholds == (Thresholds{}) {
		return DefaultThresholds()
	}
	return o.Thresholds
}

// Report is the detector's verdict for one transaction.
type Report struct {
	// TxHash identifies the transaction.
	TxHash types.Hash
	// Time is the block timestamp (for monthly/weekly aggregation).
	Time time.Time
	// Block is the containing block number.
	Block uint64
	// Loans are the identified flash loans; empty means "not a flash loan
	// transaction" and no further analysis ran.
	Loans []flashloan.Loan
	// BorrowerTags are the distinct application tags of the loan
	// borrowers.
	BorrowerTags []types.Tag
	// Transfers is the account-level transfer history.
	Transfers []types.Transfer
	// AppTransfers is the simplified application-level history.
	AppTransfers []types.AppTransfer
	// Trades is the identified trade list.
	Trades []types.Trade
	// Matches are the detected attack pattern instances.
	Matches []Match
	// IsAttack reports the final verdict after heuristics.
	IsAttack bool
	// SuppressedByHeuristic marks transactions whose matches were
	// discarded by the yield-aggregator heuristic.
	SuppressedByHeuristic bool
	// Error is set when detection could not complete for this
	// transaction (a recovered panic in a scan worker); all verdict
	// fields are zero and the report carries only the receipt identity.
	Error string
	// Elapsed is the wall time the detection took (the paper reports a
	// 10 ms mean / 16 ms p75).
	Elapsed time.Duration
}

// ErrorReport builds the degraded verdict for a receipt whose
// inspection failed: identity fields from the receipt, Error set, every
// verdict field zero. It is deterministic — the same receipt and
// message produce the same bytes regardless of where the failure
// surfaced — so parallel and sequential scans stay byte-identical even
// through worker panics.
// Even a nil receipt — the degenerate poisoned input — yields a
// verdict rather than a second panic inside the recovery path.
func ErrorReport(r *evm.Receipt, msg string) *Report {
	rep := &Report{Error: msg}
	if r != nil {
		rep.TxHash, rep.Time, rep.Block = r.TxHash, r.Time, r.Block
	}
	return rep
}

// HasPattern reports whether the report contains a match of the kind.
func (r *Report) HasPattern(k PatternKind) bool {
	for _, m := range r.Matches {
		if m.Kind == k {
			return true
		}
	}
	return false
}

// Summary renders a one-line verdict.
func (r *Report) Summary() string {
	if r.Error != "" {
		return fmt.Sprintf("%s: detection failed: %s", r.TxHash.Short(), r.Error)
	}
	if len(r.Loans) == 0 {
		return fmt.Sprintf("%s: not a flash loan transaction", r.TxHash.Short())
	}
	if !r.IsAttack {
		suffix := ""
		if r.SuppressedByHeuristic {
			suffix = " (suppressed: yield aggregator)"
		}
		return fmt.Sprintf("%s: flash loan, no attack pattern%s", r.TxHash.Short(), suffix)
	}
	var kinds []string
	for _, m := range r.Matches {
		kinds = append(kinds, m.String())
	}
	return fmt.Sprintf("%s: flpAttack [%s]", r.TxHash.Short(), strings.Join(kinds, "; "))
}

// Detail renders the full multi-section report the paper's pipeline
// returns ("a detailed report regarding attack patterns"). It is the
// one-shot convenience form of AppendDetail; steady-state callers use
// Arena.DetailInto to reuse one rendering buffer across transactions.
func (r *Report) Detail() string {
	return string(r.AppendDetail(nil))
}

// Detector is the LeiShen pipeline: flash loan identification → transfer
// extraction → tagging → simplification → trade identification → pattern
// matching.
type Detector struct {
	extractor *trace.Extractor
	tagger    *tagging.Tagger
	interner  *trace.Interner
	irules    simplify.InternedRules
	opts      Options
	clock     func() time.Time

	// arenas recycles the Arenas behind plain Inspect, so single-tx
	// callers run on warmed buffers and shared slab blocks as a scan
	// worker does.
	arenas sync.Pool
}

// NewDetector builds a detector over a chain snapshot. The tagger is
// precomputed here so per-transaction detection is a pure function of the
// receipt (the honest way to measure the paper's 10 ms budget); the
// simplification rules are resolved to interned ids at the same time, so
// the per-transfer rule checks compare integers instead of strings.
func NewDetector(view tagging.ChainView, tokens trace.TokenResolver, opts Options) *Detector {
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	tagger := tagging.New(view, opts.ExcludedLabelAccounts...)
	interner := trace.NewInterner(tokens)
	return &Detector{
		extractor: trace.NewExtractor(tokens),
		tagger:    tagger,
		interner:  interner,
		irules:    simplify.ResolveRules(opts.Simplify, tagger.IDOfTag, interner.IDOf),
		opts:      opts,
		clock:     clock,
	}
}

// Tagger exposes the precomputed tagger (baselines reuse it).
func (d *Detector) Tagger() *tagging.Tagger { return d.tagger }

// Inspect runs the full pipeline on one receipt. It is safe for
// concurrent use: each call borrows an Arena from the detector's pool
// and returns it when the pipeline completes. A call that panics
// drops its arena instead, since the pipeline may have left it
// inconsistent. The report stays valid after later calls reuse the
// arena, for the reason InspectScratch gives.
func (d *Detector) Inspect(r *evm.Receipt) *Report {
	a, _ := d.arenas.Get().(*Arena)
	if a == nil {
		a = NewArena()
	}
	rep := d.InspectScratch(r, a)
	d.arenas.Put(a)
	return rep
}

// InspectScratch is Inspect with a caller-owned Arena backing the
// pipeline's intermediates and the report's data, so a scanning loop
// that reuses one Arena per goroutine inspects transactions with near
// zero allocations. A nil arena allocates a fresh one for this call
// alone. The returned report owns all of its data — slab regions are
// carved once and never rewritten — and is valid after any number of
// further calls with the same arena.
//
// The pipeline runs on interned tuples throughout (tag and token
// identities as integer ids) and resolves ids back to the full Tag and
// Token values only at report materialization. TestPipelineGolden pins
// the resulting reports, JSON and Detail text, over a generated corpus
// and the Table I attacks.
func (d *Detector) InspectScratch(r *evm.Receipt, s *Arena) *Report {
	if s == nil {
		s = NewArena()
	}
	start := d.clock()
	rep := s.reportSlab.saveOne(Report{TxHash: r.TxHash, Time: r.Time, Block: r.Block})
	defer func() { rep.Elapsed = d.clock().Sub(start) }()

	// Step 0: flash loan identification (Table II). The identifier
	// early-exits without allocating for the non-flash-loan majority.
	loans := flashloan.IdentifyScratch(r, &s.fl)
	if len(loans) == 0 {
		return rep
	}
	rep.Loans = s.loanSlab.save(loans)

	// Step 1: transfer history extraction (§V-A), interned.
	s.it = d.extractor.ExtractInterned(s.it[:0], d.interner, r)
	s.tmpTransfers = s.tmpTransfers[:0]
	for i := range s.it {
		t := &s.it[i]
		s.tmpTransfers = append(s.tmpTransfers, types.Transfer{
			Seq:      t.Seq,
			Sender:   t.Sender,
			Receiver: t.Receiver,
			Amount:   t.Amount,
			Token:    d.interner.Token(t.Token),
		})
	}
	rep.Transfers = s.transferSlab.save(s.tmpTransfers)

	// Step 2: application-level construction (§V-B): tag ids in place,
	// then simplify over the interned tuples.
	d.tagger.TagTransferIDs(s.it)
	app := simplify.SimplifyInterned(s.it, d.irules, &s.isimp)
	s.tmpApp = s.tmpApp[:0]
	for i := range app {
		t := &app[i]
		s.tmpApp = append(s.tmpApp, types.AppTransfer{
			Seq:           t.Seq,
			Sender:        d.tagger.ResolveTag(t.SenderTag),
			Receiver:      d.tagger.ResolveTag(t.ReceiverTag),
			FromBlackHole: t.FromBlackHole,
			ToBlackHole:   t.ToBlackHole,
			Amount:        t.Amount,
			Token:         d.interner.Token(t.Token),
		})
	}
	rep.AppTransfers = s.appSlab.save(s.tmpApp)

	// Step 3a: trade identification (Table III), interned.
	s.itrades = trades.IdentifyInterned(s.itrades[:0], app)
	s.tmpTrades = s.tmpTrades[:0]
	for i := range s.itrades {
		s.tmpTrades = append(s.tmpTrades, d.materializeTrade(s, &s.itrades[i]))
	}
	rep.Trades = s.tradeSlab.save(s.tmpTrades)

	// Step 3b: pattern matching per distinct borrower tag. Transactions
	// carry a handful of loans at most, so a linear scan over the
	// collected tag ids dedups without a per-call map.
	s.btags = s.btags[:0]
	s.imatches = s.imatches[:0]
	s.involvedBuf = s.involvedBuf[:0]
	th := d.opts.thresholds()
	for i := range loans {
		tid := d.tagger.TagIDOf(loans[i].Borrower)
		if containsTagID(s.btags, tid) {
			continue
		}
		s.btags = append(s.btags, tid)
		matchPatternsInterned(s, s.itrades, tid, th)
	}
	s.tmpTags = s.tmpTags[:0]
	for _, id := range s.btags {
		s.tmpTags = append(s.tmpTags, d.tagger.ResolveTag(id))
	}
	rep.BorrowerTags = s.tagSlab.save(s.tmpTags)

	s.tmpMatches = s.tmpMatches[:0]
	for i := range s.imatches {
		m := &s.imatches[i]
		involved := s.involvedBuf[m.lo:m.hi]
		s.tmpTrades = s.tmpTrades[:0] // rep.Trades is already slab-saved
		for j := range involved {
			s.tmpTrades = append(s.tmpTrades, d.materializeTrade(s, &involved[j]))
		}
		s.tmpMatches = append(s.tmpMatches, Match{
			Kind:          m.kind,
			Target:        d.interner.Token(m.target),
			Counterparty:  d.tagger.ResolveTag(m.counterparty),
			Trades:        s.tradeSlab.save(s.tmpTrades),
			Rounds:        m.rounds,
			VolatilityPct: m.volatility,
		})
	}
	rep.Matches = s.matchSlab.save(s.tmpMatches)

	rep.IsAttack = len(rep.Matches) > 0
	if rep.IsAttack && d.opts.YieldAggregatorHeuristic && d.borrowersAreAggregators(rep.BorrowerTags) {
		rep.IsAttack = false
		rep.SuppressedByHeuristic = true
	}
	return rep
}

// materializeTrade resolves an interned trade back to the full Trade
// tuple; secondary legs are carved from the arena's leg slab.
func (d *Detector) materializeTrade(s *Arena, t *types.ITrade) types.Trade {
	out := types.Trade{
		Kind:       t.Kind,
		Buyer:      d.tagger.ResolveTag(t.Buyer),
		Seller:     d.tagger.ResolveTag(t.Seller),
		AmountSell: t.AmountSell,
		TokenSell:  d.interner.Token(t.TokenSell),
		AmountBuy:  t.AmountBuy,
		TokenBuy:   d.interner.Token(t.TokenBuy),
		Seq:        t.Seq,
	}
	switch t.SecondaryKind {
	case types.SecondaryIsBuy:
		out.SecondaryBuy = s.legSlab.saveOne(types.TradeLeg{Amount: t.Secondary.Amount, Token: d.interner.Token(t.Secondary.Token)})
	case types.SecondaryIsSell:
		out.SecondarySell = s.legSlab.saveOne(types.TradeLeg{Amount: t.Secondary.Amount, Token: d.interner.Token(t.Secondary.Token)})
	}
	return out
}

func (d *Detector) borrowersAreAggregators(tags []types.Tag) bool {
	if len(tags) == 0 {
		return false
	}
	for _, t := range tags {
		if !t.IsApp() || !d.opts.YieldAggregatorApps[t.Name] {
			return false
		}
	}
	return true
}
