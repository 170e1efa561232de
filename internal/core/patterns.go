// Package core implements LeiShen's primary contribution: the three
// flpAttack patterns of paper §IV-B (Keep Raising Price, Symmetrical
// Buying and Selling, Multi-Round Buying and Selling) and the detection
// pipeline of §V that matches them against a flash loan transaction's
// application-level trade list.
package core

import (
	"fmt"

	"leishen/internal/types"
	"leishen/internal/uint256"
)

// PatternKind enumerates the attack patterns.
type PatternKind int

// Patterns.
const (
	// PatternKRP is Keep Raising Price: >= N buys of the target token from
	// one seller at monotonically increasing prices, then a sell.
	PatternKRP PatternKind = iota + 1
	// PatternSBS is Symmetrical Buying and Selling: buy, pump, sell the
	// same amount at a higher price (pump volatility >= 28%).
	PatternSBS
	// PatternMBS is Multi-Round Buying and Selling: >= N profitable
	// buy/sell rounds against the same seller.
	PatternMBS
)

// String names the pattern with the paper's abbreviation.
func (k PatternKind) String() string {
	switch k {
	case PatternKRP:
		return "KRP"
	case PatternSBS:
		return "SBS"
	case PatternMBS:
		return "MBS"
	default:
		return fmt.Sprintf("PatternKind(%d)", int(k))
	}
}

// Thresholds holds the pattern parameters, defaulting to the paper's
// calibrated values (the minima observed across the 22 real attacks).
type Thresholds struct {
	// KRPMinBuys is the minimum run of rising buys (paper: 5).
	KRPMinBuys int
	// SBSMinVolatilityBps is the minimum price rise between the two buy
	// trades in basis points (paper: 28% = 2800).
	SBSMinVolatilityBps uint64
	// SBSAmountToleranceBps relaxes the trade1.amountBuy ==
	// trade3.amountSell equality to a small tolerance.
	SBSAmountToleranceBps uint64
	// MBSMinRounds is the minimum number of profitable rounds (paper: 3).
	MBSMinRounds int
}

// DefaultThresholds returns the paper's parameters.
func DefaultThresholds() Thresholds {
	return Thresholds{
		KRPMinBuys:            5,
		SBSMinVolatilityBps:   2800,
		SBSAmountToleranceBps: 10,
		MBSMinRounds:          3,
	}
}

// Match is one detected attack pattern instance.
type Match struct {
	// Kind is the pattern.
	Kind PatternKind
	// Target is the manipulated token.
	Target types.Token
	// Counterparty is the victim application (seller of the buy trades).
	Counterparty types.Tag
	// Trades are the involved trades in order.
	Trades []types.Trade
	// Rounds counts buy/sell rounds (MBS) or buy legs (KRP).
	Rounds int
	// VolatilityPct is the observed price volatility across the involved
	// trades, in percent ((max-min)/min * 100).
	VolatilityPct float64
}

// String renders the match for reports.
func (m Match) String() string {
	return fmt.Sprintf("%s on %s vs %s (%d trades, volatility %.2f%%)",
		m.Kind, m.Target.Symbol, m.Counterparty, len(m.Trades), m.VolatilityPct)
}

// MatchPatterns runs the three matchers over a trade list for one flash
// loan borrower tag. It is the entry point for trade lists built outside
// the detector (the Explorer baseline, tests): the trades are interned
// into a throwaway id space and matched exactly as InspectScratch
// matches its own, and every match carries the caller's trade values.
func MatchPatterns(trades []types.Trade, borrower types.Tag, th Thresholds) []Match {
	if borrower.IsNone() {
		return nil
	}
	var ids types.IDSpace
	itrades := make([]types.ITrade, len(trades))
	for i := range trades {
		t := &trades[i]
		itrades[i] = types.ITrade{
			Kind:       t.Kind,
			Buyer:      ids.TagID(t.Buyer),
			Seller:     ids.TagID(t.Seller),
			AmountSell: t.AmountSell,
			TokenSell:  ids.TokenID(t.TokenSell),
			AmountBuy:  t.AmountBuy,
			TokenBuy:   ids.TokenID(t.TokenBuy),
			// The matchers never read Seq; here it carries the input
			// index so involved trades resolve to the caller's values.
			Seq: uint64(i),
		}
	}
	var a Arena
	matchPatternsInterned(&a, itrades, ids.TagID(borrower), th)
	var out []Match
	for _, m := range a.imatches {
		var involved []types.Trade
		for _, it := range a.involvedBuf[m.lo:m.hi] {
			involved = append(involved, trades[it.Seq])
		}
		out = append(out, Match{
			Kind:          m.kind,
			Target:        ids.Token(m.target),
			Counterparty:  ids.Tag(m.counterparty),
			Trades:        involved,
			Rounds:        m.rounds,
			VolatilityPct: m.volatility,
		})
	}
	return out
}

// Matching runs on interned trades: tag and token identities are
// integer ids (id equality is value equality, since the intern tables
// issue one id per distinct value), and every working buffer lives in
// the Arena, so a reused arena matches a transaction without
// allocating.

// iMatch is a matched pattern before resolution: ids plus a region
// [lo:hi) of the arena's involvedBuf holding the involved trades.
type iMatch struct {
	kind         PatternKind
	target       types.TokenID
	counterparty types.TagID
	lo, hi       int
	rounds       int
	volatility   float64
}

// mbsState is matchMBSi's per-seller round counter, kept in a linear
// arena slice in first-buy order: transactions involve a handful of
// sellers, so a linear search beats a per-call map.
type mbsState struct {
	seller  types.TagID
	pending int // index of the pending buy trade, -1 when none
	rounds  int
}

// isBuyOfI reports whether the borrower acquires the target token.
func isBuyOfI(t *types.ITrade, borrower types.TagID, target types.TokenID) bool {
	return t.Buyer == borrower && t.TokenBuy == target
}

// isSellOfI reports whether the borrower disposes of the target token.
func isSellOfI(t *types.ITrade, borrower types.TagID, target types.TokenID) bool {
	return t.Buyer == borrower && t.TokenSell == target
}

// rateLessI reports rate(a) < rate(b) where rate = AmountSell/AmountBuy,
// compared exactly by cross multiplication.
func rateLessI(a, b *types.ITrade) bool {
	// aS/aB < bS/bB  <=>  aS*bB < bS*aB
	return uint256.CmpProducts(a.AmountSell, b.AmountBuy, b.AmountSell, a.AmountBuy) < 0
}

// buyCheaperThanSellOfI reports that the buy trade's price is below the
// sell trade's realized price: buy.AmountSell/buy.AmountBuy <
// sell.AmountBuy/sell.AmountSell.
func buyCheaperThanSellOfI(buy, sell *types.ITrade) bool {
	return uint256.CmpProducts(buy.AmountSell, sell.AmountSell, sell.AmountBuy, buy.AmountBuy) < 0
}

// volatilityAtLeastI reports (rate(hi) - rate(lo)) / rate(lo) >=
// bps/10000, i.e. rate(hi) * 10000 >= rate(lo) * (10000 + bps), exactly.
func volatilityAtLeastI(lo, hi *types.ITrade, bps uint64) bool {
	// hiS/hiB >= loS/loB * (1 + bps/1e4)
	// <=> hiS * loB * 1e4 >= loS * hiB * (1e4 + bps)
	left, err := hi.AmountSell.Mul(uint256.FromUint64(10_000))
	if err != nil {
		// Astronomic amounts: fall back to float comparison.
		return hi.Rate() >= lo.Rate()*(1+float64(bps)/10_000)
	}
	right, err := lo.AmountSell.Mul(uint256.FromUint64(10_000 + bps))
	if err != nil {
		return hi.Rate() >= lo.Rate()*(1+float64(bps)/10_000)
	}
	return uint256.CmpProducts(left, lo.AmountBuy, right, hi.AmountBuy) >= 0
}

// tradeVolatilityPctI computes the paper's price volatility formula
// ((rate_max - rate_min)/rate_min * 100%) over the target token's price
// in each involved trade: the rate paid per unit of target on buys, the
// rate received per unit on sells.
func tradeVolatilityPctI(trades []types.ITrade, target types.TokenID) float64 {
	minR, maxR := 0.0, 0.0
	first := true
	for i := range trades {
		t := &trades[i]
		var r float64
		switch {
		case t.TokenBuy == target:
			r = t.Rate()
		case t.TokenSell == target:
			r = t.InverseRate()
		default:
			continue
		}
		if r == 0 {
			continue
		}
		if first {
			minR, maxR = r, r
			first = false
			continue
		}
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	if first || minR == 0 {
		return 0
	}
	return (maxR - minR) / minR * 100
}

// matchPatternsInterned runs all three matchers for one borrower,
// appending matches to a.imatches (involved trades go to
// a.involvedBuf). Candidate targets are the tokens the borrower bought,
// deduped in first-occurrence order; each target yields at most one
// match per pattern.
func matchPatternsInterned(a *Arena, trades []types.ITrade, borrower types.TagID, th Thresholds) {
	if borrower.IsNone() {
		return
	}
	a.targets = a.targets[:0]
	for i := range trades {
		if trades[i].Buyer != borrower {
			continue
		}
		tok := trades[i].TokenBuy
		if !containsTokenID(a.targets, tok) {
			a.targets = append(a.targets, tok)
		}
	}
	for _, target := range a.targets {
		if m, ok := matchKRPi(a, trades, borrower, target, th); ok {
			a.imatches = append(a.imatches, m)
		}
		if m, ok := matchSBSi(a, trades, borrower, target, th); ok {
			a.imatches = append(a.imatches, m)
		}
		if m, ok := matchMBSi(a, trades, borrower, target, th); ok {
			a.imatches = append(a.imatches, m)
		}
	}
}

func containsTokenID(ids []types.TokenID, id types.TokenID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func containsTagID(ids []types.TagID, id types.TagID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// matchKRPi finds a run of >= KRPMinBuys borrower buys of target from
// the same seller at strictly rising prices, followed by a sell of the
// target; the run is kept as trade indices in the arena. A buy from
// another seller or at a non-rising price restarts the run from that
// buy. A sell that arrives before the run reaches KRPMinBuys does not
// end it: the run keeps growing and a later sell can still complete the
// match.
func matchKRPi(a *Arena, trades []types.ITrade, borrower types.TagID, target types.TokenID, th Thresholds) (iMatch, bool) {
	a.run = a.run[:0]
	var seller types.TagID
	for i := range trades {
		t := &trades[i]
		switch {
		case isBuyOfI(t, borrower, target):
			if len(a.run) == 0 {
				a.run = append(a.run, i)
				seller = t.Seller
				continue
			}
			if t.Seller == seller && rateLessI(&trades[a.run[len(a.run)-1]], t) {
				a.run = append(a.run, i)
				continue
			}
			// Run broken: restart from this buy.
			a.run = append(a.run[:0], i)
			seller = t.Seller
		case isSellOfI(t, borrower, target):
			if len(a.run) >= th.KRPMinBuys {
				lo := len(a.involvedBuf)
				for _, j := range a.run {
					a.involvedBuf = append(a.involvedBuf, trades[j])
				}
				a.involvedBuf = append(a.involvedBuf, *t)
				hi := len(a.involvedBuf)
				return iMatch{
					kind:         PatternKRP,
					target:       target,
					counterparty: seller,
					lo:           lo,
					hi:           hi,
					rounds:       len(a.run),
					volatility:   tradeVolatilityPctI(a.involvedBuf[lo:hi], target),
				}, true
			}
		}
	}
	return iMatch{}, false
}

// matchSBSi finds buy trade1, pump trade2 (a buy of target by anyone
// other than trade1's mirror), and sell trade3, in that order, with
// trade1.amountBuy == trade3.amountSell (within SBSAmountToleranceBps),
// the rate sandwich rate(trade1) < sellRate(trade3) < rate(trade2), and
// a pump of at least SBSMinVolatilityBps between trade1 and trade2. The
// first such triple in (i, j, k) order wins.
func matchSBSi(a *Arena, trades []types.ITrade, borrower types.TagID, target types.TokenID, th Thresholds) (iMatch, bool) {
	for i := range trades {
		t1 := &trades[i]
		if !isBuyOfI(t1, borrower, target) {
			continue
		}
		for j := i + 1; j < len(trades); j++ {
			t2 := &trades[j]
			// The pump buy may be executed by anyone: in bZx-1 it is
			// the victim platform itself, financed by the attacker's
			// margin.
			if t2.TokenBuy != target {
				continue
			}
			if t2.Buyer == t1.Seller && t2.Seller == t1.Buyer {
				continue // the mirror of t1, not a pump
			}
			if !volatilityAtLeastI(t1, t2, th.SBSMinVolatilityBps) {
				continue
			}
			for k := j + 1; k < len(trades); k++ {
				t3 := &trades[k]
				if !isSellOfI(t3, borrower, target) {
					continue
				}
				// a) symmetric amounts.
				if !uint256.WithinBps(t1.AmountBuy, t3.AmountSell, th.SBSAmountToleranceBps) {
					continue
				}
				// b) rate(t1) < sellRate(t3) < rate(t2).
				if !buyCheaperThanSellOfI(t1, t3) {
					continue
				}
				// sellRate(t3) < rate(t2): t3.amountBuy/t3.amountSell < t2.amountSell/t2.amountBuy
				if uint256.CmpProducts(t3.AmountBuy, t2.AmountBuy, t2.AmountSell, t3.AmountSell) >= 0 {
					continue
				}
				lo := len(a.involvedBuf)
				a.involvedBuf = append(a.involvedBuf, *t1, *t2, *t3)
				hi := len(a.involvedBuf)
				return iMatch{
					kind:         PatternSBS,
					target:       target,
					counterparty: t1.Seller,
					lo:           lo,
					hi:           hi,
					rounds:       1,
					volatility:   tradeVolatilityPctI(a.involvedBuf[lo:hi], target),
				}, true
			}
		}
	}
	return iMatch{}, false
}

// matchMBSi counts profitable buy/sell rounds of target against each
// seller. A round is the seller's latest pending borrower buy closed by
// a borrower sell back to the same seller; it counts when the sell
// price beats the buy price, and a later buy replaces an unclosed one.
// The winner is the first seller, in order of first buy, whose rounds
// reach MBSMinRounds, even when a later seller has more. Two passes
// keep it allocation-free: the first counts rounds per seller, the
// second replays only the winner to collect its involved trades.
func matchMBSi(a *Arena, trades []types.ITrade, borrower types.TagID, target types.TokenID, th Thresholds) (iMatch, bool) {
	a.mbs = a.mbs[:0]
	find := func(seller types.TagID) *mbsState {
		for i := range a.mbs {
			if a.mbs[i].seller == seller {
				return &a.mbs[i]
			}
		}
		return nil
	}
	for i := range trades {
		t := &trades[i]
		switch {
		case isBuyOfI(t, borrower, target):
			s := find(t.Seller)
			if s == nil {
				a.mbs = append(a.mbs, mbsState{seller: t.Seller, pending: -1})
				s = &a.mbs[len(a.mbs)-1]
			}
			s.pending = i
		case isSellOfI(t, borrower, target):
			s := find(t.Seller)
			if s == nil || s.pending < 0 {
				continue
			}
			// Condition b: the round is profitable.
			if buyCheaperThanSellOfI(&trades[s.pending], t) {
				s.rounds++
			}
			s.pending = -1
		}
	}
	for si := range a.mbs {
		if a.mbs[si].rounds < th.MBSMinRounds {
			continue
		}
		winner := a.mbs[si].seller
		rounds := a.mbs[si].rounds
		lo := len(a.involvedBuf)
		pending := -1
		for i := range trades {
			t := &trades[i]
			switch {
			case isBuyOfI(t, borrower, target) && t.Seller == winner:
				pending = i
			case isSellOfI(t, borrower, target) && t.Seller == winner:
				if pending < 0 {
					continue
				}
				if buyCheaperThanSellOfI(&trades[pending], t) {
					a.involvedBuf = append(a.involvedBuf, trades[pending], *t)
				}
				pending = -1
			}
		}
		hi := len(a.involvedBuf)
		return iMatch{
			kind:         PatternMBS,
			target:       target,
			counterparty: winner,
			lo:           lo,
			hi:           hi,
			rounds:       rounds,
			volatility:   tradeVolatilityPctI(a.involvedBuf[lo:hi], target),
		}, true
	}
	return iMatch{}, false
}
