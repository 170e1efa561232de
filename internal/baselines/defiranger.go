// Package baselines reimplements the detectors paper Table IV compares
// LeiShen against:
//
//   - DeFiRanger (Wu et al.): price manipulation detection on
//     account-level asset transfers — no application tagging, no
//     inter-app merging — so trades routed through intermediaries or
//     executed by victim platforms on the attacker's behalf are invisible
//     to it.
//   - Explorer+LeiShen: LeiShen's pattern matching over the normalized
//     trade actions explorers derive from event logs; venues that emit no
//     trade events are invisible to it.
//   - Volatility threshold (Xue et al.): flag any transaction moving a
//     pair's price beyond a fixed threshold; attacks with slight price
//     movements (Harvest's 0.5%) escape it.
package baselines

import (
	"leishen/internal/evm"
	"leishen/internal/flashloan"
	"leishen/internal/trace"
	"leishen/internal/trades"
	"leishen/internal/types"
	"leishen/internal/uint256"
)

// DeFiRanger detects price manipulation on account-level transfers.
type DeFiRanger struct {
	extractor *trace.Extractor
	interner  *trace.Interner
	weth      types.Address
	wethToken types.TokenID
}

// NewDeFiRanger builds the baseline over a token resolver.
func NewDeFiRanger(tokens trace.TokenResolver, weth types.Token) *DeFiRanger {
	in := trace.NewInterner(tokens)
	return &DeFiRanger{
		extractor: trace.NewExtractor(tokens),
		interner:  in,
		weth:      weth.Address,
		wethToken: in.IDOf(weth.Address),
	}
}

// Detect reports whether the transaction contains a profitable
// buy-then-sell round of one token by the flash loan borrower against a
// single counterparty account.
func (d *DeFiRanger) Detect(r *evm.Receipt) bool {
	loans := flashloan.Identify(r)
	if len(loans) == 0 {
		return false
	}

	// Account-level lifting: every account is its own party (one
	// identity tag id per address; NoTagID is never issued, so every
	// account can anchor a trade), WETH unified with ETH and wrap/unwrap
	// legs against the WETH contract dropped (DeFiRanger understands
	// WETH), but no application tagging and no merging.
	party := make(map[types.Address]types.TagID)
	idOf := func(a types.Address) types.TagID {
		id, ok := party[a]
		if !ok {
			id = types.TagID(len(party) + 1)
			party[a] = id
		}
		return id
	}
	transfers := d.extractor.ExtractInterned(nil, d.interner, r)
	lifted := transfers[:0]
	for _, t := range transfers {
		if t.Sender == d.weth || t.Receiver == d.weth {
			continue
		}
		if t.Token == d.wethToken {
			t.Token = types.ETHTokenID
		}
		t.SenderTag, t.ReceiverTag = idOf(t.Sender), idOf(t.Receiver)
		t.FromBlackHole, t.ToBlackHole = t.Sender.IsZero(), t.Receiver.IsZero()
		lifted = append(lifted, t)
	}
	tradeList := trades.IdentifyInterned(nil, lifted)

	for _, loan := range loans {
		if borrower, ok := party[loan.Borrower]; ok && profitableRound(tradeList, borrower) {
			return true
		}
	}
	return false
}

// profitableRound looks for buy trade b and later sell trade s of the
// same token, by the borrower, against the same counterparty account,
// with sell rate above buy rate.
func profitableRound(list []types.ITrade, borrower types.TagID) bool {
	for i, b := range list {
		if b.Buyer != borrower {
			continue
		}
		for _, s := range list[i+1:] {
			if s.Buyer != borrower || s.Seller != b.Seller || s.TokenSell != b.TokenBuy {
				continue
			}
			// buyRate = b.AmountSell/b.AmountBuy < sellRate = s.AmountBuy/s.AmountSell
			if uint256.CmpProducts(b.AmountSell, s.AmountSell, s.AmountBuy, b.AmountBuy) < 0 {
				return true
			}
		}
	}
	return false
}
