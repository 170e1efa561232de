// Package trades identifies the three key trade actions of paper
// Table III — swap, mint liquidity, remove liquidity — from windows of two
// or three consecutive application-level asset transfers.
//
// Scanning is greedy left-to-right, preferring the three-transfer forms
// (the paper's extension over DeFiRanger's conditions) before the
// two-transfer forms; transfers consumed by a trade are not reused.
package trades

import (
	"leishen/internal/types"
)

// IdentifyInterned appends the trades identified in the
// application-level transfers ts to dst and returns the grown slice
// (pass dst[:0] to recycle a buffer). Token id equality is token
// identity (the contract address).
func IdentifyInterned(dst []types.ITrade, ts []types.ITransfer) []types.ITrade {
	out := dst
	for i := 0; i < len(ts); {
		if t, n := match3i(ts, i); n > 0 {
			out = append(out, t)
			i += n
			continue
		}
		if t, n := match2i(ts, i); n > 0 {
			out = append(out, t)
			i += n
			continue
		}
		i++
	}
	return out
}

// partyOKID reports whether a transfer's endpoint can anchor a trade:
// untaggable accounts cannot (the paper's JulSwap / PancakeHunny misses
// stem exactly from this). All untaggable accounts share NoTagID.
func partyOKID(tag types.TagID) bool { return tag != types.NoTagID }

// match3i tries the three-transfer forms of Table III at position i,
// returning the trade and the number of transfers consumed.
func match3i(ts []types.ITransfer, i int) (types.ITrade, int) {
	if i+2 >= len(ts) {
		return types.ITrade{}, 0
	}
	t1, t2, t3 := &ts[i], &ts[i+1], &ts[i+2]
	distinct := t1.Token != t2.Token && t2.Token != t3.Token && t1.Token != t3.Token
	if !distinct {
		return types.ITrade{}, 0
	}

	// Swap, 3 transfers: A->B t1; B->A t2; B->A t3.
	if !t1.FromBlackHole && !t1.ToBlackHole && !t2.FromBlackHole && !t3.FromBlackHole &&
		partyOKID(t1.SenderTag) && partyOKID(t1.ReceiverTag) &&
		t1.SenderTag == t2.ReceiverTag && t1.SenderTag == t3.ReceiverTag &&
		t1.ReceiverTag == t2.SenderTag && t1.ReceiverTag == t3.SenderTag {
		return types.ITrade{
			Kind:          types.TradeSwap,
			Buyer:         t1.SenderTag,
			Seller:        t1.ReceiverTag,
			AmountSell:    t1.Amount,
			TokenSell:     t1.Token,
			AmountBuy:     t2.Amount,
			TokenBuy:      t2.Token,
			Secondary:     types.ILeg{Amount: t3.Amount, Token: t3.Token},
			SecondaryKind: types.SecondaryIsBuy,
			Seq:           t1.Seq,
		}, 3
	}

	// Mint, 3 transfers: A->B t1; A->B t2; BlackHole->A t3.
	if !t1.FromBlackHole && !t2.FromBlackHole && t3.FromBlackHole &&
		partyOKID(t1.SenderTag) && partyOKID(t1.ReceiverTag) &&
		t1.SenderTag == t2.SenderTag && t1.ReceiverTag == t2.ReceiverTag &&
		t3.ReceiverTag == t1.SenderTag {
		return types.ITrade{
			Kind:          types.TradeMint,
			Buyer:         t1.SenderTag,
			Seller:        t1.ReceiverTag,
			AmountSell:    t1.Amount,
			TokenSell:     t1.Token,
			AmountBuy:     t3.Amount,
			TokenBuy:      t3.Token,
			Secondary:     types.ILeg{Amount: t2.Amount, Token: t2.Token},
			SecondaryKind: types.SecondaryIsSell,
			Seq:           t1.Seq,
		}, 3
	}

	// Remove, 3 transfers: A->BlackHole t1; B->A t2; B->A t3.
	if t1.ToBlackHole && !t2.FromBlackHole && !t3.FromBlackHole &&
		partyOKID(t1.SenderTag) && partyOKID(t2.SenderTag) &&
		t2.ReceiverTag == t1.SenderTag && t3.ReceiverTag == t1.SenderTag &&
		t2.SenderTag == t3.SenderTag {
		return types.ITrade{
			Kind:          types.TradeRemove,
			Buyer:         t1.SenderTag,
			Seller:        t2.SenderTag,
			AmountSell:    t1.Amount,
			TokenSell:     t1.Token,
			AmountBuy:     t2.Amount,
			TokenBuy:      t2.Token,
			Secondary:     types.ILeg{Amount: t3.Amount, Token: t3.Token},
			SecondaryKind: types.SecondaryIsBuy,
			Seq:           t1.Seq,
		}, 3
	}
	return types.ITrade{}, 0
}

// match2i tries the two-transfer forms of Table III at position i.
func match2i(ts []types.ITransfer, i int) (types.ITrade, int) {
	if i+1 >= len(ts) {
		return types.ITrade{}, 0
	}
	t1, t2 := &ts[i], &ts[i+1]
	if t1.Token == t2.Token {
		return types.ITrade{}, 0
	}

	// Swap: A->B t1; B->A t2.
	if !t1.FromBlackHole && !t1.ToBlackHole && !t2.FromBlackHole && !t2.ToBlackHole &&
		partyOKID(t1.SenderTag) && partyOKID(t1.ReceiverTag) &&
		t1.SenderTag == t2.ReceiverTag && t1.ReceiverTag == t2.SenderTag {
		return types.ITrade{
			Kind:       types.TradeSwap,
			Buyer:      t1.SenderTag,
			Seller:     t1.ReceiverTag,
			AmountSell: t1.Amount,
			TokenSell:  t1.Token,
			AmountBuy:  t2.Amount,
			TokenBuy:   t2.Token,
			Seq:        t1.Seq,
		}, 2
	}

	// Mint: A->B t1; BlackHole->A t2 (order reversible).
	if !t1.FromBlackHole && !t1.ToBlackHole && t2.FromBlackHole &&
		partyOKID(t1.SenderTag) && partyOKID(t1.ReceiverTag) &&
		t2.ReceiverTag == t1.SenderTag {
		return types.ITrade{
			Kind:       types.TradeMint,
			Buyer:      t1.SenderTag,
			Seller:     t1.ReceiverTag,
			AmountSell: t1.Amount,
			TokenSell:  t1.Token,
			AmountBuy:  t2.Amount,
			TokenBuy:   t2.Token,
			Seq:        t1.Seq,
		}, 2
	}
	// Mint, reversed: BlackHole->A t1; A->B t2.
	if t1.FromBlackHole && !t2.FromBlackHole && !t2.ToBlackHole &&
		partyOKID(t2.SenderTag) && partyOKID(t2.ReceiverTag) &&
		t1.ReceiverTag == t2.SenderTag {
		return types.ITrade{
			Kind:       types.TradeMint,
			Buyer:      t2.SenderTag,
			Seller:     t2.ReceiverTag,
			AmountSell: t2.Amount,
			TokenSell:  t2.Token,
			AmountBuy:  t1.Amount,
			TokenBuy:   t1.Token,
			Seq:        t1.Seq,
		}, 2
	}

	// Remove: A->BlackHole t1; B->A t2 (order reversible).
	if t1.ToBlackHole && !t2.FromBlackHole && !t2.ToBlackHole &&
		partyOKID(t1.SenderTag) && partyOKID(t2.SenderTag) &&
		t2.ReceiverTag == t1.SenderTag {
		return types.ITrade{
			Kind:       types.TradeRemove,
			Buyer:      t1.SenderTag,
			Seller:     t2.SenderTag,
			AmountSell: t1.Amount,
			TokenSell:  t1.Token,
			AmountBuy:  t2.Amount,
			TokenBuy:   t2.Token,
			Seq:        t1.Seq,
		}, 2
	}
	// Remove, reversed: B->A t1; A->BlackHole t2.
	if t2.ToBlackHole && !t1.FromBlackHole && !t1.ToBlackHole &&
		partyOKID(t2.SenderTag) && partyOKID(t1.SenderTag) &&
		t1.ReceiverTag == t2.SenderTag {
		return types.ITrade{
			Kind:       types.TradeRemove,
			Buyer:      t2.SenderTag,
			Seller:     t1.SenderTag,
			AmountSell: t2.Amount,
			TokenSell:  t2.Token,
			AmountBuy:  t1.Amount,
			TokenBuy:   t1.Token,
			Seq:        t1.Seq,
		}, 2
	}
	return types.ITrade{}, 0
}
