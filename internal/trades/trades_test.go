package trades

import (
	"testing"
	"testing/quick"

	"leishen/internal/types"
	"leishen/internal/uint256"
)

var (
	tagA = types.AppTag("Attacker")
	tagB = types.AppTag("Uniswap")
	ethT = types.ETH
	btcT = types.Token{Address: types.Address{0xBB}, Symbol: "WBTC", Decimals: 8}
	lpT  = types.Token{Address: types.Address{0x77}, Symbol: "LP", Decimals: 18}
	sndT = types.Token{Address: types.Address{0x55}, Symbol: "SND", Decimals: 18}
)

func at(seq uint64, from, to types.Tag, amount uint64, tok types.Token) types.AppTransfer {
	return types.AppTransfer{Seq: seq, Sender: from, Receiver: to, Amount: uint256.FromUint64(amount), Token: tok}
}

func mint(seq uint64, to types.Tag, amount uint64, tok types.Token) types.AppTransfer {
	return types.AppTransfer{Seq: seq, Receiver: to, FromBlackHole: true, Amount: uint256.FromUint64(amount), Token: tok}
}

func burn(seq uint64, from types.Tag, amount uint64, tok types.Token) types.AppTransfer {
	return types.AppTransfer{Seq: seq, Sender: from, ToBlackHole: true, Amount: uint256.FromUint64(amount), Token: tok}
}

// identify interns application-level transfers into a throwaway id
// space, runs IdentifyInterned, and resolves the trades back.
func identify(in []types.AppTransfer) []types.Trade {
	var ids types.IDSpace
	its := make([]types.ITransfer, 0, len(in))
	for _, t := range in {
		its = append(its, types.ITransfer{
			Seq:       t.Seq,
			SenderTag: ids.TagID(t.Sender), ReceiverTag: ids.TagID(t.Receiver),
			FromBlackHole: t.FromBlackHole, ToBlackHole: t.ToBlackHole,
			Amount: t.Amount, Token: ids.TokenID(t.Token),
		})
	}
	var out []types.Trade
	for _, it := range IdentifyInterned(nil, its) {
		tr := types.Trade{
			Kind:  it.Kind,
			Buyer: ids.Tag(it.Buyer), Seller: ids.Tag(it.Seller),
			AmountSell: it.AmountSell, TokenSell: ids.Token(it.TokenSell),
			AmountBuy: it.AmountBuy, TokenBuy: ids.Token(it.TokenBuy),
			Seq: it.Seq,
		}
		leg := &types.TradeLeg{Amount: it.Secondary.Amount, Token: ids.Token(it.Secondary.Token)}
		switch it.SecondaryKind {
		case types.SecondaryIsBuy:
			tr.SecondaryBuy = leg
		case types.SecondaryIsSell:
			tr.SecondarySell = leg
		}
		out = append(out, tr)
	}
	return out
}

func TestSwapTwoTransfers(t *testing.T) {
	in := []types.AppTransfer{
		at(0, tagA, tagB, 100, ethT),
		at(1, tagB, tagA, 2, btcT),
	}
	got := identify(in)
	if len(got) != 1 {
		t.Fatalf("trades = %v", got)
	}
	tr := got[0]
	if tr.Kind != types.TradeSwap || tr.Buyer != tagA || tr.Seller != tagB {
		t.Errorf("trade = %+v", tr)
	}
	if tr.AmountSell.Uint64() != 100 || tr.AmountBuy.Uint64() != 2 {
		t.Errorf("amounts = %s / %s", tr.AmountSell, tr.AmountBuy)
	}
	if tr.TokenSell.Symbol != "ETH" || tr.TokenBuy.Symbol != "WBTC" {
		t.Errorf("tokens = %s / %s", tr.TokenSell.Symbol, tr.TokenBuy.Symbol)
	}
}

func TestSwapThreeTransfers(t *testing.T) {
	in := []types.AppTransfer{
		at(0, tagA, tagB, 100, ethT),
		at(1, tagB, tagA, 2, btcT),
		at(2, tagB, tagA, 7, sndT),
	}
	got := identify(in)
	if len(got) != 1 {
		t.Fatalf("trades = %v", got)
	}
	tr := got[0]
	if tr.Kind != types.TradeSwap || tr.SecondaryBuy == nil {
		t.Fatalf("trade = %+v", tr)
	}
	if tr.SecondaryBuy.Amount.Uint64() != 7 || tr.SecondaryBuy.Token.Symbol != "SND" {
		t.Errorf("secondary = %+v", tr.SecondaryBuy)
	}
}

func TestMintTwoAndReversed(t *testing.T) {
	in := []types.AppTransfer{
		at(0, tagA, tagB, 100, ethT),
		mint(1, tagA, 50, lpT),
	}
	got := identify(in)
	if len(got) != 1 || got[0].Kind != types.TradeMint {
		t.Fatalf("trades = %v", got)
	}
	if got[0].TokenBuy.Symbol != "LP" || got[0].AmountBuy.Uint64() != 50 {
		t.Errorf("mint = %+v", got[0])
	}
	// Reversed order condition from Table III.
	in = []types.AppTransfer{
		mint(0, tagA, 50, lpT),
		at(1, tagA, tagB, 100, ethT),
	}
	got = identify(in)
	if len(got) != 1 || got[0].Kind != types.TradeMint {
		t.Fatalf("reversed mint = %v", got)
	}
}

func TestMintThreeTransfers(t *testing.T) {
	in := []types.AppTransfer{
		at(0, tagA, tagB, 100, ethT),
		at(1, tagA, tagB, 2, btcT),
		mint(2, tagA, 50, lpT),
	}
	got := identify(in)
	if len(got) != 1 {
		t.Fatalf("trades = %v", got)
	}
	tr := got[0]
	if tr.Kind != types.TradeMint || tr.SecondarySell == nil {
		t.Fatalf("trade = %+v", tr)
	}
	if tr.SecondarySell.Token.Symbol != "WBTC" {
		t.Errorf("secondary sell = %+v", tr.SecondarySell)
	}
	if tr.TokenBuy.Symbol != "LP" {
		t.Errorf("buy = %s", tr.TokenBuy.Symbol)
	}
}

func TestRemoveTwoAndReversed(t *testing.T) {
	in := []types.AppTransfer{
		burn(0, tagA, 50, lpT),
		at(1, tagB, tagA, 100, ethT),
	}
	got := identify(in)
	if len(got) != 1 || got[0].Kind != types.TradeRemove {
		t.Fatalf("trades = %v", got)
	}
	if got[0].Seller != tagB || got[0].TokenSell.Symbol != "LP" {
		t.Errorf("remove = %+v", got[0])
	}
	// Reversed.
	in = []types.AppTransfer{
		at(0, tagB, tagA, 100, ethT),
		burn(1, tagA, 50, lpT),
	}
	got = identify(in)
	if len(got) != 1 || got[0].Kind != types.TradeRemove {
		t.Fatalf("reversed remove = %v", got)
	}
}

func TestRemoveThreeTransfers(t *testing.T) {
	in := []types.AppTransfer{
		burn(0, tagA, 50, lpT),
		at(1, tagB, tagA, 100, ethT),
		at(2, tagB, tagA, 2, btcT),
	}
	got := identify(in)
	if len(got) != 1 {
		t.Fatalf("trades = %v", got)
	}
	tr := got[0]
	if tr.Kind != types.TradeRemove || tr.SecondaryBuy == nil {
		t.Fatalf("trade = %+v", tr)
	}
	if tr.SecondaryBuy.Token.Symbol != "WBTC" {
		t.Errorf("secondary = %+v", tr.SecondaryBuy)
	}
}

func TestGreedyConsumption(t *testing.T) {
	// Two back-to-back swaps: each consumes its own transfers.
	in := []types.AppTransfer{
		at(0, tagA, tagB, 100, ethT),
		at(1, tagB, tagA, 2, btcT),
		at(2, tagA, tagB, 200, ethT),
		at(3, tagB, tagA, 3, btcT),
	}
	got := identify(in)
	if len(got) != 2 {
		t.Fatalf("trades = %v", got)
	}
	if got[0].AmountSell.Uint64() != 100 || got[1].AmountSell.Uint64() != 200 {
		t.Errorf("order wrong: %v", got)
	}
}

func TestSameTokenNoTrade(t *testing.T) {
	in := []types.AppTransfer{
		at(0, tagA, tagB, 100, ethT),
		at(1, tagB, tagA, 90, ethT), // same token both ways: no swap
	}
	if got := identify(in); len(got) != 0 {
		t.Errorf("trades = %v", got)
	}
}

func TestUntaggablepartiesBlockTrades(t *testing.T) {
	// The JulSwap / PancakeHunny failure mode: untaggable endpoints.
	in := []types.AppTransfer{
		at(0, types.NoTag(), tagB, 100, ethT),
		at(1, tagB, types.NoTag(), 2, btcT),
	}
	if got := identify(in); len(got) != 0 {
		t.Errorf("trades with untaggable parties = %v", got)
	}
}

func TestUnmatchedTransfersSkipped(t *testing.T) {
	tagC := types.AppTag("Other")
	in := []types.AppTransfer{
		at(0, tagA, tagB, 100, ethT), // no reply: plain payment
		at(1, tagC, tagA, 5, btcT),   // unrelated
		at(2, tagA, tagB, 100, ethT), // swap starts here
		at(3, tagB, tagA, 2, btcT),
	}
	got := identify(in)
	if len(got) != 1 || got[0].Seq != 2 {
		t.Errorf("trades = %v", got)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if got := identify(nil); len(got) != 0 {
		t.Errorf("nil input: %v", got)
	}
	if got := identify([]types.AppTransfer{at(0, tagA, tagB, 1, ethT)}); len(got) != 0 {
		t.Errorf("single transfer: %v", got)
	}
}

// TestQuickIdentifyProperties fuzzes random transfer lists: identification
// never panics, never produces more trades than transfers/2, and every
// trade's seq comes from an input transfer.
func TestQuickIdentifyProperties(t *testing.T) {
	tags := []types.Tag{tagA, tagB, types.AppTag("C"), types.NoTag()}
	toks := []types.Token{ethT, btcT, lpT, sndT}
	f := func(raw []uint16) bool {
		var in []types.AppTransfer
		for i, r := range raw {
			if i >= 30 {
				break
			}
			at := types.AppTransfer{
				Seq:      uint64(i),
				Sender:   tags[int(r)%len(tags)],
				Receiver: tags[int(r>>2)%len(tags)],
				Amount:   uint256.FromUint64(uint64(r)%500 + 1),
				Token:    toks[int(r>>4)%len(toks)],
			}
			switch r % 11 {
			case 0:
				at.FromBlackHole = true
			case 1:
				at.ToBlackHole = true
			}
			in = append(in, at)
		}
		out := identify(in)
		if len(out) > len(in)/2 {
			return false
		}
		seqs := map[uint64]bool{}
		for _, tr := range in {
			seqs[tr.Seq] = true
		}
		for _, tr := range out {
			if !seqs[tr.Seq] {
				return false
			}
			if tr.AmountSell.IsZero() && tr.AmountBuy.IsZero() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
