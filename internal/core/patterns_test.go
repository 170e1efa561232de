package core

import (
	"testing"

	"leishen/internal/types"
	"leishen/internal/uint256"
)

var (
	borrower = types.RootTag(types.Address{0xA7})
	victim   = types.AppTag("Uniswap")
	victim2  = types.AppTag("bZx")
	ethT     = types.ETH
	susdT    = types.Token{Address: types.Address{0x5D}, Symbol: "sUSD", Decimals: 18}
)

// buy makes a swap where the borrower pays `sell` ETH for `get` sUSD.
func buy(seller types.Tag, sell, get uint64) types.Trade {
	return types.Trade{
		Kind: types.TradeSwap, Buyer: borrower, Seller: seller,
		AmountSell: uint256.FromUint64(sell), TokenSell: ethT,
		AmountBuy: uint256.FromUint64(get), TokenBuy: susdT,
	}
}

// sell makes a swap where the borrower sells `sell` sUSD for `get` ETH.
func sell(seller types.Tag, sellAmt, get uint64) types.Trade {
	return types.Trade{
		Kind: types.TradeSwap, Buyer: borrower, Seller: seller,
		AmountSell: uint256.FromUint64(sellAmt), TokenSell: susdT,
		AmountBuy: uint256.FromUint64(get), TokenBuy: ethT,
	}
}

func kinds(ms []Match) map[PatternKind]bool {
	out := make(map[PatternKind]bool)
	for _, m := range ms {
		out[m.Kind] = true
	}
	return out
}

func TestKRPDetected(t *testing.T) {
	// bZx-2 shape: repeated 20 ETH buys at rising prices, then one sell.
	trades := []types.Trade{
		buy(victim, 20, 5200), // 0.00385 ETH each
		buy(victim, 20, 4600),
		buy(victim, 20, 4000),
		buy(victim, 20, 3400),
		buy(victim, 20, 2800),
		buy(victim, 20, 2300), // price keeps rising (less sUSD per ETH)
		sell(victim2, 20000, 124),
	}
	ms := MatchPatterns(trades, borrower, DefaultThresholds())
	if !kinds(ms)[PatternKRP] {
		t.Fatalf("KRP not detected: %v", ms)
	}
	var m Match
	for _, c := range ms {
		if c.Kind == PatternKRP {
			m = c
		}
	}
	if m.Rounds < 5 || m.Target.Symbol != "sUSD" || m.Counterparty != victim {
		t.Errorf("match = %+v", m)
	}
	if m.VolatilityPct <= 0 {
		t.Errorf("volatility = %f", m.VolatilityPct)
	}
}

func TestKRPRequiresFiveBuys(t *testing.T) {
	trades := []types.Trade{
		buy(victim, 20, 5200),
		buy(victim, 20, 4600),
		buy(victim, 20, 4000),
		buy(victim, 20, 3400),
		sell(victim2, 17200, 90),
	}
	ms := MatchPatterns(trades, borrower, DefaultThresholds())
	if kinds(ms)[PatternKRP] {
		t.Errorf("KRP detected with only 4 buys: %v", ms)
	}
	// Lowering the threshold to 3 (the paper's §VII relaxation) detects it.
	th := DefaultThresholds()
	th.KRPMinBuys = 3
	ms = MatchPatterns(trades, borrower, th)
	if !kinds(ms)[PatternKRP] {
		t.Errorf("relaxed KRP missed: %v", ms)
	}
}

func TestKRPRequiresSameSeller(t *testing.T) {
	other := types.AppTag("Sushi")
	trades := []types.Trade{
		buy(victim, 20, 5200),
		buy(victim, 20, 4600),
		buy(other, 20, 4000), // breaks the run
		buy(victim, 20, 3400),
		buy(victim, 20, 2800),
		buy(victim, 20, 2300),
		sell(victim2, 20300, 124),
	}
	ms := MatchPatterns(trades, borrower, DefaultThresholds())
	if kinds(ms)[PatternKRP] {
		t.Errorf("KRP detected across different sellers: %v", ms)
	}
}

func TestKRPRequiresRisingPrice(t *testing.T) {
	trades := []types.Trade{
		buy(victim, 20, 5200),
		buy(victim, 20, 5200), // flat, not rising
		buy(victim, 20, 5200),
		buy(victim, 20, 5200),
		buy(victim, 20, 5200),
		buy(victim, 20, 5200),
		sell(victim2, 31200, 120),
	}
	ms := MatchPatterns(trades, borrower, DefaultThresholds())
	if kinds(ms)[PatternKRP] {
		t.Errorf("KRP detected with flat prices: %v", ms)
	}
}

// TestKRPRunSurvivesEarlySell pins a documented condition of KRP: a
// sell that arrives before the run reaches KRPMinBuys does not end the
// run, so later rising buys extend it and a later sell completes it.
func TestKRPRunSurvivesEarlySell(t *testing.T) {
	trades := []types.Trade{
		buy(victim, 20, 5200),
		buy(victim, 20, 4600),
		buy(victim, 20, 4000),
		sell(victim, 100, 1), // too early: the run has 3 buys
		buy(victim, 20, 3400),
		buy(victim, 20, 2800),
		sell(victim2, 20000, 124),
	}
	for _, m := range MatchPatterns(trades, borrower, DefaultThresholds()) {
		if m.Kind != PatternKRP {
			continue
		}
		if m.Rounds != 5 || len(m.Trades) != 6 || m.Trades[5] != trades[6] {
			t.Fatalf("match = %+v, want the 5 buys and the last sell", m)
		}
		return
	}
	t.Fatal("KRP not detected across an early sell")
}

func TestSBSDetected(t *testing.T) {
	// bZx-1 shape: borrower buys 112 WBTC for 5500 ETH, victim pumps
	// (buys at a much higher rate), borrower sells the same 112 WBTC.
	wbtc := types.Token{Address: types.Address{0xBB}, Symbol: "WBTC", Decimals: 8}
	t1 := types.Trade{Kind: types.TradeSwap, Buyer: borrower, Seller: victim2,
		AmountSell: uint256.FromUint64(5500), TokenSell: ethT,
		AmountBuy: uint256.FromUint64(112), TokenBuy: wbtc}
	t2 := types.Trade{Kind: types.TradeSwap, Buyer: victim2, Seller: victim,
		AmountSell: uint256.FromUint64(5637), TokenSell: ethT,
		AmountBuy: uint256.FromUint64(51), TokenBuy: wbtc} // 110.5 ETH/WBTC
	t3 := types.Trade{Kind: types.TradeSwap, Buyer: borrower, Seller: victim,
		AmountSell: uint256.FromUint64(112), TokenSell: wbtc,
		AmountBuy: uint256.FromUint64(6871), TokenBuy: ethT} // 61.3 ETH/WBTC
	ms := MatchPatterns([]types.Trade{t1, t2, t3}, borrower, DefaultThresholds())
	if !kinds(ms)[PatternSBS] {
		t.Fatalf("SBS not detected: %v", ms)
	}
}

func TestSBSRejectsAsymmetricAmounts(t *testing.T) {
	wbtc := types.Token{Address: types.Address{0xBB}, Symbol: "WBTC", Decimals: 8}
	t1 := types.Trade{Kind: types.TradeSwap, Buyer: borrower, Seller: victim2,
		AmountSell: uint256.FromUint64(5500), TokenSell: ethT,
		AmountBuy: uint256.FromUint64(112), TokenBuy: wbtc}
	t2 := types.Trade{Kind: types.TradeSwap, Buyer: victim2, Seller: victim,
		AmountSell: uint256.FromUint64(5637), TokenSell: ethT,
		AmountBuy: uint256.FromUint64(51), TokenBuy: wbtc}
	// Sells far less than bought: not symmetric.
	t3 := types.Trade{Kind: types.TradeSwap, Buyer: borrower, Seller: victim,
		AmountSell: uint256.FromUint64(50), TokenSell: wbtc,
		AmountBuy: uint256.FromUint64(3067), TokenBuy: ethT}
	ms := MatchPatterns([]types.Trade{t1, t2, t3}, borrower, DefaultThresholds())
	if kinds(ms)[PatternSBS] {
		t.Errorf("SBS detected without symmetric amounts: %v", ms)
	}
}

func TestSBSVolatilityThreshold(t *testing.T) {
	wbtc := types.Token{Address: types.Address{0xBB}, Symbol: "WBTC", Decimals: 8}
	mk := func(pumpSell uint64) []types.Trade {
		return []types.Trade{
			{Kind: types.TradeSwap, Buyer: borrower, Seller: victim2,
				AmountSell: uint256.FromUint64(49100), TokenSell: ethT,
				AmountBuy: uint256.FromUint64(1000), TokenBuy: wbtc}, // 49.1
			{Kind: types.TradeSwap, Buyer: victim2, Seller: victim,
				AmountSell: uint256.FromUint64(pumpSell), TokenSell: ethT,
				AmountBuy: uint256.FromUint64(1000), TokenBuy: wbtc},
			{Kind: types.TradeSwap, Buyer: borrower, Seller: victim,
				AmountSell: uint256.FromUint64(1000), TokenSell: wbtc,
				AmountBuy: uint256.FromUint64(55000), TokenBuy: ethT}, // 55.0
		}
	}
	// Pump to 49.1 * 1.28 = 62.85: at threshold.
	ms := MatchPatterns(mk(62848), borrower, DefaultThresholds())
	if !kinds(ms)[PatternSBS] {
		t.Errorf("SBS at 28%% volatility not detected")
	}
	// Pump of only 10%: below threshold. (Sell rate must stay between.)
	ms = MatchPatterns(mk(56000), borrower, DefaultThresholds())
	if kinds(ms)[PatternSBS] {
		t.Errorf("SBS below volatility threshold detected")
	}
}

func TestMBSDetected(t *testing.T) {
	// Harvest shape: three profitable buy/sell rounds against one seller.
	trades := []types.Trade{
		buy(victim, 49977468, 51456280),
		sell(victim, 51456280, 50298684),
		buy(victim, 49977468, 51456280),
		sell(victim, 51456280, 50298684),
		buy(victim, 49977468, 51456280),
		sell(victim, 51456280, 50298684),
	}
	ms := MatchPatterns(trades, borrower, DefaultThresholds())
	if !kinds(ms)[PatternMBS] {
		t.Fatalf("MBS not detected: %v", ms)
	}
	for _, m := range ms {
		if m.Kind == PatternMBS {
			if m.Rounds != 3 || m.Counterparty != victim {
				t.Errorf("match = %+v", m)
			}
			// Harvest's famous tiny volatility: < 5%.
			if m.VolatilityPct <= 0 || m.VolatilityPct > 5 {
				t.Errorf("volatility = %f%%, want small", m.VolatilityPct)
			}
		}
	}
}

func TestMBSRequiresThreeProfitableRounds(t *testing.T) {
	trades := []types.Trade{
		buy(victim, 1000, 1030),
		sell(victim, 1030, 1010),
		buy(victim, 1000, 1030),
		sell(victim, 1030, 1010),
	}
	ms := MatchPatterns(trades, borrower, DefaultThresholds())
	if kinds(ms)[PatternMBS] {
		t.Errorf("MBS with 2 rounds detected: %v", ms)
	}
	// Unprofitable rounds never count, no matter how many.
	lossy := []types.Trade{
		buy(victim, 1000, 1000), sell(victim, 1000, 990),
		buy(victim, 1000, 1000), sell(victim, 1000, 990),
		buy(victim, 1000, 1000), sell(victim, 1000, 990),
		buy(victim, 1000, 1000), sell(victim, 1000, 990),
	}
	ms = MatchPatterns(lossy, borrower, DefaultThresholds())
	if kinds(ms)[PatternMBS] {
		t.Errorf("MBS with lossy rounds detected: %v", ms)
	}
}

// TestMBSFirstSellerWins pins a documented condition of MBS: the winner
// is the first seller, in order of first buy, whose rounds reach the
// threshold, even when a later seller has more rounds.
func TestMBSFirstSellerWins(t *testing.T) {
	trades := []types.Trade{
		buy(victim, 10, 100),
		buy(victim2, 10, 100), sell(victim2, 100, 11),
		sell(victim, 100, 11),
		buy(victim2, 10, 100), sell(victim2, 100, 11),
		buy(victim, 10, 100), sell(victim, 100, 11),
		buy(victim2, 10, 100), sell(victim2, 100, 11),
		buy(victim, 10, 100), sell(victim, 100, 11),
		buy(victim2, 10, 100), sell(victim2, 100, 11),
	}
	for _, m := range MatchPatterns(trades, borrower, DefaultThresholds()) {
		if m.Kind != PatternMBS {
			continue
		}
		if m.Counterparty != victim || m.Rounds != 3 || len(m.Trades) != 6 {
			t.Fatalf("match = %+v, want victim's 3 rounds", m)
		}
		return
	}
	t.Fatal("MBS not detected")
}

func TestMBSRequiresSameSeller(t *testing.T) {
	other := types.AppTag("Sushi")
	trades := []types.Trade{
		buy(victim, 1000, 1030), sell(other, 1030, 1010),
		buy(victim, 1000, 1030), sell(other, 1030, 1010),
		buy(victim, 1000, 1030), sell(other, 1030, 1010),
	}
	ms := MatchPatterns(trades, borrower, DefaultThresholds())
	if kinds(ms)[PatternMBS] {
		t.Errorf("MBS across different sellers detected: %v", ms)
	}
}

func TestNoTagBorrowerMatchesNothing(t *testing.T) {
	trades := []types.Trade{
		buy(victim, 1000, 1030), sell(victim, 1030, 1010),
	}
	if ms := MatchPatterns(trades, types.NoTag(), DefaultThresholds()); len(ms) != 0 {
		t.Errorf("matches for untaggable borrower: %v", ms)
	}
}

func TestBenignTradesNoMatch(t *testing.T) {
	// A simple arbitrage: buy once, sell once, profit — none of the
	// patterns (no pump, one round, no batch).
	trades := []types.Trade{
		buy(victim, 1000, 1030),
		sell(victim2, 1030, 1020),
	}
	if ms := MatchPatterns(trades, borrower, DefaultThresholds()); len(ms) != 0 {
		t.Errorf("benign arb matched: %v", ms)
	}
}

func TestVolatilityFormula(t *testing.T) {
	// Two trades at rates 0.0038 and 0.009 ETH/sUSD: volatility ~136%.
	trades := []types.Trade{
		buy(victim, 38, 10000),
		buy(victim, 90, 10000),
	}
	var ids types.IDSpace
	var itrades []types.ITrade
	for _, tr := range trades {
		itrades = append(itrades, types.ITrade{
			Kind: tr.Kind, Buyer: ids.TagID(tr.Buyer), Seller: ids.TagID(tr.Seller),
			AmountSell: tr.AmountSell, TokenSell: ids.TokenID(tr.TokenSell),
			AmountBuy: tr.AmountBuy, TokenBuy: ids.TokenID(tr.TokenBuy),
		})
	}
	got := tradeVolatilityPctI(itrades, ids.TokenID(susdT))
	if got < 130 || got > 142 {
		t.Errorf("volatility = %f, want ~136", got)
	}
	if v := tradeVolatilityPctI(nil, ids.TokenID(susdT)); v != 0 {
		t.Errorf("empty volatility = %f", v)
	}
}

func TestPatternKindString(t *testing.T) {
	if PatternKRP.String() != "KRP" || PatternSBS.String() != "SBS" || PatternMBS.String() != "MBS" {
		t.Error("pattern names wrong")
	}
	if PatternKind(99).String() == "" {
		t.Error("unknown kind renders empty")
	}
}
