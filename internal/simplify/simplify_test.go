package simplify

import (
	"testing"
	"testing/quick"

	"leishen/internal/types"
	"leishen/internal/uint256"
)

var (
	wethTok = types.Token{Address: types.Address{0xEE}, Symbol: "WETH", Decimals: 18}
	wbtcTok = types.Token{Address: types.Address{0xBB}, Symbol: "WBTC", Decimals: 8}
)

// tagged is a tagged transfer tagT_i spelled out with string tags and
// tokens, the form the fixtures below are written in.
type tagged struct {
	Seq                    uint64
	Sender, Receiver       types.Address
	SenderTag, ReceiverTag types.Tag
	Amount                 uint256.Int
	Token                  types.Token
}

func tt(seq uint64, sender, receiver types.Address, sTag, rTag types.Tag, amount uint64, tok types.Token) tagged {
	return tagged{
		Seq: seq, Sender: sender, Receiver: receiver,
		SenderTag: sTag, ReceiverTag: rTag,
		Amount: uint256.FromUint64(amount), Token: tok,
	}
}

// simplifyTagged interns the fixtures into a throwaway id space, runs
// SimplifyInterned under the rules opts resolves to, and resolves the
// result back to application-level transfers.
func simplifyTagged(in []tagged, opts Options) []types.AppTransfer {
	var ids types.IDSpace
	its := make([]types.ITransfer, 0, len(in))
	for _, t := range in {
		its = append(its, types.ITransfer{
			Seq: t.Seq, Sender: t.Sender, Receiver: t.Receiver,
			SenderTag: ids.TagID(t.SenderTag), ReceiverTag: ids.TagID(t.ReceiverTag),
			Amount: t.Amount, Token: ids.TokenID(t.Token),
		})
	}
	rules := ResolveRules(opts,
		func(tag types.Tag) (types.TagID, bool) { return ids.TagID(tag), true },
		func(a types.Address) types.TokenID { return ids.TokenID(types.Token{Address: a}) })
	var s IScratch
	var out []types.AppTransfer
	for _, t := range SimplifyInterned(its, rules, &s) {
		out = append(out, types.AppTransfer{
			Seq: t.Seq, Sender: ids.Tag(t.SenderTag), Receiver: ids.Tag(t.ReceiverTag),
			FromBlackHole: t.FromBlackHole, ToBlackHole: t.ToBlackHole,
			Amount: t.Amount, Token: ids.Token(t.Token),
		})
	}
	return out
}

var (
	addrA = types.Address{1}
	addrB = types.Address{2}
	addrC = types.Address{3}
	tagA  = types.AppTag("Alpha")
	tagB  = types.AppTag("Beta")
	tagC  = types.AppTag("Gamma")
)

func TestIntraAppRemoved(t *testing.T) {
	in := []tagged{
		tt(0, addrA, addrB, tagA, tagA, 100, wbtcTok), // intra-app: removed
		tt(1, addrA, addrB, tagA, tagB, 100, wbtcTok), // kept
	}
	out := simplifyTagged(in, Options{})
	if len(out) != 1 || out[0].Seq != 1 {
		t.Errorf("out = %v", out)
	}
	// Rule disabled keeps both.
	out = simplifyTagged(in, Options{DisableIntraAppRule: true, DisableMergeRule: true})
	if len(out) != 2 {
		t.Errorf("disabled rule: out = %v", out)
	}
}

func TestIntraAppKeepsMintsAndUnknowns(t *testing.T) {
	in := []tagged{
		// Mint: BlackHole sender; tags both RootTag(zero): must survive.
		tt(0, types.ZeroAddress, addrA, types.RootTag(types.ZeroAddress), types.RootTag(types.ZeroAddress), 5, wbtcTok),
		// Untaggable pair: kept (no evidence they are the same app).
		tt(1, addrA, addrB, types.NoTag(), types.NoTag(), 5, wbtcTok),
	}
	out := simplifyTagged(in, Options{})
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	if !out[0].FromBlackHole {
		t.Error("mint flag lost")
	}
}

func TestWETHRule(t *testing.T) {
	wethTag := types.AppTag(WETHAppName)
	in := []tagged{
		tt(0, addrA, addrB, tagA, wethTag, 100, types.ETH), // wrap leg: removed
		tt(1, addrB, addrA, wethTag, tagA, 100, wethTok),   // mint leg: removed
		tt(2, addrA, addrC, tagA, tagB, 100, wethTok),      // WETH payment: kept, unified to ETH
		tt(3, addrC, addrA, tagB, tagA, 50, wbtcTok),       // untouched
	}
	out := simplifyTagged(in, Options{WETH: wethTok, DisableMergeRule: true})
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	if !out[0].Token.IsETH() {
		t.Errorf("WETH not unified: %v", out[0].Token)
	}
	if out[1].Token.Address != wbtcTok.Address {
		t.Errorf("unexpected second transfer: %v", out[1])
	}
	// Disabled: all four survive, WETH stays WETH.
	out = simplifyTagged(in, Options{WETH: wethTok, DisableWETHRule: true, DisableMergeRule: true})
	if len(out) != 4 || out[2].Token.Address != wethTok.Address {
		t.Errorf("disabled rule: %v", out)
	}
}

func TestMergeInterApp(t *testing.T) {
	// A -> B (intermediary) -> C with a 0.05% fee: merge into A -> C.
	in := []tagged{
		tt(0, addrA, addrB, tagA, tagB, 100000, wbtcTok),
		tt(1, addrB, addrC, tagB, tagC, 99950, wbtcTok),
	}
	out := simplifyTagged(in, Options{})
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	m := out[0]
	if m.Sender != tagA || m.Receiver != tagC {
		t.Errorf("merged parties = %s -> %s", m.Sender, m.Receiver)
	}
	// The received amount is what arrived at the true counterparty.
	if m.Amount.Uint64() != 99950 {
		t.Errorf("merged amount = %s", m.Amount)
	}
}

func TestMergeToleranceBoundary(t *testing.T) {
	mk := func(second uint64) []tagged {
		return []tagged{
			tt(0, addrA, addrB, tagA, tagB, 100000, wbtcTok),
			tt(1, addrB, addrC, tagB, tagC, second, wbtcTok),
		}
	}
	// Exactly 0.1% difference merges.
	if out := simplifyTagged(mk(99900), Options{}); len(out) != 1 {
		t.Errorf("0.1%% diff did not merge: %v", out)
	}
	// Beyond 0.1% does not.
	if out := simplifyTagged(mk(99899), Options{}); len(out) != 2 {
		t.Errorf("0.11%% diff merged: %v", out)
	}
	// Custom tolerance.
	if out := simplifyTagged(mk(99000), Options{MergeToleranceBps: 100}); len(out) != 1 {
		t.Errorf("1%% tolerance did not merge: %v", out)
	}
}

func TestMergeMultiLevelIntermediaries(t *testing.T) {
	// Money laundering through two intermediaries: A -> B -> C -> D.
	tagD := types.AppTag("Delta")
	in := []tagged{
		tt(0, addrA, addrB, tagA, tagB, 1000, wbtcTok),
		tt(1, addrB, addrC, tagB, tagC, 1000, wbtcTok),
		tt(2, addrC, addrA, tagC, tagD, 1000, wbtcTok),
	}
	out := simplifyTagged(in, Options{})
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	if out[0].Sender != tagA || out[0].Receiver != tagD {
		t.Errorf("fixpoint merge = %s -> %s", out[0].Sender, out[0].Receiver)
	}
}

func TestMergeRejectsRoundTripAndMismatches(t *testing.T) {
	cases := map[string][]tagged{
		"different token": {
			tt(0, addrA, addrB, tagA, tagB, 1000, wbtcTok),
			tt(1, addrB, addrC, tagB, tagC, 1000, wethTok),
		},
		"different amounts": {
			tt(0, addrA, addrB, tagA, tagB, 1000, wbtcTok),
			tt(1, addrB, addrC, tagB, tagC, 500, wbtcTok),
		},
		"no shared intermediary": {
			tt(0, addrA, addrB, tagA, tagB, 1000, wbtcTok),
			tt(1, addrC, addrA, tagC, tagA, 1000, wbtcTok),
		},
		"round trip A->B->A": {
			tt(0, addrA, addrB, tagA, tagB, 1000, wbtcTok),
			tt(1, addrB, addrA, tagB, tagA, 1000, wbtcTok),
		},
	}
	for name, in := range cases {
		if out := simplifyTagged(in, Options{}); len(out) != 2 {
			t.Errorf("%s: merged unexpectedly: %v", name, out)
		}
	}
}

func TestMergeDisabled(t *testing.T) {
	in := []tagged{
		tt(0, addrA, addrB, tagA, tagB, 1000, wbtcTok),
		tt(1, addrB, addrC, tagB, tagC, 1000, wbtcTok),
	}
	if out := simplifyTagged(in, Options{DisableMergeRule: true}); len(out) != 2 {
		t.Errorf("merge ran while disabled: %v", out)
	}
}

func TestWithinTolerance(t *testing.T) {
	if !uint256.WithinBps(uint256.FromUint64(0), uint256.FromUint64(0), 10) {
		t.Error("0 vs 0 should be within tolerance")
	}
	if uint256.WithinBps(uint256.FromUint64(0), uint256.FromUint64(1), 10) {
		t.Error("0 vs 1 within 0.1%")
	}
	// No overflow near Max.
	if !uint256.WithinBps(uint256.Max(), uint256.Max(), 10) {
		t.Error("Max vs Max")
	}
}

// Property: simplification never increases transfer count and preserves
// happened-before ordering.
func TestQuickSimplifyOrderAndSize(t *testing.T) {
	tags := []types.Tag{tagA, tagB, tagC, types.NoTag()}
	toks := []types.Token{wbtcTok, wethTok}
	f := func(raw []uint16) bool {
		var in []tagged
		for i, r := range raw {
			if i >= 24 {
				break
			}
			in = append(in, tt(uint64(i),
				types.Address{byte(r % 5)}, types.Address{byte((r >> 3) % 5)},
				tags[int(r)%len(tags)], tags[int(r>>2)%len(tags)],
				uint64(r%1000)+1, toks[int(r>>5)%len(toks)]))
		}
		out := simplifyTagged(in, Options{WETH: wethTok})
		if len(out) > len(in) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i-1].Seq > out[i].Seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
