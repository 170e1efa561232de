package trace

import (
	"strings"
	"testing"

	"leishen/internal/evm"
	"leishen/internal/types"
	"leishen/internal/uint256"
)

type staticResolver map[types.Address]types.Token

func (r staticResolver) Resolve(a types.Address) (types.Token, bool) {
	t, ok := r[a]
	return t, ok
}

var (
	alice   = types.Address{1}
	bob     = types.Address{2}
	tokAddr = types.Address{9}
	tok     = types.Token{Address: tokAddr, Symbol: "TKN", Decimals: 18}
)

// extract runs ExtractInterned through a fresh interner over the
// extractor's resolver and resolves the token ids back.
func extract(ex *Extractor, r *evm.Receipt) []types.Transfer {
	in := NewInterner(ex.Tokens)
	var out []types.Transfer
	for _, t := range ex.ExtractInterned(nil, in, r) {
		out = append(out, types.Transfer{
			Seq: t.Seq, Sender: t.Sender, Receiver: t.Receiver,
			Amount: t.Amount, Token: in.Token(t.Token),
		})
	}
	return out
}

func TestExtractMergesStreamsBySeq(t *testing.T) {
	r := &evm.Receipt{
		Success: true,
		InternalTxs: []evm.InternalTx{
			{Seq: 0, From: alice, To: bob, Method: "pay", Value: uint256.FromUint64(100)},
			{Seq: 4, From: bob, To: alice, Method: "", Value: uint256.FromUint64(40)},
			{Seq: 5, From: bob, To: alice, Method: "noop"}, // zero value: skipped
		},
		Logs: []evm.Log{
			{Seq: 2, Address: tokAddr, Event: "Transfer",
				Addrs: []types.Address{alice, bob}, Amounts: []uint256.Int{uint256.FromUint64(7)}},
			{Seq: 3, Address: tokAddr, Event: "Approval",
				Addrs: []types.Address{alice, bob}, Amounts: []uint256.Int{uint256.FromUint64(1)}},
		},
	}
	ex := NewExtractor(staticResolver{tokAddr: tok})
	got := extract(ex, r)
	if len(got) != 3 {
		t.Fatalf("transfers = %v", got)
	}
	// Ordered by seq: ETH(0), TKN(2), ETH(4).
	if !got[0].Token.IsETH() || got[0].Seq != 0 || got[0].Amount.Uint64() != 100 {
		t.Errorf("t0 = %+v", got[0])
	}
	if got[1].Token.Symbol != "TKN" || got[1].Seq != 2 {
		t.Errorf("t1 = %+v", got[1])
	}
	if !got[2].Token.IsETH() || got[2].Seq != 4 {
		t.Errorf("t2 = %+v", got[2])
	}
}

func TestExtractUnknownTokenSynthesized(t *testing.T) {
	r := &evm.Receipt{
		Success: true,
		Logs: []evm.Log{
			{Seq: 0, Address: types.Address{0x42}, Event: "Transfer",
				Addrs: []types.Address{alice, bob}, Amounts: []uint256.Int{uint256.FromUint64(5)}},
		},
	}
	got := extract(NewExtractor(staticResolver{}), r)
	if len(got) != 1 {
		t.Fatalf("transfers = %v", got)
	}
	if !strings.HasPrefix(got[0].Token.Symbol, "UNK-") {
		t.Errorf("symbol = %s", got[0].Token.Symbol)
	}
}

func TestExtractFailedAndNil(t *testing.T) {
	ex := NewExtractor(staticResolver{})
	if got := extract(ex, nil); got != nil {
		t.Error("nil receipt")
	}
	if got := extract(ex, &evm.Receipt{Success: false}); got != nil {
		t.Error("failed receipt")
	}
}

func TestExtractMalformedLogsSkipped(t *testing.T) {
	r := &evm.Receipt{
		Success: true,
		Logs: []evm.Log{
			{Seq: 0, Address: tokAddr, Event: "Transfer", Addrs: []types.Address{alice}},      // 1 addr
			{Seq: 1, Address: tokAddr, Event: "Transfer", Addrs: []types.Address{alice, bob}}, // no amount
			{Seq: 2, Address: tokAddr, Event: "Swap", Addrs: []types.Address{alice, bob}},     // not Transfer
		},
	}
	if got := extract(NewExtractor(staticResolver{tokAddr: tok}), r); len(got) != 0 {
		t.Errorf("transfers = %v", got)
	}
}
