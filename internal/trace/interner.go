package trace

import (
	"fmt"
	"sync"

	"leishen/internal/types"
)

// Interner issues scan-lifetime integer ids for token identities.
//
// Token identity in the pipeline is the contract address (the zero
// address is native ETH), so the interner is an address → id table
// seeded with ETH at id 0 and extended lazily as contracts appear in
// logs. Unknown contracts get their UNK-synthesized metadata exactly
// once, here, instead of once per transfer. An Interner is safe for
// concurrent use: lookups are lock-free sync.Map loads, issuance
// serializes on a mutex.
type Interner struct {
	under TokenResolver
	mu    sync.Mutex
	next  uint32
	ids   sync.Map // types.Address -> types.TokenID
	toks  sync.Map // types.TokenID -> types.Token
}

// NewInterner builds an interner over a token resolver.
func NewInterner(under TokenResolver) *Interner {
	in := &Interner{under: under, next: uint32(types.ETHTokenID) + 1}
	in.toks.Store(types.ETHTokenID, types.ETH)
	return in
}

// IDOf returns the id of the token at addr, issuing one on first sight.
// The zero address is native ETH.
func (in *Interner) IDOf(addr types.Address) types.TokenID {
	if addr.IsZero() {
		return types.ETHTokenID
	}
	if id, ok := in.ids.Load(addr); ok {
		return id.(types.TokenID)
	}
	return in.intern(addr)
}

func (in *Interner) intern(addr types.Address) types.TokenID {
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids.Load(addr); ok {
		return id.(types.TokenID)
	}
	tok, ok := in.under.Resolve(addr)
	if !ok {
		// Unknown token contracts still transfer value; synthesize
		// metadata (once per contract) so the transfer is not lost.
		tok = types.Token{
			Address:  addr,
			Symbol:   fmt.Sprintf("UNK-%s", addr.Short()),
			Decimals: 18,
		}
	}
	id := types.TokenID(in.next)
	in.next++
	in.toks.Store(id, tok)
	in.ids.Store(addr, id)
	return id
}

// Token returns the Token value behind an issued id. Resolving an id
// that was never issued returns the zero Token.
func (in *Interner) Token(id types.TokenID) types.Token {
	if tok, ok := in.toks.Load(id); ok {
		return tok.(types.Token)
	}
	return types.Token{}
}
