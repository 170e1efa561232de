// Package simplify converts tagged account-level asset transfers into
// application-level transfers by applying the paper's three rules
// (§V-B2):
//
//  1. remove intra-app transfers (tag_sender == tag_receiver);
//  2. remove WETH-related transfers (either party tagged "Wrapped Ether")
//     and unify the WETH token with ETH;
//  3. merge inter-app transfers: two consecutive transfers moving ~the
//     same amount of the same token through an intermediary collapse into
//     one transfer that names the true counterparties (aggregators charge
//     <0.1%, the paper's tolerance).
//
// Transfers are the interned tuples of types.ITransfer: tags and tokens
// are integer ids, so every rule check compares integers.
package simplify

import (
	"slices"

	"leishen/internal/types"
	"leishen/internal/uint256"
)

// WETHAppName is the application tag of the Wrapped Ether contract.
const WETHAppName = "Wrapped Ether"

// DefaultMergeToleranceBps is the paper's 0.1% amount tolerance for the
// inter-app merge rule, in basis points.
const DefaultMergeToleranceBps = 10

// Options configures simplification.
type Options struct {
	// WETH identifies the Wrapped Ether token to unify with ETH; the zero
	// token disables rule 2's token unification (tag-based removal still
	// applies).
	WETH types.Token
	// MergeToleranceBps overrides the 0.1% merge tolerance; 0 means the
	// default.
	MergeToleranceBps uint64
	// DisableIntraAppRule, DisableWETHRule and DisableMergeRule switch
	// individual rules off for ablation experiments.
	DisableIntraAppRule bool
	DisableWETHRule     bool
	DisableMergeRule    bool
}

func (o Options) tolerance() uint64 {
	if o.MergeToleranceBps == 0 {
		return DefaultMergeToleranceBps
	}
	return o.MergeToleranceBps
}

// InternedRules is the id-resolved form of Options: the detector
// resolves the directed tag and token once per configuration, so the
// per-transfer rule checks compare ids instead of strings.
type InternedRules struct {
	// WETHTag is the id of the Wrapped Ether application tag;
	// InvalidTagID when the WETH rule is disabled or no account carries
	// the tag (then rule 2a matches nothing).
	WETHTag types.TagID
	// WETHToken is the id of the Wrapped Ether token to unify with ETH;
	// InvalidTokenID disables rule 2b's unification.
	WETHToken types.TokenID
	// ToleranceBps is the resolved merge tolerance.
	ToleranceBps uint64
	// DisableIntraAppRule / DisableMergeRule switch rules 1 and 3 off,
	// as in Options.
	DisableIntraAppRule bool
	DisableMergeRule    bool
}

// IScratch holds the ping-pong buffers of SimplifyInterned.
// The zero value is ready to use; not safe for concurrent use.
type IScratch struct {
	A, B []types.ITransfer
}

// Reset discards buffer contents, keeping capacity.
func (s *IScratch) Reset() {
	s.A, s.B = s.A[:0], s.B[:0]
}

// SimplifyInterned applies the three §V-B2 rules in order to tagged
// transfers (Sender/Receiver and SenderTag/ReceiverTag set) and returns
// the application-level transfers: tags plus BlackHole flags, with the
// raw addresses of merged entries no longer meaningful. The returned
// slice aliases the scratch and is only valid until the next call with
// the same scratch.
func SimplifyInterned(transfers []types.ITransfer, r InternedRules, s *IScratch) []types.ITransfer {
	s.Reset()
	out := slices.Grow(s.A, len(transfers))
	for _, tt := range transfers {
		// Rule 2a: drop transfers touching the Wrapped Ether contract.
		if tt.SenderTag == r.WETHTag || tt.ReceiverTag == r.WETHTag {
			continue
		}
		at := tt
		// Rule 2b: unify WETH with ETH.
		if at.Token == r.WETHToken {
			at.Token = types.ETHTokenID
		}
		at.FromBlackHole = tt.Sender.IsZero()
		at.ToBlackHole = tt.Receiver.IsZero()
		// Rule 1: drop intra-app transfers. Mints and burns are kept even
		// when tags coincide — the BlackHole is not an application.
		if !r.DisableIntraAppRule &&
			!at.FromBlackHole && !at.ToBlackHole &&
			samePartyID(at.SenderTag, at.ReceiverTag) {
			continue
		}
		out = append(out, at)
	}
	s.A = out
	if r.DisableMergeRule {
		return out
	}
	// Rule 3: merge inter-app transfers to fixpoint (profits are
	// laundered through multi-level intermediaries, §VI-D2). The passes
	// ping-pong between the two scratch buffers instead of allocating
	// per pass.
	spare := s.B
	for {
		merged, changed := mergeIntoInterned(spare[:0], out, r.ToleranceBps)
		out, spare = merged, out
		s.A, s.B = out, spare
		if !changed {
			return out
		}
	}
}

// samePartyID reports whether two tags denote the same application or
// the same unlabeled creation tree. Untaggable accounts (NoTagID) never
// match anything: with conflicting labels there is no evidence the
// parties coincide.
func samePartyID(a, b types.TagID) bool {
	return a != types.NoTagID && a == b
}

// mergeIntoInterned performs one left-to-right pass of the merge rule,
// appending the result to out (pass a recycled buffer's [:0] to avoid
// allocating).
func mergeIntoInterned(out, ts []types.ITransfer, tolBps uint64) ([]types.ITransfer, bool) {
	if len(ts) < 2 {
		return append(out, ts...), false
	}
	changed := false
	for i := 0; i < len(ts); i++ {
		if i+1 < len(ts) && mergeableInterned(&ts[i], &ts[i+1], tolBps) {
			a, b := &ts[i], &ts[i+1]
			m := *a
			m.ReceiverTag = b.ReceiverTag
			m.Receiver = b.Receiver
			m.ToBlackHole = b.ToBlackHole
			// The receiving side's amount is what actually arrived at
			// the true counterparty.
			m.Amount = b.Amount
			out = append(out, m)
			i++ // consume both
			changed = true
			continue
		}
		out = append(out, ts[i])
	}
	return out, changed
}

// mergeableInterned implements the paper's condition: same token, ~same
// amount, and the first receiver is the second sender (the
// intermediary). Merging a transfer back to its own origin (A→B→A) is a
// round trip, not a forwarding, and is excluded; so are mint/burn legs.
func mergeableInterned(a, b *types.ITransfer, tolBps uint64) bool {
	if a.Token != b.Token {
		return false
	}
	if a.ToBlackHole || b.FromBlackHole {
		return false
	}
	if !samePartyID(a.ReceiverTag, b.SenderTag) {
		return false
	}
	if samePartyID(a.SenderTag, b.ReceiverTag) {
		return false // round trip, not an intermediary hop
	}
	return uint256.WithinBps(a.Amount, b.Amount, tolBps)
}

// ResolveRules builds the interned rule set from Options given the two
// id lookups (the detector passes the tagger's and interner's). A WETH
// tag that no account carries leaves rule 2a with nothing to match.
func ResolveRules(opts Options, tagID func(types.Tag) (types.TagID, bool), tokenID func(types.Address) types.TokenID) InternedRules {
	r := InternedRules{
		WETHTag:             types.InvalidTagID,
		WETHToken:           types.InvalidTokenID,
		ToleranceBps:        opts.tolerance(),
		DisableIntraAppRule: opts.DisableIntraAppRule,
		DisableMergeRule:    opts.DisableMergeRule,
	}
	if !opts.DisableWETHRule {
		if id, ok := tagID(types.AppTag(WETHAppName)); ok {
			r.WETHTag = id
		}
		if !opts.WETH.Address.IsZero() {
			r.WETHToken = tokenID(opts.WETH.Address)
		}
	}
	return r
}
