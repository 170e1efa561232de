// Package tagging assigns DeFi application tags to Ethereum accounts
// using the contract-creation relationship (paper §V-B1).
//
// The paper's observation over 52,500 Etherscan-labeled accounts: 52,482
// follow the rule "accounts connected by creation share an application".
// The algorithm therefore builds a forest of creation edges and assigns
// every account the union of application labels found among its ancestors
// and descendants:
//
//   - exactly one label in the set → tag with that application;
//   - empty set → tag with the tree root's address (distinct per tree);
//   - conflicting labels → untaggable (the rare open-deployment case,
//     <0.1% of labeled accounts).
package tagging

import (
	"sort"
	"strings"
	"sync"

	"leishen/internal/evm"
	"leishen/internal/types"
)

// ChainView is the chain surface the tagger reads: the Etherscan-style
// label dump and the creation relationships (the paper's XBlock-ETH data).
// evm.Chain satisfies it.
type ChainView interface {
	Labels() map[types.Address]string
	CreationOf(addr types.Address) (evm.CreationInfo, bool)
	Accounts() []types.Address
}

// Tagger precomputes tags for every account known to a chain snapshot.
// A Tagger is safe for concurrent use: the precomputed maps are read-only
// after New, and the out-of-snapshot memo is a sync.Map.
type Tagger struct {
	tags  map[types.Address]types.Tag
	roots map[types.Address]types.Address
	// extra memoizes root tags for addresses outside the snapshot (bare
	// EOAs that only ever received assets). Deriving a root tag
	// hex-encodes the address into a fresh string; memoizing keeps the
	// steady-state Tag lookup allocation-free.
	extra sync.Map // types.Address -> types.Tag
	// intern is the tag id table (see intern.go).
	intern intern
}

// zeroRootTag is the tag of the zero (BlackHole) address, precomputed so
// Tag never re-derives it.
var zeroRootTag = types.RootTag(types.ZeroAddress)

// AppOfLabel extracts the application name from an Etherscan-style label:
// "Uniswap: Factory Contract" → "Uniswap". Labels without a role suffix
// are application names themselves.
func AppOfLabel(label string) string {
	if i := strings.IndexByte(label, ':'); i >= 0 {
		return strings.TrimSpace(label[:i])
	}
	return strings.TrimSpace(label)
}

// New builds a tagger from the chain's current label and creation data.
// excluded lists accounts whose labels must be ignored (the paper removes
// attacker labels that were applied only after the attacks happened).
func New(view ChainView, excluded ...types.Address) *Tagger {
	skip := make(map[types.Address]bool, len(excluded))
	for _, a := range excluded {
		skip[a] = true
	}
	labels := make(map[types.Address]string)
	for a, l := range view.Labels() {
		if !skip[a] {
			labels[a] = l
		}
	}

	accounts := view.Accounts()
	parent := make(map[types.Address]types.Address, len(accounts))
	children := make(map[types.Address][]types.Address, len(accounts))
	known := make(map[types.Address]bool, len(accounts))
	for _, a := range accounts {
		known[a] = true
	}
	for _, a := range accounts {
		ci, ok := view.CreationOf(a)
		if !ok || !ci.IsContract || ci.Creator.IsZero() {
			continue // roots: EOAs and genesis accounts
		}
		parent[a] = ci.Creator
		children[ci.Creator] = append(children[ci.Creator], a)
	}

	t := &Tagger{
		tags:  make(map[types.Address]types.Tag, len(accounts)),
		roots: make(map[types.Address]types.Address, len(accounts)),
	}

	// Resolve the root of every account by walking creation edges up.
	rootOf := func(a types.Address) types.Address {
		seen := 0
		cur := a
		for {
			p, ok := parent[cur]
			if !ok {
				return cur
			}
			cur = p
			if seen++; seen > 1_000_000 {
				return cur // defensive: creation edges cannot cycle
			}
		}
	}

	// labelsDown[a] = set of app names in a's subtree (including a).
	labelsDown := make(map[types.Address]map[string]bool, len(accounts))
	var down func(a types.Address) map[string]bool
	down = func(a types.Address) map[string]bool {
		if s, ok := labelsDown[a]; ok {
			return s
		}
		s := make(map[string]bool)
		if l, ok := labels[a]; ok {
			s[AppOfLabel(l)] = true
		}
		for _, c := range children[a] {
			for app := range down(c) {
				s[app] = true
			}
		}
		labelsDown[a] = s
		return s
	}

	for _, a := range accounts {
		root := rootOf(a)
		t.roots[a] = root

		// Tag set = own label ∪ ancestor labels ∪ descendant labels.
		set := make(map[string]bool)
		for app := range down(a) {
			set[app] = true
		}
		for cur := a; ; {
			p, ok := parent[cur]
			if !ok {
				break
			}
			if l, ok := labels[p]; ok {
				set[AppOfLabel(l)] = true
			}
			cur = p
		}

		// Directly labeled accounts keep their own label even inside a
		// conflicted tree (paper Fig. 7(c): labeled nodes retain tags).
		if l, ok := labels[a]; ok {
			t.tags[a] = types.AppTag(AppOfLabel(l))
			continue
		}
		switch len(set) {
		case 0:
			t.tags[a] = types.RootTag(root)
		case 1:
			t.tags[a] = types.AppTag(sortedApps(set)[0])
		default:
			t.tags[a] = types.NoTag()
		}
	}
	t.buildIntern(accounts)
	return t
}

// sortedApps returns the set's members in sorted order.
func sortedApps(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for app := range set {
		out = append(out, app)
	}
	sort.Strings(out)
	return out
}

// Tag returns the tag of an account. Accounts outside the snapshot (bare
// EOAs that only ever received assets) are their own roots; their derived
// root tags are memoized so repeated lookups do not re-encode the address.
func (t *Tagger) Tag(addr types.Address) types.Tag {
	if addr.IsZero() {
		return zeroRootTag
	}
	if tag, ok := t.tags[addr]; ok {
		return tag
	}
	if tag, ok := t.extra.Load(addr); ok {
		return tag.(types.Tag)
	}
	tag := types.RootTag(addr)
	t.extra.Store(addr, tag)
	return tag
}

// Root returns the creation-tree root of an account.
func (t *Tagger) Root(addr types.Address) types.Address {
	if r, ok := t.roots[addr]; ok {
		return r
	}
	return addr
}

// Stats summarizes a tagger's forest, mirroring the paper's study of
// 52,500 Etherscan-labeled accounts (52,482 followed the creation rule;
// conflicts were under 0.1%).
type Stats struct {
	// Accounts is the number of accounts in the snapshot.
	Accounts int
	// AppTagged is the number resolved to an application tag.
	AppTagged int
	// RootTagged is the number that fell back to a root-address tag.
	RootTagged int
	// Conflicted is the number left untaggable by conflicting labels.
	Conflicted int
}

// ConflictPct returns the fraction of conflicted accounts in percent.
func (s Stats) ConflictPct() float64 {
	if s.Accounts == 0 {
		return 0
	}
	return float64(s.Conflicted) / float64(s.Accounts) * 100
}

// Stats computes tagging statistics over the snapshot.
func (t *Tagger) Stats() Stats {
	var s Stats
	for _, tag := range t.tags {
		s.Accounts++
		switch tag.Kind {
		case types.TagApp:
			s.AppTagged++
		case types.TagRoot:
			s.RootTagged++
		default:
			s.Conflicted++
		}
	}
	return s
}
