package tagging

import (
	"sync"

	"leishen/internal/types"
)

// Tag interning.
//
// The tagger is the single authority for account → tag resolution, so
// it also owns the tag intern table: one small integer id per distinct
// Tag value, issued deterministically from the snapshot's account order
// at construction and extended lazily (under a mutex, memoized in
// sync.Maps) for out-of-snapshot addresses discovered while scanning.
// Id equality is Tag equality — the table never issues two ids for one
// value — which is what lets the simplify/trades/match layers compare
// interned ids instead of hashing tag strings. ResolveTag returns the
// Tag value behind an id, which is what reports carry.

// intern is the Tagger's id table.
type intern struct {
	// ids maps snapshot accounts to their tag's id; read-only after New.
	ids map[types.Address]types.TagID
	// byID maps snapshot-issued ids back to tags; read-only after New.
	// byID[NoTagID] is the untaggable marker.
	byID []types.Tag
	// tagIDs maps distinct snapshot tag values to ids (rule configuration
	// looks up e.g. the Wrapped Ether tag here); read-only after New.
	tagIDs map[types.Tag]types.TagID
	// zeroRootID is the id of the BlackHole address's root tag.
	zeroRootID types.TagID

	// Out-of-snapshot extension: extraIDs maps addresses to lazily
	// issued ids, extraTags maps those ids back to tags. mu serializes
	// issuance; lookups are lock-free loads.
	mu        sync.Mutex
	nextID    types.TagID
	extraIDs  sync.Map // types.Address -> types.TagID
	extraTags sync.Map // types.TagID -> types.Tag
}

// buildIntern assigns ids for every snapshot tag. Iterating the
// accounts slice (not the tags map) keeps id assignment deterministic;
// determinism is not needed for output identity — ids never leave the
// process — but it keeps runs comparable under profiling and satisfies
// the map-order lint.
func (t *Tagger) buildIntern(accounts []types.Address) {
	t.intern.byID = append(t.intern.byID, types.NoTag())
	t.intern.tagIDs = map[types.Tag]types.TagID{types.NoTag(): types.NoTagID}
	t.intern.ids = make(map[types.Address]types.TagID, len(accounts))
	assign := func(tag types.Tag) types.TagID {
		if id, ok := t.intern.tagIDs[tag]; ok {
			return id
		}
		id := types.TagID(len(t.intern.byID))
		t.intern.byID = append(t.intern.byID, tag)
		t.intern.tagIDs[tag] = id
		return id
	}
	for _, a := range accounts {
		t.intern.ids[a] = assign(t.tags[a])
	}
	t.intern.zeroRootID = assign(zeroRootTag)
	t.intern.nextID = types.TagID(len(t.intern.byID))
}

// TagIDOf returns the interned id of an account's tag, mirroring Tag:
// snapshot accounts resolve from the precomputed table, the BlackHole
// address resolves to its root tag's id, and unknown addresses are
// issued a root-tag id on first sight.
func (t *Tagger) TagIDOf(addr types.Address) types.TagID {
	if addr.IsZero() {
		return t.intern.zeroRootID
	}
	if id, ok := t.intern.ids[addr]; ok {
		return id
	}
	if id, ok := t.intern.extraIDs.Load(addr); ok {
		return id.(types.TagID)
	}
	return t.internExtra(addr)
}

// internExtra issues an id for an out-of-snapshot address. Out-of-
// snapshot accounts are their own roots (see Tag), and distinct
// addresses yield distinct root tags, so deduping by address preserves
// the one-id-per-value invariant.
func (t *Tagger) internExtra(addr types.Address) types.TagID {
	t.intern.mu.Lock()
	defer t.intern.mu.Unlock()
	if id, ok := t.intern.extraIDs.Load(addr); ok {
		return id.(types.TagID)
	}
	tag := types.RootTag(addr)
	id := t.intern.nextID
	t.intern.nextID++
	t.intern.extraTags.Store(id, tag)
	t.intern.extraIDs.Store(addr, id)
	return id
}

// ResolveTag returns the Tag value behind an issued id. Resolving an id
// the tagger never issued returns the untaggable marker.
func (t *Tagger) ResolveTag(id types.TagID) types.Tag {
	if int(id) < len(t.intern.byID) {
		return t.intern.byID[id]
	}
	if tag, ok := t.intern.extraTags.Load(id); ok {
		return tag.(types.Tag)
	}
	return types.NoTag()
}

// IDOfTag returns the id of a snapshot tag value, or false when no
// snapshot account carries it. Rule configuration uses this to resolve
// directed tags (the Wrapped Ether application) once per detector
// instead of comparing strings per transfer.
func (t *Tagger) IDOfTag(tag types.Tag) (types.TagID, bool) {
	id, ok := t.intern.tagIDs[tag]
	return id, ok
}

// TagTransferIDs annotates account-level transfers with their parties'
// tag ids in place, producing the tagT_i tuples of §V-B1 inside the
// extraction buffer instead of copying into a second slice.
func (t *Tagger) TagTransferIDs(transfers []types.ITransfer) {
	for i := range transfers {
		transfers[i].SenderTag = t.TagIDOf(transfers[i].Sender)
		transfers[i].ReceiverTag = t.TagIDOf(transfers[i].Receiver)
	}
}
