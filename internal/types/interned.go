package types

import "leishen/internal/uint256"

// Interned pipeline vocabulary.
//
// The detection hot path runs extract → tag → simplify → trades → match
// thousands of times per second, and profiling shows the string-bearing
// tuples (Tag.Name, Token.Symbol) dominate its cost twice over: every
// comparison is a memeq over string bytes, and every stage-to-stage copy
// drags pointer-dense structs through the GC's scan phase. The interned
// tuples below replace each string-valued identity with a small integer
// id issued by a scan-lifetime intern table (tags by the tagger, tokens
// by the trace interner). Id equality is exactly struct equality —
// tables issue one id per distinct value — so the pipeline compares and
// hashes ints, and resolves ids back to the full Tag and Token values
// only when a report is materialized.

// TagID is an interned application tag. The tagger issues one id per
// distinct Tag value, so id equality is Tag equality.
type TagID uint32

// NoTagID is the id of the untaggable marker (NoTag). All untaggable
// accounts share the one NoTag value, hence one id, so the "untagged
// accounts never match anything" rules translate to id comparisons
// against this constant.
const NoTagID TagID = 0

// InvalidTagID is a sentinel that the tagger never issues; comparisons
// against it are always false. Rule configuration uses it to disable a
// tag-directed rule (e.g. "no WETH tag exists in this snapshot").
const InvalidTagID TagID = ^TagID(0)

// IsNone reports whether the tag is the untaggable marker, mirroring
// Tag.IsNone.
func (id TagID) IsNone() bool { return id == NoTagID }

// TokenID is an interned token identity. Token identity throughout the
// pipeline is the contract address (Symbol and Decimals are metadata),
// and the interner issues one id per distinct address, so id equality
// is exactly the pipeline's sameToken predicate.
type TokenID uint32

// ETHTokenID is the id of native Ether. The zero address denotes ETH
// (Token.IsETH ⇔ Address.IsZero), so the interner reserves id 0 for it.
const ETHTokenID TokenID = 0

// InvalidTokenID is a sentinel the interner never issues, used to
// disable token-directed rules (e.g. WETH unification switched off).
const InvalidTokenID TokenID = ^TokenID(0)

// IsETH reports whether the id denotes native Ether, mirroring
// Token.IsETH.
func (id TokenID) IsETH() bool { return id == ETHTokenID }

// ITransfer is the interned transfer tuple shared by every pipeline
// stage. Extraction fills Seq/Sender/Receiver/Amount/Token, tagging
// fills SenderTag/ReceiverTag in place, and simplification consumes the
// tagged form and emits the application-level form (tags + BlackHole
// flags; the raw addresses of merged entries are no longer meaningful).
// One pointer-free struct across stages means the hot path never copies
// between per-stage tuple shapes and the GC never scans the buffers.
type ITransfer struct {
	// Seq is the global happened-before position within the transaction.
	Seq uint64
	// Sender / Receiver are the raw account addresses (account level).
	Sender, Receiver Address
	// SenderTag / ReceiverTag are the interned application tags.
	SenderTag, ReceiverTag TagID
	// FromBlackHole / ToBlackHole mark mints and burns (app level).
	FromBlackHole, ToBlackHole bool
	// Token is the interned asset.
	Token TokenID
	// Amount is the transferred quantity in base units.
	Amount uint256.Int
}

// ILeg is one additional asset movement attached to an interned trade.
type ILeg struct {
	Amount uint256.Int
	Token  TokenID
}

// Secondary-leg kinds for ITrade. The trade forms of Table III attach
// at most one extra leg, so the interned trade inlines a single ILeg
// plus a discriminator instead of the two nullable pointers Trade uses.
const (
	// SecondaryNone marks a two-transfer trade (no extra leg).
	SecondaryNone uint8 = iota
	// SecondaryIsBuy marks the leg as a second received asset.
	SecondaryIsBuy
	// SecondaryIsSell marks the leg as a second paid asset.
	SecondaryIsSell
)

// ITrade is the interned trade tuple. Pattern matching compares only
// ids and amounts; the secondary leg is carried for report
// materialization.
type ITrade struct {
	// Kind is the trade action class.
	Kind TradeKind
	// Buyer / Seller are the interned party tags.
	Buyer, Seller TagID
	// AmountSell / TokenSell is what the buyer paid.
	AmountSell uint256.Int
	TokenSell  TokenID
	// AmountBuy / TokenBuy is what the buyer received.
	AmountBuy uint256.Int
	TokenBuy  TokenID
	// Secondary is the optional extra leg; SecondaryKind says which side
	// it belongs to (SecondaryNone means absent).
	Secondary     ILeg
	SecondaryKind uint8
	// Seq is the happened-before position of the trade's first transfer.
	Seq uint64
}

// Rate returns the price paid per unit bought (AmountSell/AmountBuy),
// the same float Trade.Rate computes, so interned volatility math
// reproduces the report numbers bit for bit.
func (t ITrade) Rate() float64 { return t.AmountSell.Rat(t.AmountBuy) }

// InverseRate returns AmountBuy/AmountSell.
func (t ITrade) InverseRate() float64 { return t.AmountBuy.Rat(t.AmountSell) }

// IDSpace is a standalone intern table for tags and tokens that arrive
// in string form outside a detector: a baseline's trade list or a test
// fixture. It follows the pipeline's id conventions: an untaggable tag
// is NoTagID, native Ether is ETHTokenID, and a token is identified by
// its contract address (Token resolves the first value seen at that
// address). The zero value is ready to use; not safe for concurrent use.
type IDSpace struct {
	tagIDs   map[Tag]TagID
	tags     []Tag // tags[id-1]
	tokenIDs map[Address]TokenID
	tokens   []Token // tokens[id-1]
}

// TagID returns the id of tag, issuing one on first sight.
func (s *IDSpace) TagID(tag Tag) TagID {
	if tag.IsNone() {
		return NoTagID
	}
	id, ok := s.tagIDs[tag]
	if !ok {
		if s.tagIDs == nil {
			s.tagIDs = make(map[Tag]TagID)
		}
		s.tags = append(s.tags, tag)
		id = TagID(len(s.tags))
		s.tagIDs[tag] = id
	}
	return id
}

// Tag resolves a tag id issued by this space.
func (s *IDSpace) Tag(id TagID) Tag {
	if id == NoTagID {
		return NoTag()
	}
	return s.tags[id-1]
}

// TokenID returns the id of tok's address, issuing one on first sight.
func (s *IDSpace) TokenID(tok Token) TokenID {
	if tok.IsETH() {
		return ETHTokenID
	}
	id, ok := s.tokenIDs[tok.Address]
	if !ok {
		if s.tokenIDs == nil {
			s.tokenIDs = make(map[Address]TokenID)
		}
		s.tokens = append(s.tokens, tok)
		id = TokenID(len(s.tokens))
		s.tokenIDs[tok.Address] = id
	}
	return id
}

// Token resolves a token id issued by this space.
func (s *IDSpace) Token(id TokenID) Token {
	if id == ETHTokenID {
		return ETH
	}
	return s.tokens[id-1]
}
