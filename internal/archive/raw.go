// The zero-decode read path: queries that return the stored report JSON
// bytes exactly as framed on disk, without rebuilding Record structs.
//
// The archive already stores each report as canonical JSON (the bytes
// the follower marshalled once at ingest), so a serving layer that only
// wants to forward those bytes should never pay decode-then-re-encode
// tax. SelectRaw and GetRaw return RawRecord values whose Report field
// aliases a freshly read buffer (or the shared record cache), and the
// read itself is coalesced: consecutive matching frames of one segment
// are fetched with a single ReadAt through a cached per-segment file
// handle instead of an open/read/close triple per record.
//
// Get and Select remain the decoded API; both are thin wrappers over
// the raw path, so the two are byte-identical by construction. There is
// one gather (fence-pruned); TestSelectPrunedMatchesLinear holds both
// APIs to a linear model of the appended records on randomized
// archives rather than trusting the construction.
package archive

import (
	"fmt"
	"os"
	"sort"

	"leishen/internal/types"
	"leishen/internal/vfs"
)

// RawRecord is the zero-decode view of one archived report: the frame
// metadata plus the stored report JSON, returned without rebuilding a
// Record. Report may alias the archive's internal record cache — treat
// it as read-only.
type RawRecord struct {
	TxHash types.Hash
	Block  uint64
	Flags  uint8
	// Report is the stored report document, byte-identical to the JSON
	// that was appended (canonical encoding, no re-marshalling).
	Report []byte
}

// decodeRawRecord validates one report frame at the head of b exactly
// like decodeRecord — length cap, CRC32C, structural bounds — but
// returns the report bytes as a subslice of b instead of copying them.
// Only KindReport frames have a raw form; anything else is an error.
func decodeRawRecord(b []byte) (RawRecord, int, error) {
	rec, n, err := decodeRecordAliased(b)
	if err != nil {
		return RawRecord{}, 0, err
	}
	if rec.Kind != KindReport {
		return RawRecord{}, 0, fmt.Errorf("%w: raw decode of non-report kind %d", errBadFrame, rec.Kind)
	}
	return RawRecord{TxHash: rec.TxHash, Block: rec.Block, Flags: rec.Flags, Report: rec.Report}, n, nil
}

// readRunCoalescing bounds the raw read path's frame coalescing: runs
// of matching frames whose gaps (non-matching frames between them, e.g.
// interleaved checkpoints) stay under maxReadGapBytes are fetched with
// one ReadAt, up to maxReadRunBytes per read. A sparse flag-filtered
// match set degrades gracefully to per-frame reads.
const (
	maxReadRunBytes = 1 << 20
	maxReadGapBytes = 4 << 10
)

// GetRaw reads the archived report for a transaction without decoding
// it, through the same record cache Get uses — a hit costs no disk read
// and no copy. The returned Report bytes may alias the cache: read-only.
func (a *Archive) GetRaw(h types.Hash) (RawRecord, bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.getRawLocked(h)
}

// getRawLocked is the shared point-lookup core of Get and GetRaw:
// cache, then bloom-guarded index lookup, then a single frame read that
// populates the cache.
func (a *Archive) getRawLocked(h types.Hash) (RawRecord, bool, error) {
	if raw, ok := a.cache.get(h); ok {
		a.met.cacheHits.Inc()
		return raw, true, nil
	}
	i, ok := a.lookupTxLocked(h)
	if !ok {
		return RawRecord{}, false, nil
	}
	a.met.cacheMisses.Inc()
	raw, err := a.readRawFrameLocked(a.frames[i])
	if err != nil {
		return RawRecord{}, false, err
	}
	a.cache.put(h, raw)
	return raw, true, nil
}

// SelectRaw is Select without the decode: matching reports in append
// (block) order as RawRecords, plus the same more-matches pagination
// signal. Pruning (segment fences, binary-searched range starts) and
// cursor semantics are identical to Select — both run on one core.
func (a *Archive) SelectRaw(q Query) ([]RawRecord, bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.selectRawLocked(&q)
}

// selectRawLocked gathers the indexes of every matching frame (bounded
// by the query limit), then reads them with run coalescing. Gathering
// first is what lets consecutive matches become one disk read.
func (a *Archive) selectRawLocked(q *Query) ([]RawRecord, bool, error) {
	minIdx := 0
	if !q.After.IsZero() {
		i, ok := a.lookupTxLocked(q.After)
		if !ok {
			return nil, false, fmt.Errorf("archive: unknown pagination cursor %s", q.After)
		}
		minIdx = i + 1
	}
	matched, more := a.gatherPrunedLocked(q, minIdx)
	if len(matched) == 0 {
		return nil, more, nil
	}
	out, err := a.readRawFramesLocked(matched)
	if err != nil {
		return nil, false, err
	}
	return out, more, nil
}

// gatherPrunedLocked walks the segments fence-first, collecting the
// frame indexes a query matches. The returned bool is the pagination
// more flag: true only when a further match exists past the limit.
func (a *Archive) gatherPrunedLocked(q *Query, minIdx int) ([]int, bool) {
	var matched []int
	for s := range a.segs {
		seg := &a.segs[s]
		end := a.segEndLocked(s)
		if end <= minIdx {
			continue
		}
		if seg.fence.reports > 0 && q.ToBlock != 0 && seg.fence.minBlock > q.ToBlock {
			// Blocks only grow with the segment number: everything from
			// here on is past the range.
			a.met.selectPruned.Add(uint64(len(a.segs) - s))
			break
		}
		if !seg.fence.overlaps(q) {
			a.met.selectPruned.Inc()
			continue
		}
		a.met.selectScanned.Inc()
		// Frames are block-ordered within the segment: binary-search the
		// range start instead of walking to it.
		segFrames := a.frames[seg.firstFrame:end]
		start := seg.firstFrame + sort.Search(len(segFrames), func(i int) bool {
			return segFrames[i].block >= q.FromBlock
		})
		if start < minIdx {
			start = minIdx
		}
		for i := start; i < end; i++ {
			f := &a.frames[i]
			if q.ToBlock != 0 && f.block > q.ToBlock {
				return matched, false
			}
			if f.kind != KindReport || f.flags&q.Flags != q.Flags {
				continue
			}
			if q.Limit > 0 && len(matched) == q.Limit {
				return matched, true
			}
			matched = append(matched, i)
		}
	}
	return matched, false
}

// readRawFramesLocked reads the frames at the given indexes (ascending)
// into RawRecords. Frames still sitting in the pending write buffer are
// copied out individually; disk frames are grouped into runs — same
// segment, bounded gaps, bounded total span — and each run costs one
// ReadAt on the segment's cached read handle.
func (a *Archive) readRawFramesLocked(idxs []int) ([]RawRecord, error) {
	out := make([]RawRecord, 0, len(idxs))
	for i := 0; i < len(idxs); {
		first := a.frames[idxs[i]]
		if a.frameBufferedLocked(first) {
			raw, err := a.readRawFrameLocked(first)
			if err != nil {
				return nil, err
			}
			out = append(out, raw)
			i++
			continue
		}
		j := i + 1
		for j < len(idxs) {
			prev, next := a.frames[idxs[j-1]], a.frames[idxs[j]]
			if next.seg != prev.seg || a.frameBufferedLocked(next) {
				break
			}
			if next.off-(prev.off+prev.size) > maxReadGapBytes {
				break
			}
			if next.off+next.size-first.off > maxReadRunBytes {
				break
			}
			j++
		}
		last := a.frames[idxs[j-1]]
		buf := make([]byte, last.off+last.size-first.off)
		f, err := a.readerLocked(first.seg)
		if err != nil {
			return nil, err
		}
		if _, err := f.ReadAt(buf, first.off); err != nil {
			return nil, fmt.Errorf("archive: read frame run: %w", err)
		}
		a.met.readRuns.Inc()
		a.met.readFrames.Add(uint64(j - i))
		for k := i; k < j; k++ {
			ref := a.frames[idxs[k]]
			raw, _, err := decodeRawRecord(buf[ref.off-first.off : ref.off-first.off+ref.size])
			if err != nil {
				return nil, fmt.Errorf("archive: stored frame invalid: %w", err)
			}
			out = append(out, raw)
		}
		i = j
	}
	return out, nil
}

// readRawFrameLocked reads and raw-decodes one report frame into a
// fresh buffer.
func (a *Archive) readRawFrameLocked(ref frameRef) (RawRecord, error) {
	buf, err := a.frameBytesLocked(ref)
	if err != nil {
		return RawRecord{}, err
	}
	raw, _, err := decodeRawRecord(buf)
	if err != nil {
		return RawRecord{}, fmt.Errorf("archive: stored frame invalid: %w", err)
	}
	return raw, nil
}

// frameBufferedLocked reports whether ref's bytes are still in the
// pending write buffer rather than the segment file. Frames never
// straddle wbase: the buffer starts at a frame boundary and is always
// written out whole.
func (a *Archive) frameBufferedLocked(ref frameRef) bool {
	return ref.seg == len(a.segs)-1 && ref.off >= a.wbase
}

// frameBytesLocked returns one frame's bytes in a fresh buffer — copied
// out of the pending write buffer when not yet flushed, read from disk
// through the segment's cached handle otherwise.
func (a *Archive) frameBytesLocked(ref frameRef) ([]byte, error) {
	if a.frameBufferedLocked(ref) {
		i := ref.off - a.wbase
		return append([]byte(nil), a.wbuf[i:i+ref.size]...), nil
	}
	f, err := a.readerLocked(ref.seg)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, ref.size)
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		return nil, fmt.Errorf("archive: read frame: %w", err)
	}
	a.met.readRuns.Inc()
	a.met.readFrames.Inc()
	return buf, nil
}

// readerLocked returns a cached read-only handle on segment seg's file,
// opening it on first use. Handles are keyed by segment number and
// survive rotation (the file does not change); Close and RollbackAbove
// drop them all.
func (a *Archive) readerLocked(seg int) (vfs.File, error) {
	num := a.segs[seg].number
	if f, ok := a.readers[num]; ok {
		return f, nil
	}
	f, err := a.fs.OpenFile(a.segmentPath(num), os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	a.readers[num] = f
	return f, nil
}

// closeReadersLocked closes every cached read handle (in segment order,
// for deterministic error attribution) and returns the first failure.
func (a *Archive) closeReadersLocked() error {
	nums := make([]int, 0, len(a.readers))
	for num := range a.readers {
		nums = append(nums, num)
	}
	sort.Ints(nums)
	var first error
	for _, num := range nums {
		if err := a.readers[num].Close(); err != nil && first == nil {
			first = fmt.Errorf("archive: close reader: %w", err)
		}
		delete(a.readers, num)
	}
	return first
}
