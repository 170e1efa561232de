package archive

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"leishen/internal/types"
)

// selectModel is the linear reference the archive's read path is held
// to: every appended report in append order, filtered by a plain walk.
// Checkpoints never match a query, so the model does not hold them.
type selectModel struct{ recs []RawRecord }

// latest returns the index of h's most recently appended copy, or -1.
func (m *selectModel) latest(h types.Hash) int {
	for i := len(m.recs) - 1; i >= 0; i-- {
		if m.recs[i].TxHash == h {
			return i
		}
	}
	return -1
}

// query answers q the way Select documents it: records after the
// latest copy of the After cursor (an unknown cursor is an error),
// inside [FromBlock, ToBlock] (ToBlock 0 = open), carrying every bit of
// Flags, cut at Limit with more reporting whether a further match
// exists.
func (m *selectModel) query(q Query) ([]RawRecord, bool, error) {
	start := 0
	if !q.After.IsZero() {
		i := m.latest(q.After)
		if i < 0 {
			return nil, false, fmt.Errorf("unknown cursor %s", q.After)
		}
		start = i + 1
	}
	var out []RawRecord
	for _, r := range m.recs[start:] {
		if r.Block < q.FromBlock || (q.ToBlock != 0 && r.Block > q.ToBlock) || r.Flags&q.Flags != q.Flags {
			continue
		}
		if q.Limit > 0 && len(out) == q.Limit {
			return out, true, nil
		}
		out = append(out, r)
	}
	return out, false, nil
}

// TestSelectPrunedMatchesLinear holds the fence/bloom-pruned SelectRaw
// and Select to the linear model on randomized archives — segments small enough that fence pruning
// skips most of them, interleaved checkpoints for the run coalescer to
// step over, and re-appended hashes so the After cursor and point
// lookups must resolve to the latest copy. Every query (range, flags,
// limit, more, cursor, unknown cursor) and a full pagination walk run
// on the live archive and again after a sidecar reopen, where the
// sealed segments' blooms are built lazily on first lookup: every
// appended hash must then resolve through GetRaw to the model's latest
// copy (no bloom false negatives) and absent hashes must miss.
func TestSelectPrunedMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		dir := t.TempDir()
		a, err := Open(dir, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		var m selectModel
		block := uint64(1)
		n := 40 + rng.Intn(80)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				block += uint64(rng.Intn(4))
			}
			var flags uint8
			switch rng.Intn(4) {
			case 0:
				flags = FlagFlashLoan
			case 1:
				flags = FlagFlashLoan | FlagAttack
			case 2:
				flags = FlagFlashLoan | FlagAttack | FlagSuppressed
			}
			h := types.HashFromData([]byte("model"), []byte{byte(trial), byte(i), byte(i >> 8)})
			if i > 0 && rng.Intn(10) == 0 {
				h = m.recs[rng.Intn(len(m.recs))].TxHash
			}
			rec := &Record{
				Kind:   KindReport,
				TxHash: h,
				Block:  block,
				Flags:  flags,
				Report: []byte(fmt.Sprintf(`{"i":%d,"trial":%d}`, i, trial)),
			}
			if err := a.AppendReport(rec); err != nil {
				t.Fatal(err)
			}
			m.recs = append(m.recs, RawRecord{TxHash: rec.TxHash, Block: rec.Block, Flags: rec.Flags, Report: rec.Report})
			if rng.Intn(8) == 0 {
				if err := a.AppendCheckpoint(Checkpoint{Block: block, Digest: types.HashFromData([]byte{byte(i)})}); err != nil {
					t.Fatal(err)
				}
			}
		}

		queries := []Query{
			{},
			{Flags: FlagAttack},
			{Flags: FlagAttack | FlagSuppressed},
			{FromBlock: block / 2},
			{ToBlock: block / 2},
			{FromBlock: block + 10},
			{FromBlock: block / 2, ToBlock: block / 4},
			{After: types.HashFromData([]byte("no-such-record"))},
		}
		for q := 0; q < 24; q++ {
			qq := Query{
				FromBlock: uint64(rng.Intn(int(block) + 2)),
				ToBlock:   uint64(rng.Intn(int(block) + 2)),
				Flags:     uint8(rng.Intn(2)) * FlagAttack,
				Limit:     rng.Intn(9),
			}
			if q%2 == 1 {
				qq.After = m.recs[rng.Intn(len(m.recs))].TxHash
			}
			queries = append(queries, qq)
		}

		requireQueriesMatchModel(t, a, &m, queries, fmt.Sprintf("trial %d live", trial))
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}

		arc, err := Open(dir, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		lazy := 0
		for _, seg := range arc.segs {
			if seg.sealed != nil && !seg.sealed.bloomBuilt {
				lazy++
			}
		}
		if lazy == 0 {
			t.Fatalf("trial %d: reopen left no sealed segment with a lazily built bloom", trial)
		}
		for _, want := range m.recs {
			got, ok, err := arc.GetRaw(want.TxHash)
			if err != nil || !ok {
				t.Fatalf("trial %d: GetRaw(%s): ok=%v err=%v", trial, want.TxHash, ok, err)
			}
			latest := m.recs[m.latest(want.TxHash)]
			if got.Block != latest.Block || got.Flags != latest.Flags || !bytes.Equal(got.Report, latest.Report) {
				t.Fatalf("trial %d: GetRaw(%s) = %+v, want latest copy %+v", trial, want.TxHash, got, latest)
			}
		}
		for k := 0; k < 8; k++ {
			absent := types.HashFromData([]byte("absent"), []byte{byte(trial), byte(k)})
			if _, ok, err := arc.GetRaw(absent); ok || err != nil {
				t.Fatalf("trial %d: GetRaw(absent %d): ok=%v err=%v", trial, k, ok, err)
			}
		}

		requireQueriesMatchModel(t, arc, &m, queries, fmt.Sprintf("trial %d reopened", trial))
		if st := arc.Stats(); st.SelectSegmentsPruned == 0 {
			t.Errorf("trial %d: Select never skipped a segment across %d queries", trial, len(queries))
		}
		arc.Close()
	}
}

// requireQueriesMatchModel runs every query, then a pagination walk,
// through SelectRaw and Select and fails on any divergence from the
// model.
func requireQueriesMatchModel(t *testing.T, a *Archive, m *selectModel, queries []Query, ctx string) {
	t.Helper()
	for qi, q := range queries {
		requireMatchesModel(t, a, m, q, fmt.Sprintf("%s query %d %+v", ctx, qi, q))
	}
	walk := Query{Flags: FlagFlashLoan, Limit: 3}
	for page := 0; page < 100; page++ {
		recs, more := requireMatchesModel(t, a, m, walk, fmt.Sprintf("%s page %d", ctx, page))
		if !more {
			return
		}
		walk.After = recs[len(recs)-1].TxHash
	}
	t.Fatalf("%s: pagination walk did not end within 100 pages", ctx)
}

// requireMatchesModel runs q through SelectRaw and Select and fails the
// test unless both return the model's page — same records in the same
// order, identical Report bytes, same more flag, and an error exactly
// when the model errors. It returns the page for cursor walks.
func requireMatchesModel(t *testing.T, a *Archive, m *selectModel, q Query, ctx string) ([]RawRecord, bool) {
	t.Helper()
	want, wantMore, wantErr := m.query(q)
	raws, moreR, errR := a.SelectRaw(q)
	recs, moreD, errD := a.Select(q)
	if (errR != nil) != (wantErr != nil) || (errD != nil) != (wantErr != nil) {
		t.Fatalf("%s: errors: SelectRaw %v, Select %v, model %v", ctx, errR, errD, wantErr)
	}
	if wantErr != nil {
		return nil, false
	}
	if moreR != wantMore || moreD != wantMore || len(raws) != len(want) || len(recs) != len(want) {
		t.Fatalf("%s: SelectRaw (%d recs, more=%v), Select (%d recs, more=%v), model (%d recs, more=%v)",
			ctx, len(raws), moreR, len(recs), moreD, len(want), wantMore)
	}
	for i, w := range want {
		if !reflect.DeepEqual(raws[i], w) {
			t.Fatalf("%s record %d: SelectRaw %+v, model %+v", ctx, i, raws[i], w)
		}
		if d := (Record{Kind: KindReport, TxHash: w.TxHash, Block: w.Block, Flags: w.Flags, Report: w.Report}); !reflect.DeepEqual(recs[i], d) {
			t.Fatalf("%s record %d: Select %+v, model %+v", ctx, i, recs[i], d)
		}
	}
	return raws, wantMore
}

// TestSelectRawMatchesSelect pins the zero-decode path's contract on
// randomized archives: for any query, SelectRaw returns exactly the
// frames Select decodes — same order, same more flag, and Report bytes
// identical to the stored JSON — on the live archive and after a
// reopen, including a full pagination walk.
func TestSelectRawMatchesSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		dir := t.TempDir()
		a, err := Open(dir, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		block := uint64(1)
		n := 40 + rng.Intn(80)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				block += uint64(rng.Intn(4))
			}
			var flags uint8
			switch rng.Intn(4) {
			case 0:
				flags = FlagFlashLoan
			case 1:
				flags = FlagFlashLoan | FlagAttack
			case 2:
				flags = FlagFlashLoan | FlagAttack | FlagSuppressed
			}
			rec := &Record{
				Kind:   KindReport,
				TxHash: types.HashFromData([]byte("raw"), []byte{byte(trial), byte(i), byte(i >> 8)}),
				Block:  block,
				Flags:  flags,
				Report: []byte(fmt.Sprintf(`{"i":%d,"trial":%d}`, i, trial)),
			}
			if err := a.AppendReport(rec); err != nil {
				t.Fatal(err)
			}
			// Interleaved checkpoints give the run coalescer gaps to skip.
			if rng.Intn(8) == 0 {
				if err := a.AppendCheckpoint(Checkpoint{Block: block, Digest: types.HashFromData([]byte{byte(i)})}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, reopened := range []bool{false, true} {
			if reopened {
				if err := a.Close(); err != nil {
					t.Fatal(err)
				}
				if a, err = Open(dir, Options{SegmentBytes: 256}); err != nil {
					t.Fatal(err)
				}
			}
			queries := []Query{
				{},
				{Flags: FlagAttack},
				{Flags: FlagAttack | FlagSuppressed},
				{FromBlock: block / 2},
				{ToBlock: block / 2},
				{FromBlock: block + 10},
				{After: types.HashFromData([]byte("no-such-record"))},
			}
			for q := 0; q < 12; q++ {
				queries = append(queries, Query{
					FromBlock: uint64(rng.Intn(int(block) + 2)),
					ToBlock:   uint64(rng.Intn(int(block) + 2)),
					Flags:     uint8(rng.Intn(2)) * FlagAttack,
					Limit:     rng.Intn(9),
				})
			}
			for qi, q := range queries {
				requireRawMatchesSelect(t, a, q, fmt.Sprintf("trial %d reopened %v query %d", trial, reopened, qi))
			}

			// Pagination walk with a small limit: the raw cursor chain must
			// visit the exact pages the decoded cursor chain visits.
			walk := Query{Flags: FlagFlashLoan, Limit: 3}
			for page := 0; page < 100; page++ {
				raws := requireRawMatchesSelect(t, a, walk, fmt.Sprintf("trial %d reopened %v page %d", trial, reopened, page))
				if len(raws) == 0 {
					break
				}
				walk.After = raws[len(raws)-1].TxHash
			}
		}
		a.Close()
	}
}

// requireRawMatchesSelect runs q through both read paths and fails the
// test on any divergence, returning the raw page for cursor walks.
func requireRawMatchesSelect(t *testing.T, a *Archive, q Query, ctx string) []RawRecord {
	t.Helper()
	raws, moreR, errR := a.SelectRaw(q)
	recs, moreD, errD := a.Select(q)
	if (errR == nil) != (errD == nil) {
		t.Fatalf("%s: error mismatch: raw %v, decoded %v", ctx, errR, errD)
	}
	if errR != nil {
		return nil
	}
	if moreR != moreD || len(raws) != len(recs) {
		t.Fatalf("%s: raw (%d recs, more=%v) != decoded (%d recs, more=%v)",
			ctx, len(raws), moreR, len(recs), moreD)
	}
	for i := range raws {
		if raws[i].TxHash != recs[i].TxHash || raws[i].Block != recs[i].Block || raws[i].Flags != recs[i].Flags {
			t.Fatalf("%s record %d: metadata mismatch: raw %+v vs decoded %+v", ctx, i, raws[i], recs[i])
		}
		if !bytes.Equal(raws[i].Report, recs[i].Report) {
			t.Fatalf("%s record %d: report bytes differ:\nraw     %q\ndecoded %q", ctx, i, raws[i].Report, recs[i].Report)
		}
	}
	return raws
}

// TestGetRawSharesCacheWithGet pins that the point lookups run on one
// shared raw-bytes cache: a Get primes GetRaw's hit and vice versa, and
// the raw hit serves the stored bytes without a disk read.
func TestGetRawSharesCacheWithGet(t *testing.T) {
	dir := t.TempDir()
	a := buildArchive(t, dir, 30, Options{SegmentBytes: 512, CacheRecords: 8})
	defer a.Close()

	// Miss via Get primes the cache; GetRaw must hit it.
	h := sampleRecord(3).TxHash
	rec, ok, err := a.Get(h)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	raw, ok, err := a.GetRaw(h)
	if err != nil || !ok {
		t.Fatalf("getraw: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(raw.Report, rec.Report) {
		t.Fatalf("raw report %q != decoded report %q", raw.Report, rec.Report)
	}
	if raw.TxHash != rec.TxHash || raw.Block != rec.Block || raw.Flags != rec.Flags {
		t.Fatalf("raw metadata %+v != decoded record %+v", raw, rec)
	}
	st := a.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("want 1 hit / 1 miss across Get+GetRaw, got %d / %d", st.CacheHits, st.CacheMisses)
	}

	// And the symmetric order: GetRaw primes, Get hits.
	h2 := sampleRecord(7).TxHash
	if _, ok, err := a.GetRaw(h2); err != nil || !ok {
		t.Fatalf("getraw miss: ok=%v err=%v", ok, err)
	}
	if _, ok, err := a.Get(h2); err != nil || !ok {
		t.Fatalf("get hit: ok=%v err=%v", ok, err)
	}
	if st := a.Stats(); st.CacheHits != 2 || st.CacheMisses != 2 {
		t.Errorf("want 2 hits / 2 misses, got %d / %d", st.CacheHits, st.CacheMisses)
	}

	// Absent hash: clean miss on both paths.
	if _, ok, _ := a.GetRaw(types.HashFromData([]byte("absent"))); ok {
		t.Error("GetRaw found a record for an absent hash")
	}
}

// TestRawReadRunCoalescing checks that a dense Select issues far fewer
// disk reads than frames fetched — the ReadFrames/ReadRuns ratio is the
// coalescer's whole point — and that a fresh archive reads sealed
// segments through cached handles without error after rollback.
func TestRawReadRunCoalescing(t *testing.T) {
	dir := t.TempDir()
	a := buildArchive(t, dir, 200, Options{SegmentBytes: 2048})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen so every record lives on disk, not in the write buffer.
	a, err := Open(dir, Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	recs, _, err := a.SelectRaw(Query{Flags: FlagFlashLoan})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("select matched nothing")
	}
	st := a.Stats()
	if st.ReadFrames < uint64(len(recs)) {
		t.Fatalf("ReadFrames %d < %d records returned", st.ReadFrames, len(recs))
	}
	if st.ReadRuns == 0 || st.ReadRuns*4 > st.ReadFrames {
		t.Errorf("coalescing ineffective: %d runs for %d frames (want >= 4 frames per run on a dense scan)",
			st.ReadRuns, st.ReadFrames)
	}

	// Rollback truncates history and must drop the cached read handles
	// with it; the next reads reopen them against the rewritten files.
	if _, err := a.RollbackAbove(20); err != nil {
		t.Fatal(err)
	}
	again, _, err := a.SelectRaw(Query{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range again {
		if r.Block > 20 {
			t.Fatalf("record from block %d survived RollbackAbove(20)", r.Block)
		}
	}
	if _, _, err := a.GetRaw(sampleRecord(3).TxHash); err != nil {
		t.Fatalf("GetRaw after rollback: %v", err)
	}
}

// TestSelectRawLimitAndCursor pins the pagination contract details the
// serving layer depends on: more is true only when an actual further
// match exists, an exhausted cursor yields an empty page, and an
// unknown cursor is an error on both paths.
func TestSelectRawLimitAndCursor(t *testing.T) {
	dir := t.TempDir()
	a := buildArchive(t, dir, 20, Options{SegmentBytes: 512})
	defer a.Close()

	all, more, err := a.SelectRaw(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if more {
		t.Error("unlimited select reported more=true")
	}
	if len(all) != 20 {
		t.Fatalf("got %d records, want 20", len(all))
	}

	// Exact-limit page: everything returned, nothing more.
	page, more, err := a.SelectRaw(Query{Limit: 20})
	if err != nil || len(page) != 20 || more {
		t.Fatalf("limit=20: %d recs, more=%v, err=%v (want 20, false, nil)", len(page), more, err)
	}
	// After the final record: empty page, more=false — the serving
	// layer's "walked off the end" case.
	tail, more, err := a.SelectRaw(Query{After: all[len(all)-1].TxHash})
	if err != nil || len(tail) != 0 || more {
		t.Fatalf("after last: %d recs, more=%v, err=%v (want 0, false, nil)", len(tail), more, err)
	}
	// Unknown cursor errors identically on both paths.
	bogus := Query{After: types.HashFromData([]byte("never archived"))}
	if _, _, err := a.SelectRaw(bogus); err == nil {
		t.Error("SelectRaw accepted an unknown pagination cursor")
	}
	if _, _, err := a.Select(bogus); err == nil {
		t.Error("Select accepted an unknown pagination cursor")
	}
}
