package store

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// interleavedCompaction builds the state every test in this file starts
// from: a store with several sealed segments, a compaction planned over
// them, and then, before the merge, the writes a commit path makes while
// it runs: an overwrite of a key living in a sealed segment, a brand-new
// key, and enough further Puts to rotate at least once. It returns the
// store, the plan, and the model of every committed value.
func interleavedCompaction(t *testing.T, dir string) (*Store, *compactPlan, map[string][]byte) {
	t.Helper()
	s := openTest(t, dir, Options{SegmentBytes: 256})
	model := make(map[string][]byte)
	put := func(key, val string) {
		t.Helper()
		mustPut(t, s, key, []byte(val))
		model[key] = []byte(val)
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 8; i++ {
			put(fmt.Sprintf("key-%02d", i), fmt.Sprintf("round-%d-verdict-%02d-padding-padding", round, i))
		}
	}
	if got := s.Stats().Segments; got < 4 {
		t.Fatalf("setup sealed too few segments: %d", got)
	}

	p, err := s.planCompaction()
	if err != nil || p == nil {
		t.Fatalf("planCompaction = %v, %v; want a plan", p, err)
	}
	overwritten := p.live[0].key
	put(overwritten, "written-after-plan")
	put("fresh-key", "first-written-during-merge")
	segs := s.Stats().Segments
	for i := 0; s.Stats().Segments == segs; i++ {
		put(fmt.Sprintf("rotate-%02d", i), "filler-verdict-bytes-padding-padding")
	}
	return s, p, model
}

// checkModel asserts that s holds exactly the model's keys and bytes.
func checkModel(t *testing.T, label string, s *Store, model map[string][]byte) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("%s: %d keys, want %d", label, s.Len(), len(model))
	}
	for key, want := range model {
		got, ok, err := s.Get(key)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s: Get(%s) = %q ok=%v err=%v, want %q", label, key, got, ok, err, want)
		}
	}
}

// The three compaction phases driven by hand, with commits and a
// rotation between plan and merge. Install must keep every newer value,
// and its in-memory byte accounting must match what a reopen of the
// same directory computes from disk.
func TestCompactPhasesInterleavedWithWrites(t *testing.T) {
	dir := t.TempDir()
	s, p, model := interleavedCompaction(t, dir)
	merged, err := mergeSegments(s.dir, p)
	if err != nil {
		t.Fatalf("mergeSegments: %v", err)
	}
	if err := s.installCompaction(p, merged); err != nil {
		t.Fatalf("installCompaction: %v", err)
	}
	checkModel(t, "after install", s, model)

	got := s.Stats()
	if got.Segments < 3 {
		t.Fatalf("install dropped the segments that rotated in during the merge: %d segments", got.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, Options{SegmentBytes: 256})
	checkModel(t, "after reopen", r, model)
	want := r.Stats()
	if got.Keys != want.Keys || got.Segments != want.Segments ||
		got.LiveBytes != want.LiveBytes || got.TotalBytes != want.TotalBytes {
		t.Fatalf("install accounting keys=%d segs=%d live=%d total=%d; reopen computes keys=%d segs=%d live=%d total=%d",
			got.Keys, got.Segments, got.LiveBytes, got.TotalBytes, want.Keys, want.Segments, want.LiveBytes, want.TotalBytes)
	}
}

// copyDir snapshots a store directory, as a crash at that moment would
// leave it.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	names, err := filepath.Glob(filepath.Join(src, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(name)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// A compaction that overlaps rotations, stopped at each of its crash
// points. Every directory must reopen to the same keys and bytes,
// including the keys committed to segments sealed during the merge, and
// Open must clear any temp file the crash left behind.
func TestCompactCrashPointsOverlappingRotations(t *testing.T) {
	dir := t.TempDir()
	s, p, model := interleavedCompaction(t, dir)
	final := filepath.Join(dir, segName(p.sealed[len(p.sealed)-1].seq))
	before := copyDir(t, dir)
	merged, err := mergeSegments(s.dir, p)
	if err != nil {
		t.Fatalf("mergeSegments: %v", err)
	}
	indexed := copyDir(t, dir)
	mergedBytes, err := os.ReadFile(final)
	if err != nil {
		t.Fatal(err)
	}

	states := map[string]string{"merge file indexed, nothing removed": indexed}

	tmpWritten := copyDir(t, before)
	if err := os.WriteFile(filepath.Join(tmpWritten, filepath.Base(final)+".tmp"), mergedBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	states["merge .tmp written, not renamed"] = tmpWritten

	renamed := copyDir(t, indexed)
	if err := os.Remove(filepath.Join(renamed, filepath.Base(indexPath(final)))); err != nil {
		t.Fatal(err)
	}
	states["merge file renamed, no index"] = renamed

	// installCompaction removes each retired segment, then its index.
	var removals []string
	for _, seg := range p.sealed {
		if seg.path != final {
			removals = append(removals, filepath.Base(seg.path), filepath.Base(indexPath(seg.path)))
		}
	}
	if len(removals) < 4 {
		t.Fatalf("want at least two retired segments, got removals %v", removals)
	}
	for n := 1; n < len(removals); n++ {
		partial := copyDir(t, indexed)
		for _, name := range removals[:n] {
			if err := os.Remove(filepath.Join(partial, name)); err != nil {
				t.Fatal(err)
			}
		}
		states[fmt.Sprintf("%d of %d removals done", n, len(removals))] = partial
	}

	if err := s.installCompaction(p, merged); err != nil {
		t.Fatalf("installCompaction: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	states["compaction finished"] = dir

	for label, d := range states {
		r, err := Open(d, Options{NoBackground: true})
		if err != nil {
			t.Fatalf("%s: Open: %v", label, err)
		}
		checkModel(t, label, r, model)
		if tmps, _ := filepath.Glob(filepath.Join(d, "*.tmp")); len(tmps) != 0 {
			t.Fatalf("%s: Open left temp files behind: %v", label, tmps)
		}
		// The recovered store compacts again cleanly.
		if err := r.Compact(); err != nil {
			t.Fatalf("%s: Compact after reopen: %v", label, err)
		}
		checkModel(t, label+", compacted again", r, model)
		r.Close()
	}
}

// middleRunCompaction builds a log whose planned run is in its middle:
// a large, live merged segment first, then segments sealed by
// overwrites, which the planner folds without the older one. Between
// plan and merge come the commit path's writes: overwrites of a key in
// the run and of a key in the older segment, a new key, and a rotation.
func middleRunCompaction(t *testing.T, dir string) (*Store, *compactPlan, map[string][]byte) {
	t.Helper()
	s := openTest(t, dir, Options{SegmentBytes: 256})
	model := make(map[string][]byte)
	put := func(key, val string) {
		t.Helper()
		mustPut(t, s, key, []byte(val))
		model[key] = []byte(val)
	}
	for i := 0; i < 40; i++ {
		put(fmt.Sprintf("old-%02d", i), fmt.Sprintf("old-verdict-%02d-padding-padding", i))
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := s.Stats().Segments; got != 2 {
		t.Fatalf("setup left %d segments, want one merged and the active one", got)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 8; i++ {
			put(fmt.Sprintf("key-%02d", i), fmt.Sprintf("round-%d-verdict-%02d-padding-padding", round, i))
		}
	}

	p, err := s.planCompaction()
	if err != nil || p == nil {
		t.Fatalf("planCompaction = %v, %v; want a plan", p, err)
	}
	if p.sealed[0] == s.segs[0] || len(p.sealed) < 2 {
		t.Fatalf("planned run of %d segments starting at seq %d; want a multi-segment run after seq %d",
			len(p.sealed), p.sealed[0].seq, s.segs[0].seq)
	}
	put(p.live[0].key, "written-after-plan")
	put("old-00", "older-segment-overwritten-after-plan")
	put("fresh-key", "first-written-during-merge")
	segs := s.Stats().Segments
	for i := 0; s.Stats().Segments == segs; i++ {
		put(fmt.Sprintf("rotate-%02d", i), "filler-verdict-bytes-padding-padding")
	}
	return s, p, model
}

// segAccounting maps each segment's sequence number to its record and
// live bytes, and checks that the live bytes sum to the store's.
func segAccounting(t *testing.T, s *Store) map[uint64][2]int64 {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	acct := make(map[uint64][2]int64, len(s.segs))
	var live int64
	for _, seg := range s.segs {
		acct[seg.seq] = [2]int64{seg.bytes(), seg.live}
		live += seg.live
	}
	if live != s.liveBytes {
		t.Fatalf("segments hold %d live bytes, store counts %d", live, s.liveBytes)
	}
	return acct
}

// A middle run, stopped at each of its crash points: merge temp file
// written, merged file renamed without its index, indexed, each prefix
// of the removals, and finished. Every directory reopens to the model
// (the older segment replays first, the run's merged file in the run's
// place, the rotated segment last) and compacts again.
func TestCompactCrashPointsMiddleRun(t *testing.T) {
	dir := t.TempDir()
	s, p, model := middleRunCompaction(t, dir)
	final := filepath.Join(dir, segName(p.sealed[len(p.sealed)-1].seq))
	before := copyDir(t, dir)
	merged, err := mergeSegments(s.dir, p)
	if err != nil {
		t.Fatalf("mergeSegments: %v", err)
	}
	indexed := copyDir(t, dir)
	mergedBytes, err := os.ReadFile(final)
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]string{"merge file indexed, nothing removed": indexed}

	tmpWritten := copyDir(t, before)
	if err := os.WriteFile(filepath.Join(tmpWritten, filepath.Base(final)+".tmp"), mergedBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	states["merge .tmp written, not renamed"] = tmpWritten

	renamed := copyDir(t, indexed)
	if err := os.Remove(filepath.Join(renamed, filepath.Base(indexPath(final)))); err != nil {
		t.Fatal(err)
	}
	states["merge file renamed, no index"] = renamed

	var removals []string
	for _, seg := range p.sealed {
		if seg.path != final {
			removals = append(removals, filepath.Base(seg.path), filepath.Base(indexPath(seg.path)))
		}
	}
	for n := 1; n < len(removals); n++ {
		partial := copyDir(t, indexed)
		for _, name := range removals[:n] {
			if err := os.Remove(filepath.Join(partial, name)); err != nil {
				t.Fatal(err)
			}
		}
		states[fmt.Sprintf("%d of %d removals done", n, len(removals))] = partial
	}

	older := s.segs[0]
	if err := s.installCompaction(p, merged); err != nil {
		t.Fatalf("installCompaction: %v", err)
	}
	if s.segs[0] != older || s.segs[1] != merged || len(s.segs) < 4 {
		t.Fatalf("install did not splice the merged segment between the older and the rotated segments")
	}
	checkModel(t, "after install", s, model)
	installed := segAccounting(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	states["compaction finished"] = dir

	for label, d := range states {
		r, err := Open(d, Options{SegmentBytes: 256, NoBackground: true})
		if err != nil {
			t.Fatalf("%s: Open: %v", label, err)
		}
		checkModel(t, label, r, model)
		if d == dir && !maps.Equal(segAccounting(t, r), installed) {
			t.Fatalf("%s: per-segment bytes after reopen %v, after install %v", label, segAccounting(t, r), installed)
		}
		if tmps, _ := filepath.Glob(filepath.Join(d, "*.tmp")); len(tmps) != 0 {
			t.Fatalf("%s: Open left temp files behind: %v", label, tmps)
		}
		// The recovered store compacts again: commit and compact after
		// each seal until the planner finds a run.
		after := maps.Clone(model)
		for i := 0; r.Stats().Compactions == 0; i++ {
			if i == 100 {
				t.Fatalf("%s: no compaction after %d more commits", label, i)
			}
			key, val := fmt.Sprintf("after-reopen-%03d", i), []byte("filler-verdict-bytes-padding-padding")
			putCompacting(t, r, key, val)
			after[key] = val
		}
		checkModel(t, label+", compacted again", r, after)
		r.Close()
	}
}

// A store closed while a merge runs refuses the install without losing
// anything: the directory is then at the rename crash point.
func TestCompactInstallAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, p, model := interleavedCompaction(t, dir)
	merged, err := mergeSegments(s.dir, p)
	if err != nil {
		t.Fatalf("mergeSegments: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.installCompaction(p, merged); err == nil {
		t.Fatal("installCompaction on a closed store succeeded")
	}
	if err := s.Compact(); err == nil {
		t.Fatal("Compact on a closed store succeeded")
	}
	r := openTest(t, dir, Options{})
	checkModel(t, "reopened", r, model)
}

// Compaction with the lock released, under contention: writers
// overwriting their own keys and reading each one back, with the
// background compactor and a loop of explicit Compact calls merging
// underneath them. Run it under -race.
func TestCompactConcurrentWithPutGet(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	const writers, keysPer, rounds = 4, 8, 12
	val := func(w, k, round int) []byte {
		return []byte(fmt.Sprintf("w%d-k%d-round-%02d-verdict-padding", w, k, round))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for k := 0; k < keysPer; k++ {
					key := fmt.Sprintf("w%d-k%d", w, k)
					if err := s.Put(key, val(w, k, round)); err != nil {
						t.Errorf("Put(%s): %v", key, err)
						return
					}
					// Only this writer touches key, so it must read back
					// exactly what it just wrote, wherever compaction
					// has moved it.
					got, ok, err := s.Get(key)
					if err != nil || !ok || !bytes.Equal(got, val(w, k, round)) {
						t.Errorf("Get(%s) = %q ok=%v err=%v", key, got, ok, err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	compacted := make(chan struct{})
	go func() {
		defer close(compacted)
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	<-compacted

	model := make(map[string][]byte)
	for w := 0; w < writers; w++ {
		for k := 0; k < keysPer; k++ {
			model[fmt.Sprintf("w%d-k%d", w, k)] = val(w, k, rounds-1)
		}
	}
	checkModel(t, "after contention", s, model)
	st := s.Stats()
	if st.Compactions == 0 || st.CompactBytes == 0 || st.CompactNanos == 0 {
		t.Fatalf("compaction counters not bumped: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, Options{})
	checkModel(t, "reopened", r, model)
	// TotalBytes may differ: Close can land mid-merge, leaving the merged
	// file beside the segments it folds until the next compaction.
	if got := r.Stats(); got.LiveBytes != st.LiveBytes {
		t.Fatalf("live bytes %d in memory, %d after reopen", st.LiveBytes, got.LiveBytes)
	}
}

// putCompacting commits key=val and, if the commit sealed the active
// segment, compacts explicitly, as the background loop would. It
// reports whether the commit sealed a segment.
func putCompacting(t *testing.T, s *Store, key string, val []byte) bool {
	t.Helper()
	s.mu.RLock()
	active := s.segs[len(s.segs)-1]
	s.mu.RUnlock()
	mustPut(t, s, key, val)
	s.mu.RLock()
	sealed := s.segs[len(s.segs)-1] != active
	s.mu.RUnlock()
	if sealed {
		if err := s.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
	}
	return sealed
}

// An append-only log, compacted after every seal, rewrites each byte at
// most about once per doubling of the log and keeps at most one segment
// per tier. With these parameters (1 KiB segments, 122-byte records,
// 256 seals), folding every sealed segment on each seal, as compaction
// did before it was tiered, ends at CompactBytes/PutBytes = 128.5 with
// 2 segments, against the bound of 2*log2(256) = 16 here. The tiered
// planner ends at 4.5 with 2 segments.
func TestCompactAppendOnlyWriteAmplification(t *testing.T) {
	const segBytes, wantSeals = 1024, 256
	s := openTest(t, t.TempDir(), Options{SegmentBytes: segBytes})
	val := bytes.Repeat([]byte("v"), 100)
	seals := 0
	for i := 0; seals < wantSeals; i++ {
		if !putCompacting(t, s, fmt.Sprintf("key-%06d", i), val) {
			continue
		}
		seals++
		st := s.Stats()
		if limit := math.Log2(float64(seals)) + 2; float64(st.Segments) > limit {
			t.Fatalf("after %d seals: %d segments, want at most log2(seals)+2 = %.1f", seals, st.Segments, limit)
		}
		amp := float64(st.CompactBytes) / float64(st.PutBytes)
		if limit := 2 * math.Log2(float64(seals)); amp > limit {
			t.Fatalf("after %d seals: write amplification %.2f, want at most 2*log2(seals) = %.1f", seals, amp, limit)
		}
	}
	st := s.Stats()
	if st.TotalBytes != st.LiveBytes {
		t.Fatalf("append-only log holds %d dead bytes", st.TotalBytes-st.LiveBytes)
	}
	t.Logf("%d seals: write amplification %.2f, %d segments, %d compactions",
		seals, float64(st.CompactBytes)/float64(st.PutBytes), st.Segments, st.Compactions)
}

// Overwrites kill bytes all over the log: round-robin kills the oldest
// first, so a large live segment can sit between the newest and a dead
// one; random and skewed overwrites spread the damage. After every
// compaction the log stays within twice its live bytes plus two
// segments.
func TestCompactOverwriteHeavyReclaimsDeadBytes(t *testing.T) {
	const segBytes = 1024
	pick := map[string]func(rng *rand.Rand, i, keys int) int{
		"round-robin": func(_ *rand.Rand, i, keys int) int { return i % keys },
		"uniform":     func(rng *rand.Rand, _, keys int) int { return rng.Intn(keys) },
		"skewed": func(rng *rand.Rand, _, keys int) int {
			if rng.Intn(10) < 8 {
				return rng.Intn(keys / 10)
			}
			return rng.Intn(keys)
		},
	}
	for name, next := range pick {
		for _, keys := range []int{20, 100, 400} {
			t.Run(fmt.Sprintf("%s-%d-keys", name, keys), func(t *testing.T) {
				s := openTest(t, t.TempDir(), Options{SegmentBytes: segBytes})
				rng := rand.New(rand.NewSource(int64(keys)))
				model := make(map[string][]byte)
				for i, seals := 0, 0; seals < 200; i++ {
					key := fmt.Sprintf("key-%06d", next(rng, i, keys))
					val := []byte(fmt.Sprintf("%s-%d-%s", key, i, bytes.Repeat([]byte("v"), 100+rng.Intn(50))))
					model[key] = val
					if !putCompacting(t, s, key, val) {
						continue
					}
					seals++
					st := s.Stats()
					if st.TotalBytes > 2*st.LiveBytes+2*segBytes {
						t.Fatalf("after %d seals: %d total bytes, %d live; want total <= 2*live + 2*%d",
							seals, st.TotalBytes, st.LiveBytes, segBytes)
					}
				}
				checkModel(t, "after overwrites", s, model)
			})
		}
	}
}
