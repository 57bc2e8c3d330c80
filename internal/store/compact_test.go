package store

import (
	"bytes"
	"fmt"
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
