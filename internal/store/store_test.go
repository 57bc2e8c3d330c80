package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	opts.NoBackground = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, key string, val []byte) {
	t.Helper()
	if err := s.Put(key, val); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func mustGet(t *testing.T, s *Store, key string) []byte {
	t.Helper()
	val, ok, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	if !ok {
		t.Fatalf("Get(%s): missing", key)
	}
	return val
}

func TestPutGetRoundtrip(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	verdict := []byte(`{"specimen":"kasidet","category":"deactivated"}`)
	mustPut(t, s, "cat:kasidet|baremetal-sandbox|1", verdict)
	got := mustGet(t, s, "cat:kasidet|baremetal-sandbox|1")
	if !bytes.Equal(got, verdict) {
		t.Fatalf("roundtrip mismatch: %s vs %s", got, verdict)
	}
	if _, ok, err := s.Get("absent"); err != nil || ok {
		t.Fatalf("Get(absent) = ok=%v err=%v, want miss", ok, err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	// The caller owns the returned slice: mutating it must not corrupt
	// later reads.
	got[0] = 'X'
	if again := mustGet(t, s, "cat:kasidet|baremetal-sandbox|1"); !bytes.Equal(again, verdict) {
		t.Fatalf("returned slice aliases the store: %s", again)
	}
}

func TestOverwriteLastWins(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	mustPut(t, s, "k", []byte("v1"))
	mustPut(t, s, "k", []byte("v2"))
	if got := mustGet(t, s, "k"); string(got) != "v2" {
		t.Fatalf("Get after overwrite = %q, want v2", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after overwrite, want 1", s.Len())
	}
	st := s.Stats()
	if st.LiveBytes >= st.TotalBytes {
		t.Fatalf("overwrite left no dead bytes: live %d, total %d", st.LiveBytes, st.TotalBytes)
	}
}

// Reopen rebuilds the keydir from disk: every committed verdict is
// byte-identical after a restart, with zero truncation on a clean close.
func TestReopenServesCommittedVerdicts(t *testing.T) {
	dir := t.TempDir()
	want := make(map[string][]byte)
	s := openTest(t, dir, Options{SegmentBytes: 256}) // force several rotations
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("cat:mg%04d|cuckoo-vbox|%d", i, i%3)
		val := []byte(fmt.Sprintf(`{"specimen":"mg%04d","category":"deactivated","seed":%d}`, i, i%3))
		mustPut(t, s, key, val)
		want[key] = val
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openTest(t, dir, Options{SegmentBytes: 256})
	st := r.Stats()
	if st.RecoveredKeys != len(want) {
		t.Fatalf("recovered %d keys, want %d", st.RecoveredKeys, len(want))
	}
	if st.TruncatedBytes != 0 {
		t.Fatalf("clean reopen truncated %d bytes", st.TruncatedBytes)
	}
	for key, val := range want {
		if got := mustGet(t, r, key); !bytes.Equal(got, val) {
			t.Fatalf("reopened %s = %s, want %s", key, got, val)
		}
	}
}

// Rotation seals segments with a sidecar index; reopen must use them
// (and survive one being deleted by falling back to a scan).
func TestSealedSegmentsCarryIndexes(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 30; i++ {
		mustPut(t, s, fmt.Sprintf("key-%02d", i), []byte("verdict-bytes-with-some-heft"))
	}
	if got := s.Stats().Segments; got < 3 {
		t.Fatalf("expected several segments, got %d", got)
	}
	s.Close()

	idx, err := filepath.Glob(filepath.Join(dir, "*.idx"))
	if err != nil || len(idx) == 0 {
		t.Fatalf("no sidecar indexes written (err %v)", err)
	}
	// Remove one index: reopen must still recover everything via scan.
	if err := os.Remove(idx[0]); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, Options{SegmentBytes: 128})
	if r.Len() != 30 {
		t.Fatalf("reopen without one index recovered %d keys, want 30", r.Len())
	}
	for i := 0; i < 30; i++ {
		mustGet(t, r, fmt.Sprintf("key-%02d", i))
	}
}

// A stale index (left by a crash between segment replacement and index
// rewrite) must be rejected by the size check, not believed.
func TestStaleIndexIgnored(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 20; i++ {
		mustPut(t, s, fmt.Sprintf("key-%02d", i), []byte("verdict-bytes-with-some-heft"))
	}
	s.Close()
	idx, _ := filepath.Glob(filepath.Join(dir, "*.idx"))
	if len(idx) == 0 {
		t.Fatal("no indexes written")
	}
	// Grow the indexed segment: the index's recorded size no longer
	// matches, so it must be ignored in favour of a scan.
	seg := idx[0][:len(idx[0])-len(".idx")] + segSuffix
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	extra := appendRecord(nil, "key-00", []byte("newer-value"))
	if _, err := f.Write(extra); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openTest(t, dir, Options{SegmentBytes: 1 << 20})
	if got := mustGet(t, r, "key-00"); string(got) != "newer-value" {
		t.Fatalf("stale index shadowed the appended record: got %q", got)
	}
}

func TestCompactionDropsDeadRecordsAndPreservesReads(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 128})
	// Overwrite a small key set many times so sealed segments are mostly
	// dead records.
	for round := 0; round < 10; round++ {
		for i := 0; i < 5; i++ {
			mustPut(t, s, fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("round-%02d-value-%d-padpadpad", round, i)))
		}
	}
	before := s.Stats()
	if before.Segments < 3 {
		t.Fatalf("want several segments before compaction, got %d", before.Segments)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.Stats()
	if after.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", after.Compactions)
	}
	if after.Segments != 2 { // merged + active
		t.Fatalf("segments after compaction = %d, want 2", after.Segments)
	}
	if after.TotalBytes >= before.TotalBytes {
		t.Fatalf("compaction reclaimed nothing: %d -> %d bytes", before.TotalBytes, after.TotalBytes)
	}
	for i := 0; i < 5; i++ {
		if got := mustGet(t, s, fmt.Sprintf("key-%d", i)); string(got) != fmt.Sprintf("round-09-value-%d-padpadpad", i) {
			t.Fatalf("post-compaction read wrong: %s", got)
		}
	}
	// And the compacted layout must survive a reopen.
	s.Close()
	r := openTest(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 5; i++ {
		if got := mustGet(t, r, fmt.Sprintf("key-%d", i)); string(got) != fmt.Sprintf("round-09-value-%d-padpadpad", i) {
			t.Fatalf("post-compaction reopen read wrong: %s", got)
		}
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{SegmentBytes: 512})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if err := s.Put(key, []byte(key+"-value")); err != nil {
					t.Errorf("Put(%s): %v", key, err)
					return
				}
				val, ok, err := s.Get(key)
				if err != nil || !ok || string(val) != key+"-value" {
					t.Errorf("Get(%s) = %q ok=%v err=%v", key, val, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 8*50 {
		t.Fatalf("Len = %d, want %d", s.Len(), 8*50)
	}
}

// The background compactor is exercised separately from the deterministic
// tests: rotations signal it, the store stays readable throughout, and
// whatever it merged reopens to exactly the committed keys and bytes.
func TestBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string][]byte)
	for i := 0; i < 100; i++ {
		key, val := fmt.Sprintf("key-%d", i%7), []byte(fmt.Sprintf("a-verdict-sized-value-%03d-padding", i))
		mustPut(t, s, key, val)
		model[key] = val
	}
	var live int64
	for key, val := range model {
		if got := mustGet(t, s, key); !bytes.Equal(got, val) {
			t.Fatalf("Get(%s) = %q, want %q", key, got, val)
		}
		live += recordLen(len(key), len(val))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, Options{SegmentBytes: 128})
	checkModel(t, "reopened", r, model)
	if st := r.Stats(); st.Keys != len(model) || st.LiveBytes != live {
		t.Fatalf("reopened with %d keys, %d live bytes; want %d, %d", st.Keys, st.LiveBytes, len(model), live)
	}
}

func TestPutValidation(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	if err := s.Put("", []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.Put(string(make([]byte, maxKeyLen+1)), []byte("v")); err == nil {
		t.Fatal("oversized key accepted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err == nil {
		t.Fatal("Put on closed store accepted")
	}
	if _, _, err := s.Get("k"); err != nil {
		// Get on a closed store may fail at the file layer; it must not
		// panic. Either a miss or an error is acceptable.
		t.Logf("Get after close: %v", err)
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("not a wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoBackground: true}); err == nil {
		t.Fatal("foreign segment file accepted")
	}
}

// The small accessors: Dir echoes the root, Has answers without reading
// the value, Sync flushes (and is callable on a store opened without
// Fsync).
func TestAccessorsAndSync(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{NoBackground: true})
	if s.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", s.Dir(), dir)
	}
	if s.Has("k") {
		t.Fatal("Has on an empty store")
	}
	mustPut(t, s, "k", []byte("v"))
	if !s.Has("k") {
		t.Fatal("Has misses a committed key")
	}
	if s.Has("other") {
		t.Fatal("Has reports a never-written key")
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	// Fsync mode exercises the per-put sync path end to end.
	fdir := t.TempDir()
	fs := openTest(t, fdir, Options{NoBackground: true, Fsync: true})
	mustPut(t, fs, "fk", []byte("fv"))
	if got := mustGet(t, fs, "fk"); string(got) != "fv" {
		t.Fatalf("fsync store Get = %q", got)
	}
}

// PutBatch is the group-commit path: every record in the batch must be
// committed (and survive a reopen) after one call.
func TestPutBatchCommitsAllRecords(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	recs := make([]Record, 16)
	for i := range recs {
		recs[i] = Record{
			Key: fmt.Sprintf("cat:batch-%02d|baremetal-sandbox|1", i),
			Val: []byte(fmt.Sprintf(`{"specimen":"batch-%02d"}`, i)),
		}
	}
	if err := s.PutBatch(recs); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if err := s.PutBatch(nil); err != nil {
		t.Fatalf("PutBatch(nil): %v", err)
	}
	for _, r := range recs {
		if got := mustGet(t, s, r.Key); !bytes.Equal(got, r.Val) {
			t.Fatalf("Get(%s) = %q, want %q", r.Key, got, r.Val)
		}
	}
	if got := s.Stats().Puts; got != uint64(len(recs)) {
		t.Fatalf("Puts = %d, want %d", got, len(recs))
	}
	s.Close()

	r := openTest(t, dir, Options{})
	for _, rec := range recs {
		if got := mustGet(t, r, rec.Key); !bytes.Equal(got, rec.Val) {
			t.Fatalf("after reopen, Get(%s) = %q, want %q", rec.Key, got, rec.Val)
		}
	}
}

// A batch rejected by validation must commit nothing: all-or-nothing at
// the validation boundary.
func TestPutBatchValidatesBeforeWriting(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	err := s.PutBatch([]Record{
		{Key: "good", Val: []byte("v")},
		{Key: "", Val: []byte("bad")},
	})
	if err == nil {
		t.Fatal("PutBatch with empty key succeeded")
	}
	if s.Has("good") {
		t.Fatal("invalid batch committed its valid prefix")
	}
}

// A crash mid-batch tears the tail of the group-committed write; recovery
// must keep exactly the fully framed prefix of the batch, the same
// guarantee individual Puts give.
func TestPutBatchTornTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	mustPut(t, s, "before", []byte("committed"))
	if err := s.PutBatch([]Record{
		{Key: "b0", Val: []byte("first")},
		{Key: "b1", Val: []byte("second")},
		{Key: "b2", Val: []byte("third")},
	}); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	s.Close()

	// Tear the last record's trailer off, as a crash mid-write(2) would.
	segPath := filepath.Join(dir, segName(1))
	st, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath, st.Size()-2); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, Options{})
	for key, want := range map[string]string{"before": "committed", "b0": "first", "b1": "second"} {
		if got := mustGet(t, r, key); string(got) != want {
			t.Fatalf("Get(%s) = %q, want %q", key, got, want)
		}
	}
	if r.Has("b2") {
		t.Fatal("torn final record of the batch survived recovery")
	}
	if r.Stats().TruncatedBytes == 0 {
		t.Fatal("recovery reported no truncated bytes for a torn tail")
	}
}

// A batch that pushes the active segment past its size budget must still
// rotate, exactly like the equivalent sequence of Puts.
func TestPutBatchRotates(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{SegmentBytes: 64})
	recs := make([]Record, 8)
	for i := range recs {
		recs[i] = Record{Key: fmt.Sprintf("rot-%d", i), Val: bytes.Repeat([]byte("x"), 32)}
	}
	if err := s.PutBatch(recs); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if segs := s.Stats().Segments; segs < 2 {
		t.Fatalf("Segments = %d after oversized batch, want rotation", segs)
	}
	for _, r := range recs {
		if got := mustGet(t, s, r.Key); !bytes.Equal(got, r.Val) {
			t.Fatalf("Get(%s) lost after rotation", r.Key)
		}
	}
}
