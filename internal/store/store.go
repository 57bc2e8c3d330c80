package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Options tunes a Store. The zero value is ready for production use.
type Options struct {
	// SegmentBytes rotates the active segment once it grows past this
	// size (default 4 MiB). Smaller segments mean more frequent sealing
	// and compaction; tests use tiny values to exercise rotation.
	SegmentBytes int64
	// Fsync forces an fsync after every append. Off by default: the
	// store's durability promise is "survives SIGKILL of the process",
	// which plain write(2) already gives; Fsync extends it to machine
	// crashes at a large throughput cost.
	Fsync bool
	// NoBackground disables the compaction goroutine; Compact must then
	// be called explicitly. Tests use this for determinism. Which sealed
	// segments a compaction merges is not tunable: the planner decides
	// from their sizes and live bytes (see Compact).
	NoBackground bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Stats is a point-in-time snapshot of the store's state and counters.
type Stats struct {
	Keys       int   `json:"keys"`
	Segments   int   `json:"segments"`
	TotalBytes int64 `json:"total_bytes"`
	LiveBytes  int64 `json:"live_bytes"`

	Puts uint64 `json:"puts"`
	// PutBytes is the framed bytes commits appended to the log.
	// CompactBytes / PutBytes is the store's write amplification.
	PutBytes    uint64 `json:"put_bytes"`
	Gets        uint64 `json:"gets"`
	Hits        uint64 `json:"hits"`
	Compactions uint64 `json:"compactions"`
	// CompactNanos is the wall time spent compacting, from plan to
	// install, summed over compactions; CompactBytes is the live bytes
	// they rewrote. Commits wait only for the plan and install steps.
	CompactNanos uint64 `json:"compact_nanos"`
	CompactBytes uint64 `json:"compact_bytes"`
	// RecoveredKeys counts keys rebuilt from disk at Open — the warm
	// inventory a restarted daemon starts with.
	RecoveredKeys int `json:"recovered_keys"`
	// TruncatedBytes is how much torn tail Open cut off the newest
	// segment (0 after a clean shutdown).
	TruncatedBytes int64 `json:"truncated_bytes"`
}

// recLoc addresses one committed record.
type recLoc struct {
	seg  *segment
	off  int64 // offset of the record frame within the segment file
	size int64 // full framed length
}

// segment is one log file. Sealed segments are immutable; only the
// newest segment accepts appends.
type segment struct {
	seq  uint64
	path string
	f    *os.File
	size int64
	// live is the framed bytes of this segment's records that the keydir
	// still points at; the rest of the segment is dead. applyLocked
	// maintains it under the store's write lock, so replay at Open
	// rebuilds it too.
	live int64
	// lastFor maps each key to its newest record in this segment; it is
	// what the sidecar index persists at seal time. Only maintained for
	// the active segment and for freshly written compacted segments.
	lastFor map[string]recLoc
}

// Store is the durable verdict store. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	compactc chan struct{}
	stopc    chan struct{}
	bg       sync.WaitGroup

	// Advisory counters, atomic so Get can bump them under the read
	// lock without a writer lock round-trip.
	puts, putBytes, gets, hits atomic.Uint64
	// Compaction counters, bumped once per compaction, never on the
	// Put/Get path.
	compactions, compactNanos, compactBytes atomic.Uint64

	// compactMu serialises compactions, background and explicit: two
	// merges of the same sealed set would race on one temp file.
	compactMu sync.Mutex

	mu     sync.RWMutex
	segs   []*segment // ascending seq; last is active
	keydir map[string]recLoc
	closed bool
	// buf is the append-path frame scratch, reused across Put/PutBatch
	// calls (safe: writers hold mu exclusively). one is Put's single-record
	// batch, so the single-record path allocates nothing either.
	buf []byte
	one [1]Record

	totalBytes, liveBytes int64
	recoveredKeys         int
	truncatedBytes        int64
}

// Open loads (or creates) a store rooted at dir, replaying every segment
// to rebuild the key directory. A torn tail in the newest segment is
// truncated back to its last fully-committed record; corruption anywhere
// else is an error, because sealed segments are only ever written
// whole-and-synced.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		compactc: make(chan struct{}, 1),
		stopc:    make(chan struct{}),
		keydir:   make(map[string]recLoc),
	}
	if err := s.load(); err != nil {
		s.closeFiles()
		return nil, err
	}
	if !opts.NoBackground {
		s.bg.Add(1)
		go s.compactLoop()
	}
	return s, nil
}

// load discovers and replays the segment files.
func (s *Store) load() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*"+segSuffix))
	if err != nil {
		return fmt.Errorf("store: listing segments: %w", err)
	}
	sort.Strings(names)
	// A crash mid-compaction or mid-seal can leave a merge or index temp
	// file behind; neither was ever part of the log.
	tmps, _ := filepath.Glob(filepath.Join(s.dir, "seg-*.tmp"))
	for _, tmp := range tmps {
		_ = os.Remove(tmp)
	}
	for i, name := range names {
		seq, err := segSeq(name)
		if err != nil {
			return err
		}
		seg, err := openSegment(name, seq)
		if err != nil {
			return err
		}
		s.segs = append(s.segs, seg)
		active := i == len(names)-1
		if err := s.replaySegment(seg, active); err != nil {
			return err
		}
	}
	s.recoveredKeys = len(s.keydir)
	if len(s.segs) == 0 {
		if _, err := s.addSegmentLocked(1); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment rebuilds keydir entries from one segment, via its
// sidecar index when present (sealed segments only) or a full scan. For
// the active segment a decode failure marks the torn tail and the file
// is truncated there; a sealed segment never has one — it was synced
// whole before the next segment existed — so corruption there is fatal.
func (s *Store) replaySegment(seg *segment, active bool) error {
	var entries []scanEntry
	fromIndex := false
	if !active {
		entries, fromIndex = loadIndex(seg)
	}
	if !fromIndex {
		var goodEnd int64
		var scanErr error
		entries, goodEnd, scanErr = scanSegment(seg)
		if scanErr != nil {
			if !active {
				return fmt.Errorf("store: sealed segment %s is corrupt: %w", filepath.Base(seg.path), scanErr)
			}
			// Torn tail on the active segment: cut it off. Everything
			// before goodEnd was fully framed, so the store recovers
			// exactly the committed prefix.
			s.truncatedBytes += seg.size - goodEnd
			if err := seg.f.Truncate(goodEnd); err != nil {
				return fmt.Errorf("store: truncating torn tail of %s: %w", filepath.Base(seg.path), err)
			}
			seg.size = goodEnd
		}
	}
	for _, e := range entries {
		s.applyLocked(e.key, recLoc{seg: seg, off: e.off, size: e.size})
	}
	s.totalBytes += seg.bytes()
	if active {
		seg.lastFor = make(map[string]recLoc, len(entries))
		for _, e := range entries {
			seg.lastFor[e.key] = recLoc{seg: seg, off: e.off, size: e.size}
		}
	}
	return nil
}

// applyLocked records key → loc in the keydir, maintaining the
// store's and each segment's live-bytes accounting for overwrites.
func (s *Store) applyLocked(key string, loc recLoc) {
	if old, ok := s.keydir[key]; ok {
		s.liveBytes -= old.size
		old.seg.live -= old.size
	}
	s.keydir[key] = loc
	s.liveBytes += loc.size
	loc.seg.live += loc.size
}

// Record is one key/value pair for PutBatch.
type Record struct {
	Key string
	Val []byte
}

// validateRecord rejects keys and values the framing cannot represent.
func validateRecord(key string, val []byte) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	if len(key) > maxKeyLen || len(val) > maxValLen {
		return fmt.Errorf("store: record too large (key %d, val %d bytes)", len(key), len(val))
	}
	return nil
}

// Put appends the (key, val) record to the active segment. The record is
// committed — it survives a process kill — once Put returns. The
// checkpoint namespace is reserved: use PutCheckpoint for those.
func (s *Store) Put(key string, val []byte) error {
	if IsCheckpointKey(key) {
		return fmt.Errorf("store: key %q is in the reserved checkpoint namespace (use PutCheckpoint)", key)
	}
	if err := validateRecord(key, val); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.one[0] = Record{Key: key, Val: val}
	err := s.putBatchLocked(s.one[:])
	s.one[0] = Record{} // drop the value reference
	return err
}

// PutBatch appends every record in one group commit: one lock
// acquisition, one frame buffer, one write(2), and (in Fsync mode) one
// fsync for the whole batch. All records are committed once PutBatch
// returns; none are committed if validation fails up front. Torn-tail
// recovery is unaffected — the batch is framed as ordinary consecutive
// records, so a crash mid-write replays the committed prefix of the
// batch, exactly as with individual Puts.
func (s *Store) PutBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	for _, r := range recs {
		if IsCheckpointKey(r.Key) {
			return fmt.Errorf("store: key %q is in the reserved checkpoint namespace (use PutCheckpoint)", r.Key)
		}
		if err := validateRecord(r.Key, r.Val); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putBatchLocked(recs)
}

// putBatchLocked frames and writes a validated batch. The caller holds
// s.mu exclusively.
func (s *Store) putBatchLocked(recs []Record) error {
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	s.puts.Add(uint64(len(recs)))
	seg := s.segs[len(s.segs)-1]
	buf := s.buf[:0]
	for _, r := range recs {
		buf = appendRecordTo(buf, r.Key, r.Val)
	}
	s.buf = buf
	s.putBytes.Add(uint64(len(buf)))
	if _, err := seg.f.WriteAt(buf, seg.size); err != nil {
		return fmt.Errorf("store: appending to %s: %w", filepath.Base(seg.path), err)
	}
	if s.opts.Fsync {
		if err := seg.f.Sync(); err != nil {
			return fmt.Errorf("store: fsync %s: %w", filepath.Base(seg.path), err)
		}
	}
	if seg.lastFor == nil {
		seg.lastFor = make(map[string]recLoc)
	}
	off := seg.size
	for _, r := range recs {
		loc := recLoc{seg: seg, off: off, size: recordLen(len(r.Key), len(r.Val))}
		off += loc.size
		s.applyLocked(r.Key, loc)
		seg.lastFor[r.Key] = loc
	}
	s.totalBytes += off - seg.size
	seg.size = off

	if seg.size >= s.opts.SegmentBytes+int64(len(segmentMagic)) {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// rotateLocked seals the active segment (sync + sidecar index) and opens
// the next one, then pokes the compaction goroutine.
func (s *Store) rotateLocked() error {
	active := s.segs[len(s.segs)-1]
	if err := active.f.Sync(); err != nil {
		return fmt.Errorf("store: sealing %s: %w", filepath.Base(active.path), err)
	}
	if err := writeIndex(active); err != nil {
		return err
	}
	active.lastFor = nil // sealed: the sidecar owns this now
	if _, err := s.addSegmentLocked(active.seq + 1); err != nil {
		return err
	}
	select {
	case s.compactc <- struct{}{}:
	default:
	}
	return nil
}

// addSegmentLocked creates and appends a fresh active segment.
func (s *Store) addSegmentLocked(seq uint64) (*segment, error) {
	seg, err := createSegment(s.dir, seq)
	if err != nil {
		return nil, err
	}
	s.segs = append(s.segs, seg)
	return seg, nil
}

// Get returns the newest committed value for key. The returned slice is
// freshly read from disk and owned by the caller.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.gets.Add(1)
	loc, ok := s.keydir[key]
	if !ok {
		return nil, false, nil
	}
	// A fresh frame per hit: the value handed back aliases it, so the
	// caller owns it at the cost of one allocation.
	val, err := readRecord(loc, key, make([]byte, loc.size))
	if err != nil {
		return nil, false, err
	}
	s.hits.Add(1)
	return val, true, nil
}

// Has reports whether key has a committed value.
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.keydir[key]
	return ok
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.keydir)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Keys:           len(s.keydir),
		Segments:       len(s.segs),
		TotalBytes:     s.totalBytes,
		LiveBytes:      s.liveBytes,
		Puts:           s.puts.Load(),
		PutBytes:       s.putBytes.Load(),
		Gets:           s.gets.Load(),
		Hits:           s.hits.Load(),
		Compactions:    s.compactions.Load(),
		CompactNanos:   s.compactNanos.Load(),
		CompactBytes:   s.compactBytes.Load(),
		RecoveredKeys:  s.recoveredKeys,
		TruncatedBytes: s.truncatedBytes,
	}
}

// Sync forces the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	return s.segs[len(s.segs)-1].f.Sync()
}

// compactLoop runs one compaction per rotation signal; the planner
// decides whether the newly sealed segment gives it anything to merge.
func (s *Store) compactLoop() {
	defer s.bg.Done()
	for {
		select {
		case <-s.stopc:
			return
		case <-s.compactc:
			// Errors here are advisory: the log stays correct without
			// compaction, just larger; the next rotation retries.
			_ = s.Compact()
		}
	}
}

// Compact merges one run of sealed segments into a single deduplicated
// segment with a sidecar index, then removes the originals. The run is
// size-tiered (see planRun): a byte is rewritten at most about once per
// doubling of the log, not once per seal, and a segment is rewritten
// early once half of it is dead. Compact runs in three
// phases so that commits and Gets wait only for the short first and
// last ones:
//
//   - plan, under the read lock: pick the run and snapshot the keydir
//     entries that point into it;
//   - merge, with no store lock: copy those records into the merged
//     segment (mergeSegments);
//   - install, under the write lock: swap the keydir entries that still
//     point into the run and splice the merged segment in its place,
//     keeping the older segments and any that rotated in during the
//     merge.
//
// Replay equivalence holds at every crash point: the merged segment
// takes the run's highest sequence number, so a crash between the
// rename and the removals replays older-then-run-then-merged-then-newer
// with last-write-wins yielding the same keydir. A run in the middle of
// the log replays correctly because the store has no tombstones: a key
// the run does not hold keeps whatever older segments say until a newer
// segment overrides it, exactly as before the merge.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	start := time.Now()
	p, err := s.planCompaction()
	if p == nil {
		return err
	}
	merged, err := mergeSegments(s.dir, p)
	if err != nil {
		return err
	}
	if err := s.installCompaction(p, merged); err != nil {
		return err
	}
	s.compactions.Add(1)
	s.compactNanos.Add(uint64(time.Since(start)))
	s.compactBytes.Add(uint64(merged.bytes()))
	return nil
}

// compactPlan is one compaction's snapshot of the store.
type compactPlan struct {
	// sealed is the run being merged: contiguous sealed segments in
	// ascending sequence. Only compaction removes segments and compactMu
	// serialises it, so the run is still in place, and still contiguous,
	// at install.
	sealed []*segment
	// live is every keydir entry pointing into sealed, in key order.
	live []liveRecord
}

type liveRecord struct {
	key string
	loc recLoc
}

// inSealed reports whether seg is in the planned run. The run is a
// contiguous slice of segments in ascending sequence, and the merged
// segment is not in the keydir before install, so a sequence range
// suffices.
func (p *compactPlan) inSealed(seg *segment) bool {
	return seg.seq >= p.sealed[0].seq && seg.seq <= p.sealed[len(p.sealed)-1].seq
}

// bytes is the segment's record bytes, header excluded.
func (seg *segment) bytes() int64 { return seg.size - int64(len(segmentMagic)) }

// halfDead reports whether at least half of seg's bytes are dead. An
// empty segment is not: rewriting it reclaims nothing.
func (seg *segment) halfDead() bool { return seg.bytes() > 0 && 2*seg.live <= seg.bytes() }

// planRun picks the run to merge from the sealed segments (oldest
// first) and returns the indexes of its oldest and newest segments, or
// -1, -1 for none. Walking back from the newest sealed segment, a run
// takes an older segment only if it is no larger than the run so far or
// at least half dead. Equal tiers thus fold like a binary counter, so
// on an append-only log each byte is rewritten at most about
// log2(seals) times, and a large merged segment is rewritten only when
// the run has grown to its size or it is half garbage. A lone segment
// that is mostly live is not worth rewriting: the walk steps past it
// and starts the next run behind it, so a half-dead segment is
// reclaimed even when a large live one sits between it and the newest.
func planRun(sealed []*segment) (first, last int) {
	for last = len(sealed) - 1; last >= 0; last = first - 1 {
		run := sealed[last].bytes()
		for first = last; first > 0; first-- {
			older := sealed[first-1]
			if older.bytes() > run && !older.halfDead() {
				break
			}
			run += older.bytes()
		}
		if first < last || sealed[last].halfDead() {
			return first, last
		}
	}
	return -1, -1
}

// planCompaction is the plan phase. It returns a nil plan when planRun
// finds nothing worth merging.
func (s *Store) planCompaction() (*compactPlan, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, fmt.Errorf("store: closed")
	}
	first, last := planRun(s.segs[:len(s.segs)-1])
	if first < 0 {
		s.mu.RUnlock()
		return nil, nil
	}
	p := &compactPlan{sealed: append([]*segment(nil), s.segs[first:last+1]...)}
	for key, loc := range s.keydir {
		if p.inSealed(loc.seg) {
			p.live = append(p.live, liveRecord{key: key, loc: loc})
		}
	}
	s.mu.RUnlock()
	sort.Slice(p.live, func(i, j int) bool { return p.live[i].key < p.live[j].key })
	return p, nil
}

// installCompaction is the install phase. If the store closed during the
// merge it only closes the merged file: on disk that is the crash point
// between rename and removals, which reopens to the same keydir.
func (s *Store) installCompaction(p *compactPlan, merged *segment) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = merged.f.Close()
		return fmt.Errorf("store: closed during compaction")
	}
	// Keys overwritten in a newer segment meanwhile keep their entry.
	for key, loc := range merged.lastFor {
		if cur, ok := s.keydir[key]; ok && p.inSealed(cur.seg) {
			s.applyLocked(key, loc)
		}
	}
	merged.lastFor = nil
	var reclaimed int64
	for _, seg := range p.sealed {
		reclaimed += seg.bytes()
	}
	i := 0
	for s.segs[i] != p.sealed[0] {
		i++
	}
	segs := make([]*segment, 0, len(s.segs)-len(p.sealed)+1)
	segs = append(append(segs, s.segs[:i]...), merged)
	s.segs = append(segs, s.segs[i+len(p.sealed):]...)
	s.totalBytes += merged.bytes() - reclaimed
	s.mu.Unlock()

	// No reader can reach the old segments any more: Gets that started
	// before the swap finished under the read lock the swap waited for.
	for _, seg := range p.sealed {
		_ = seg.f.Close()
		if seg.path == merged.path {
			// The merged file was renamed over this one; the old bytes
			// are already gone and the new index is already in place.
			continue
		}
		_ = os.Remove(seg.path)
		_ = os.Remove(indexPath(seg.path))
	}
	return nil
}

// Close stops background work and closes every segment file. The store
// is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopc)
	s.bg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	if n := len(s.segs); n > 0 {
		if err := s.segs[n-1].f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.closeFilesLocked(&firstErr)
	return firstErr
}

func (s *Store) closeFiles() {
	s.mu.Lock()
	defer s.mu.Unlock()
	var discard error
	s.closeFilesLocked(&discard)
}

func (s *Store) closeFilesLocked(firstErr *error) {
	for _, seg := range s.segs {
		if err := seg.f.Close(); err != nil && *firstErr == nil {
			*firstErr = err
		}
	}
	s.segs = nil
}

// segSuffix / naming helpers. Segments sort lexically in sequence order.
const segSuffix = ".wal"

func segName(seq uint64) string { return fmt.Sprintf("seg-%012d%s", seq, segSuffix) }

func segSeq(path string) (uint64, error) {
	base := filepath.Base(path)
	var seq uint64
	if _, err := fmt.Sscanf(strings.TrimSuffix(base, segSuffix), "seg-%d", &seq); err != nil {
		return 0, fmt.Errorf("store: unrecognized segment name %q", base)
	}
	return seq, nil
}
