package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// indexMagic opens a sidecar index file. The following 8 bytes are the
// size of the segment the index describes — a stale index left behind by
// a crash mid-compaction describes different content and is rejected by
// the size check (and, belt and braces, by the per-record CRC on read).
var indexMagic = []byte("SCIDX001")

// scanEntry is one record located during replay.
type scanEntry struct {
	key  string
	off  int64
	size int64
}

// createSegment writes a fresh segment file with its magic header.
func createSegment(dir string, seq uint64) (*segment, error) {
	path := filepath.Join(dir, segName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating segment %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(segmentMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: writing segment header: %w", err)
	}
	return &segment{seq: seq, path: path, f: f, size: int64(len(segmentMagic))}, nil
}

// openSegment opens an existing segment and verifies its magic.
func openSegment(path string, seq uint64) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat %s: %w", filepath.Base(path), err)
	}
	magic := make([]byte, len(segmentMagic))
	if _, err := f.ReadAt(magic, 0); err != nil || !bytes.Equal(magic, segmentMagic) {
		f.Close()
		return nil, fmt.Errorf("store: %s is not a scarecrow WAL segment", filepath.Base(path))
	}
	return &segment{seq: seq, path: path, f: f, size: st.Size()}, nil
}

// scanSegment decodes every committed record in the segment. On a decode
// failure it returns the entries and the offset of the last good frame
// boundary alongside the error, so the caller can truncate a torn tail.
func scanSegment(seg *segment) (entries []scanEntry, goodEnd int64, err error) {
	buf := make([]byte, seg.size)
	if _, err := seg.f.ReadAt(buf, 0); err != nil {
		return nil, 0, fmt.Errorf("store: reading %s: %w", filepath.Base(seg.path), err)
	}
	off := int64(len(segmentMagic))
	for off < seg.size {
		key, _, n, derr := decodeRecord(buf[off:])
		if derr != nil {
			return entries, off, fmt.Errorf("store: %s at offset %d: %w", filepath.Base(seg.path), off, derr)
		}
		entries = append(entries, scanEntry{key: key, off: off, size: n})
		off += n
	}
	return entries, off, nil
}

// readRecord preads the record at loc into frame, which must be exactly
// loc.size bytes, verifies its CRC and length, and checks that it echoes
// key; the echo catches a keydir entry gone stale (e.g. a stale index
// surviving a crashed compaction). It returns the value, aliasing frame;
// a successful read allocates nothing.
func readRecord(loc recLoc, key string, frame []byte) ([]byte, error) {
	if _, err := loc.seg.f.ReadAt(frame, loc.off); err != nil {
		return nil, fmt.Errorf("store: reading record at %s+%d: %w", filepath.Base(loc.seg.path), loc.off, err)
	}
	gotKey, val, n, err := decodeFrame(frame)
	if err == nil && n != loc.size {
		err = fmt.Errorf("store: frame is %d bytes, keydir says %d", n, loc.size)
	}
	if err != nil {
		return nil, fmt.Errorf("store: record at %s+%d: %w", filepath.Base(loc.seg.path), loc.off, err)
	}
	if string(gotKey) != key {
		return nil, fmt.Errorf("store: record at %s+%d holds key %q, want %q", filepath.Base(loc.seg.path), loc.off, gotKey, key)
	}
	return val[:len(val):len(val)], nil
}

// indexPath is the sidecar index for a segment file.
func indexPath(segPath string) string {
	return strings.TrimSuffix(segPath, segSuffix) + ".idx"
}

// writeIndex persists seg.lastFor as the segment's sidecar index:
// header (magic + segment size), then one CRC-framed record per key
// whose value is the (offset, frame length) pair. Written to a temp
// file and renamed so a crash never leaves a half-index.
func writeIndex(seg *segment) error {
	keys := make([]string, 0, len(seg.lastFor))
	for k := range seg.lastFor {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var out bytes.Buffer
	out.Write(indexMagic)
	var size [8]byte
	binary.LittleEndian.PutUint64(size[:], uint64(seg.size))
	out.Write(size[:])
	var frame []byte
	for _, k := range keys {
		loc := seg.lastFor[k]
		var v [12]byte
		binary.LittleEndian.PutUint64(v[0:8], uint64(loc.off))
		binary.LittleEndian.PutUint32(v[8:12], uint32(loc.size))
		frame = appendRecord(frame, k, v[:])
		out.Write(frame)
	}

	path := indexPath(seg.path)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out.Bytes(), 0o644); err != nil {
		return fmt.Errorf("store: writing index %s: %w", filepath.Base(tmp), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: installing index %s: %w", filepath.Base(path), err)
	}
	return nil
}

// loadIndex reads a sealed segment's sidecar index. A missing, stale, or
// corrupt index is not an error — the caller falls back to a full scan.
func loadIndex(seg *segment) (entries []scanEntry, ok bool) {
	buf, err := os.ReadFile(indexPath(seg.path))
	if err != nil {
		return nil, false
	}
	hdr := len(indexMagic) + 8
	if len(buf) < hdr || !bytes.Equal(buf[:len(indexMagic)], indexMagic) {
		return nil, false
	}
	if int64(binary.LittleEndian.Uint64(buf[len(indexMagic):hdr])) != seg.size {
		return nil, false // index describes a different incarnation of this file
	}
	off := int64(hdr)
	for off < int64(len(buf)) {
		key, val, n, err := decodeRecord(buf[off:])
		if err != nil || len(val) != 12 {
			return nil, false
		}
		recOff := int64(binary.LittleEndian.Uint64(val[0:8]))
		recSize := int64(binary.LittleEndian.Uint32(val[8:12]))
		// Bounds are checked without recOff+recSize arithmetic: a corrupt
		// offset near MaxInt64 would overflow the sum to a negative value
		// that sails past a `> seg.size` comparison.
		if recSize < recordLen(1, 0) || recSize > seg.size ||
			recOff < int64(len(segmentMagic)) || recOff > seg.size-recSize {
			return nil, false
		}
		entries = append(entries, scanEntry{key: key, off: recOff, size: recSize})
		off += n
	}
	return entries, true
}

// mergeSegments is compaction's merge phase. It copies the plan's live
// records, verified but otherwise verbatim, into a single new segment
// carrying the highest sealed sequence number. It takes no store lock:
// sealed segments are immutable, and concurrent Gets only pread them.
// The merged file is written aside, synced, and renamed into place
// before its index is written; every crash point replays to the same
// keydir, because the merged file replays after the segments it folds
// and before any segment that rotated in during the merge.
func mergeSegments(dir string, p *compactPlan) (*segment, error) {
	seq := p.sealed[len(p.sealed)-1].seq
	final := filepath.Join(dir, segName(seq))
	tmpPath := final + ".tmp"
	f, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating merge file: %w", err)
	}
	cleanup := func() {
		f.Close()
		os.Remove(tmpPath)
	}
	if _, err := f.Write(segmentMagic); err != nil {
		cleanup()
		return nil, fmt.Errorf("store: writing merge header: %w", err)
	}
	merged := &segment{seq: seq, path: final, f: f, size: int64(len(segmentMagic)), lastFor: make(map[string]recLoc, len(p.live))}
	var frame []byte
	for _, e := range p.live {
		if int64(cap(frame)) < e.loc.size {
			frame = make([]byte, e.loc.size)
		}
		frame = frame[:e.loc.size]
		if _, err := readRecord(e.loc, e.key, frame); err != nil {
			cleanup()
			return nil, err
		}
		if _, err := f.WriteAt(frame, merged.size); err != nil {
			cleanup()
			return nil, fmt.Errorf("store: appending merge record: %w", err)
		}
		merged.lastFor[e.key] = recLoc{seg: merged, off: merged.size, size: e.loc.size}
		merged.size += e.loc.size
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return nil, fmt.Errorf("store: syncing merge file: %w", err)
	}
	// The old index describes the file the rename is about to replace;
	// drop it first so no crash point pairs new bytes with old offsets.
	_ = os.Remove(indexPath(final))
	if err := os.Rename(tmpPath, final); err != nil {
		cleanup()
		return nil, fmt.Errorf("store: installing merged segment: %w", err)
	}
	if err := writeIndex(merged); err != nil {
		f.Close()
		return nil, err
	}
	return merged, nil
}
