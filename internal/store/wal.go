// Package store is scarecrowd's durable verdict store: a segmented,
// append-only write-ahead log of canonical verdict bytes keyed by the
// service's (specimen|profile|seed) triple.
//
// The design is bitcask-shaped. Writes append CRC-framed records to the
// active segment — one write(2) per record, so a committed Put survives a
// SIGKILL of the process (an optional fsync mode extends that to machine
// crashes). Reads go through an in-memory keydir mapping each key to its
// newest record's location and are served with a single pread. Opening a
// directory replays every segment to rebuild the keydir; a torn tail in
// the newest segment — the only segment a crash can tear — is truncated
// back to the last fully-committed record, so recovery is exactly "the
// prefix that was durably framed". Background compaction folds sealed
// segments into one deduplicated segment plus a sidecar index, so reopen
// cost and disk usage track the live key set, not append history.
//
// Compaction stays off the commit path. It plans under the read lock
// (snapshot the sealed segments and the keydir entries into them),
// merges with no store lock (sealed segments are immutable), and
// installs under the write lock (swap the entries that still point into
// the planned segments, keep segments that rotated in meanwhile). The
// merged file is written to a temp path, synced, renamed over the
// highest-seq sealed segment and then indexed, and the old segments are
// removed last. A crash at any of those points leaves the merged file,
// if present, between the segments it folds and the newer ones, so
// replay reaches the same keydir; Open deletes leftover temp files.
//
// Determinism makes this store exact rather than approximate: a verdict's
// bytes are a pure function of its key, so last-write-wins merging can
// never replace a verdict with a different one.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Record framing. Every record is
//
//	u32 keyLen | u32 valLen | key | val | u32 crc
//
// with all integers little-endian and crc the IEEE CRC-32 of everything
// before it (lengths and payloads). The CRC trailer means a record is
// committed if and only if its final byte is on disk: recovery scans
// forward and stops at the first frame that is short or fails its
// checksum, which is precisely the torn tail of an interrupted append.
const (
	recordHeaderLen  = 8
	recordTrailerLen = 4

	// maxKeyLen / maxValLen bound the length fields so a corrupt header
	// cannot make recovery allocate gigabytes or walk past a torn tail
	// into garbage that happens to parse.
	maxKeyLen = 1 << 16
	maxValLen = 1 << 26
)

// segmentMagic opens every segment file; a file without it is not ours
// and Open refuses to touch it.
var segmentMagic = []byte("SCWAL001")

// appendRecordTo appends one framed record to the end of buf and returns
// the extended slice. The CRC covers only this record's own bytes, so
// multiple records framed into one buffer — a group commit — decode
// exactly as if they had been appended one write at a time.
func appendRecordTo(buf []byte, key string, val []byte) []byte {
	start := len(buf)
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(val)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, key...)
	buf = append(buf, val...)
	var crc [recordTrailerLen]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf[start:]))
	return append(buf, crc[:]...)
}

// appendRecord frames key/val into buf (reused across calls) and returns
// the encoded record.
func appendRecord(buf []byte, key string, val []byte) []byte {
	return appendRecordTo(buf[:0], key, val)
}

// recordLen returns the full framed size of a record for the given
// payload lengths.
func recordLen(keyLen, valLen int) int64 {
	return int64(recordHeaderLen + keyLen + valLen + recordTrailerLen)
}

// decodeRecord parses one record at the start of b. It returns the key,
// value, and framed length consumed. A short buffer, an over-limit
// length, or a checksum mismatch returns an error; callers at the tail
// of the active segment treat any error as the torn-tail boundary.
// The returned val aliases b.
func decodeRecord(b []byte) (key string, val []byte, n int64, err error) {
	k, val, n, err := decodeFrame(b)
	if err != nil {
		return "", nil, 0, err
	}
	return string(k), val, n, nil
}

// decodeFrame is decodeRecord without the key copy: key and val both
// alias b, so verifying a frame allocates nothing.
func decodeFrame(b []byte) (key, val []byte, n int64, err error) {
	if len(b) < recordHeaderLen {
		return nil, nil, 0, fmt.Errorf("store: short record header: %d bytes", len(b))
	}
	keyLen := binary.LittleEndian.Uint32(b[0:4])
	valLen := binary.LittleEndian.Uint32(b[4:8])
	if keyLen == 0 || keyLen > maxKeyLen {
		return nil, nil, 0, fmt.Errorf("store: implausible key length %d", keyLen)
	}
	if valLen > maxValLen {
		return nil, nil, 0, fmt.Errorf("store: implausible value length %d", valLen)
	}
	total := recordLen(int(keyLen), int(valLen))
	if int64(len(b)) < total {
		return nil, nil, 0, fmt.Errorf("store: short record: have %d bytes, frame wants %d", len(b), total)
	}
	body := b[:total-recordTrailerLen]
	want := binary.LittleEndian.Uint32(b[total-recordTrailerLen : total])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, nil, 0, fmt.Errorf("store: record checksum mismatch: %08x != %08x", got, want)
	}
	key = b[recordHeaderLen : recordHeaderLen+keyLen]
	val = b[recordHeaderLen+keyLen : total-recordTrailerLen]
	return key, val, total, nil
}
