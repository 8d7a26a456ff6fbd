// Package store is the persistent artifact tier below the Evaluator's
// session memos: an on-disk record store for the expensive derived
// artifacts — witness tables, exact DP results, availability
// polynomial coefficients, optimized read/write strategies — keyed by
// canonical spec, artifact kind and engine version, so a restarted or
// horizontally-scaled fleet sharing one store directory warms instantly
// and answers bit-identically to a cold compute.
//
// The store is crash-safe and corruption-safe by construction, never by
// recovery: records are published by atomic write-to-temp-then-rename,
// every read re-verifies a CRC-64 checksum over the embedded key and
// payload, and any mismatch — truncation, bit rot, a record written by
// a different engine version, a colliding hash — is a silent cache miss
// that falls back to recompute. A store can therefore be shared between
// any number of processes without coordination.
package store

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc64"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
)

// magic opens every record file; a file without it is not a record.
const magic = "pqart\x00\x01\n"

// headerSize is the fixed prefix before the embedded key: magic (8),
// engine version (4), key length (4), payload length (8), checksum (8).
const headerSize = 32

// recordExt is the suffix of published record files; temp files in
// flight carry tmpExt and are never read back.
const (
	recordExt = ".pqa"
	tmpExt    = ".tmp"
)

// maxRecordBytes bounds a record file a load will consider. The largest
// legitimate artifact is a full witness table at quorum.MaxTableUniverse
// (2^26 bits = 8 MiB); anything wildly past that is damage.
const maxRecordBytes = 64 << 20

// crcTable is the ECMA polynomial table shared by every record.
var crcTable = crc64.MakeTable(crc64.ECMA)

// tmpSeq distinguishes concurrent temp files of this process; paired
// with the pid it keeps writers of separate processes apart without
// wall clocks or randomness. It is package-global, not per-Store:
// several handles on one directory within one process share the pid,
// so a per-handle counter could collide on the same temp name.
var tmpSeq atomic.Uint64

// Store is one artifact store directory. It is safe for concurrent use
// by any number of goroutines and — through the atomic publication and
// per-read verification protocol — by any number of processes.
type Store struct {
	dir    string
	engine uint32

	// Lock-free operation counters, snapshotted by Stats.
	hits, misses, corrupt, writes, writeErrs atomic.Uint64
}

// Open returns a store over dir (created if absent) whose records are
// keyed under the given engine version: records written by a different
// engine version miss on load, so an upgraded fleet silently recomputes
// instead of trusting stale artifacts.
func Open(dir string, engine uint32) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, engine: engine}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// path maps (kind, key) to the record file: the kind stays readable as
// the filename prefix (per-kind accounting scans on it), the key is
// hashed — spec strings contain separators no filesystem should see —
// and collisions are harmless because every record embeds its full key
// and a load verifies it.
func (s *Store) path(kind, key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	sum := h.Sum(nil)
	return filepath.Join(s.dir, kind+"-"+hex.EncodeToString(sum)+recordExt)
}

// Put publishes one record atomically: the header, key and payload are
// written to a process-unique temp file, synced, and renamed into
// place, so a concurrent reader (or a crash) sees either the complete
// old record or the complete new one — never a torn write. Put failures
// are counted but reported to the caller too; the store is a cache, so
// callers may ignore them.
func (s *Store) Put(kind, key string, payload []byte) error {
	if err := s.put(kind, key, payload); err != nil {
		s.writeErrs.Add(1)
		return err
	}
	s.writes.Add(1)
	return nil
}

func (s *Store) put(kind, key string, payload []byte) error {
	final := s.path(kind, key)
	tmp := final + tmpExt + "." + strconv.Itoa(os.Getpid()) + "." + strconv.FormatUint(tmpSeq.Add(1), 10)
	data := encodeRecord(s.engine, key, payload)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing %s: %w", filepath.Base(final), err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing %s: %w", filepath.Base(final), err)
	}
	return nil
}

// encodeRecord lays out one record image: fixed header, key, padding to
// an 8-byte boundary, payload. Nothing reads the padding; it is kept so
// the record format stays the one earlier stores wrote.
func encodeRecord(engine uint32, key string, payload []byte) []byte {
	off := payloadOffset(len(key))
	data := make([]byte, off+len(payload))
	copy(data, magic)
	binary.LittleEndian.PutUint32(data[8:], engine)
	binary.LittleEndian.PutUint32(data[12:], uint32(len(key)))
	binary.LittleEndian.PutUint64(data[16:], uint64(len(payload)))
	copy(data[headerSize:], key)
	copy(data[off:], payload)
	binary.LittleEndian.PutUint64(data[24:], checksum(key, payload))
	return data
}

// payloadOffset is where the payload starts for a key of the given
// length: the header plus the key, rounded up to 8 bytes.
func payloadOffset(keyLen int) int {
	return (headerSize + keyLen + 7) &^ 7
}

// checksum covers the key and the payload, so a hash-colliding record
// or a truncated payload both read as damage.
func checksum(key string, payload []byte) uint64 {
	crc := crc64.Update(0, crcTable, []byte(key))
	return crc64.Update(crc, crcTable, payload)
}

// Get loads one record's payload, or reports a miss. Every failure mode
// — absent file, truncation, checksum or key or engine-version
// mismatch, oversized file — is a miss; damaged records are counted but
// never block the caller, which recomputes and republishes over them.
// The payload is read into a fresh buffer the caller owns, so it stays
// valid after Clear and Close.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	payload, ok, damaged := s.load(kind, key)
	if damaged {
		s.corrupt.Add(1)
	}
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

func (s *Store) load(kind, key string) (payload []byte, ok, damaged bool) {
	path := s.path(kind, key)
	fi, err := os.Stat(path)
	if err != nil {
		return nil, false, false
	}
	if fi.Size() < headerSize || fi.Size() > maxRecordBytes {
		return nil, false, true
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, true
	}
	payload, ok = decodeRecord(data, s.engine, key)
	if !ok {
		// An unreadable record under the right filename is damage unless
		// it was written by another engine version, which is the designed
		// upgrade miss.
		return nil, false, !isVersionMiss(data, s.engine)
	}
	return payload, true, false
}

// decodeRecord validates a record image end to end and returns its
// payload slice (aliasing data).
func decodeRecord(data []byte, engine uint32, key string) ([]byte, bool) {
	if len(data) < headerSize || string(data[:8]) != magic {
		return nil, false
	}
	if binary.LittleEndian.Uint32(data[8:]) != engine {
		return nil, false
	}
	keyLen := int(binary.LittleEndian.Uint32(data[12:]))
	payLen := binary.LittleEndian.Uint64(data[16:])
	if keyLen != len(key) || payLen > maxRecordBytes {
		return nil, false
	}
	off := payloadOffset(keyLen)
	if uint64(len(data)) != uint64(off)+payLen {
		return nil, false
	}
	if string(data[headerSize:headerSize+keyLen]) != key {
		return nil, false
	}
	payload := data[off:]
	if binary.LittleEndian.Uint64(data[24:]) != checksum(key, payload) {
		return nil, false
	}
	return payload, true
}

// isVersionMiss reports whether a structurally plausible record failed
// only on its engine version.
func isVersionMiss(data []byte, engine uint32) bool {
	return len(data) >= headerSize && string(data[:8]) == magic &&
		binary.LittleEndian.Uint32(data[8:]) != engine
}

// Clear removes every published record (temp files of in-flight writers
// included). Payloads already returned by Get are heap copies and stay
// valid.
func (s *Store) Clear() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var firstErr error
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, recordExt) && !strings.Contains(name, recordExt+tmpExt) {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close ends the caller's use of the store. A store holds no open files
// or memory between calls, so there is nothing to release, and payloads
// returned by Get stay valid after it.
func (s *Store) Close() error { return nil }

// KindStats is the on-disk footprint of one artifact kind.
type KindStats struct {
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
}

// Stats is a snapshot of the store: per-kind record counts and bytes
// from a directory scan, plus the process-lifetime operation counters.
type Stats struct {
	Dir    string               `json:"dir"`
	Engine uint32               `json:"engine"`
	Kinds  map[string]KindStats `json:"kinds"`
	// Hits and Misses count Get outcomes; Corrupt counts loads that found
	// a damaged record (a subset of the misses); Writes and WriteErrors
	// count Put outcomes.
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Corrupt     uint64 `json:"corrupt"`
	Writes      uint64 `json:"writes"`
	WriteErrors uint64 `json:"write_errors"`
}

// Stats scans the store directory for the per-kind footprint and
// snapshots the operation counters.
func (s *Store) Stats() (Stats, error) {
	st := Stats{
		Dir: s.dir, Engine: s.engine, Kinds: map[string]KindStats{},
		Hits: s.hits.Load(), Misses: s.misses.Load(), Corrupt: s.corrupt.Load(),
		Writes: s.writes.Load(), WriteErrors: s.writeErrs.Load(),
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return st, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, recordExt) {
			continue
		}
		kind, _, ok := strings.Cut(strings.TrimSuffix(name, recordExt), "-")
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		ks := st.Kinds[kind]
		ks.Records++
		ks.Bytes += info.Size()
		st.Kinds[kind] = ks
	}
	return st, nil
}
