package gsp

// Disk-backed tier for the freq cache. A daemon that restarts starts
// stone-cold: every hot (location, radius) vector the previous process
// spent hours accumulating must be recomputed from the spatial index.
// The store fixes that by snapshotting the cache's hottest entries to a
// flat binary file on a cadence (and on SIGTERM), and seeding a cold
// cache from the snapshot on boot — a warm start serves its first hot
// hit from RAM without touching the index.
//
// # Snapshot format (version 1, little-endian throughout)
//
//	offset  size  field
//	0       8     magic "POIFRQS1"
//	8       4     format version (uint32, = 1)
//	12      4     M — freq vector length (uint32)
//	16      8     city fingerprint (uint64, City.Fingerprint)
//	24      8     spatial-index grid cell size in meters (float64)
//	32      8     entry count (uint64)
//	40      8     record checksum (uint64, FNV-1a+splitmix64 over all records)
//	48      —     count records, each 24+4·M bytes:
//	              x float64 | y float64 | r float64 | M × uint32 counts
//
// Records are fixed width, so entry i lives at 48 + i·(24+4M) — the
// layout is mmap-friendly: a reader may map the file and address any
// record without parsing its predecessors. Entries are ordered hottest
// first, so a truncated prefix (by a smaller -store-top, not by
// corruption) would still be the most valuable slice.
//
// # Trust
//
// A snapshot is a cache of derivable state, so it is validated, never
// trusted: the header must carry the exact magic, version, M, grid cell
// size, and city fingerprint of the serving city, the byte length must
// equal header + count·recordSize exactly, and the record bytes must
// hash to the header's checksum. Any mismatch — a stale snapshot from
// yesterday's city build, a flipped byte in the header *or* in a
// record's counts, a torn write, a zero-length file — rejects the whole
// file with ErrStoreInvalid and the daemon falls back to a cold
// compute; it can never serve wrong vectors.
// Writes go through the atomic temp+fsync+rename pattern (the same as
// internal/budget/persist.go), so a crash mid-snapshot leaves the
// previous valid snapshot in place.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"poiagg/internal/geo"
	"poiagg/internal/hash64"
	"poiagg/internal/poi"
)

// Store metric names registered by Service.ExportMetrics.
const (
	MetricStoreWarmed   = "gsp.store.warmed"
	MetricStoreRejected = "gsp.store.rejected"
)

// ErrStoreInvalid is wrapped by every snapshot-validation failure:
// corrupt, truncated, or keyed to a different city or grid.
var ErrStoreInvalid = errors.New("gsp: invalid freq store")

const (
	storeMagic      = "POIFRQS1"
	storeVersion    = 1
	storeHeaderSize = 48
)

// storeChecksum hashes the record region: FNV-1a over 8-byte words
// (byte-wise over the sub-word tail) with a splitmix64 finalizer, both
// from hash64. Word-wise keeps the warm-start validation cost far below
// the compute it saves. Not cryptographic — it guards against bit rot
// and torn writes, not an adversary with write access to the store
// directory.
func storeChecksum(records []byte) uint64 {
	h := uint64(hash64.FNVOffset)
	for len(records) >= 8 {
		h = hash64.Mix(h ^ binary.LittleEndian.Uint64(records))
		records = records[8:]
	}
	return hash64.Mix(hash64.FNV(h, records))
}

// StoreEntry is one persisted freq-cache entry.
type StoreEntry struct {
	L    geo.Point
	R    float64
	Freq poi.FreqVector
}

// storeRecordSize is the fixed width of one record for an m-type city.
func storeRecordSize(m int) int { return 24 + 4*m }

// WriteStore atomically persists entries for city to path: the document
// is written to a temp file, fsynced, and renamed into place, so readers
// only ever observe a complete snapshot. Every entry's vector length
// must equal city.M().
func WriteStore(path string, city *City, entries []StoreEntry) error {
	m := city.M()
	recs := make([]byte, 0, len(entries)*storeRecordSize(m))
	for _, e := range entries {
		if len(e.Freq) != m {
			return fmt.Errorf("gsp: WriteStore: entry vector has %d types, city has %d", len(e.Freq), m)
		}
		recs = binary.LittleEndian.AppendUint64(recs, math.Float64bits(e.L.X))
		recs = binary.LittleEndian.AppendUint64(recs, math.Float64bits(e.L.Y))
		recs = binary.LittleEndian.AppendUint64(recs, math.Float64bits(e.R))
		for _, n := range e.Freq {
			recs = binary.LittleEndian.AppendUint32(recs, uint32(n))
		}
	}
	buf := make([]byte, 0, storeHeaderSize+len(recs))
	buf = append(buf, storeMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, storeVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m))
	buf = binary.LittleEndian.AppendUint64(buf, city.Fingerprint())
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(city.cellSize))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(entries)))
	buf = binary.LittleEndian.AppendUint64(buf, storeChecksum(recs))
	buf = append(buf, recs...)

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("gsp: write freq store: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("gsp: write freq store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("gsp: sync freq store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("gsp: close freq store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("gsp: publish freq store: %w", err)
	}
	return nil
}

// ReadStore loads and validates a snapshot for city. Every validation
// failure wraps ErrStoreInvalid; a missing file surfaces as fs.ErrNotExist.
func ReadStore(path string, city *City) ([]StoreEntry, error) {
	recs, err := readRecords(path, city)
	if err != nil {
		return nil, err
	}
	m := city.M()
	entries := make([]StoreEntry, len(recs)/storeRecordSize(m))
	for i := range entries {
		f := poi.NewFreqVector(m)
		l, r := decodeRecord(recs, i, f)
		entries[i] = StoreEntry{L: l, R: r, Freq: f}
	}
	return entries, nil
}

// decodeRecord fills f, which has the snapshot's M types, with record
// i's counts and returns the record's key.
func decodeRecord(recs []byte, i int, f poi.FreqVector) (geo.Point, float64) {
	rec := recs[i*storeRecordSize(len(f)):]
	for j := range f {
		f[j] = int(binary.LittleEndian.Uint32(rec[24+4*j:]))
	}
	return recordKey(rec)
}

// recordKey decodes the location and radius a record starts with.
func recordKey(rec []byte) (geo.Point, float64) {
	x := math.Float64frombits(binary.LittleEndian.Uint64(rec))
	y := math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
	r := math.Float64frombits(binary.LittleEndian.Uint64(rec[16:]))
	return geo.Point{X: x, Y: y}, r
}

// readRecords reads the snapshot at path, validates all of it for city —
// header, length, checksum and every record's key — and returns its
// record bytes.
func readRecords(path string, city *City) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	reject := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: %s", ErrStoreInvalid, path, fmt.Sprintf(format, args...))
	}
	if len(data) < storeHeaderSize {
		return nil, reject("%d bytes, need a %d-byte header", len(data), storeHeaderSize)
	}
	if string(data[:8]) != storeMagic {
		return nil, reject("bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != storeVersion {
		return nil, reject("format version %d, want %d", v, storeVersion)
	}
	m := city.M()
	if fm := binary.LittleEndian.Uint32(data[12:]); int(fm) != m {
		return nil, reject("vectors have %d types, city has %d", fm, m)
	}
	if fp := binary.LittleEndian.Uint64(data[16:]); fp != city.Fingerprint() {
		return nil, reject("city fingerprint %016x, serving city is %016x", fp, city.Fingerprint())
	}
	if cs := math.Float64frombits(binary.LittleEndian.Uint64(data[24:])); cs != city.cellSize {
		return nil, reject("grid cell size %g, serving index uses %g", cs, city.cellSize)
	}
	count := binary.LittleEndian.Uint64(data[32:])
	rec := storeRecordSize(m)
	want := uint64(storeHeaderSize) + count*uint64(rec)
	if count > uint64(len(data)) || want != uint64(len(data)) {
		return nil, reject("%d bytes for %d records, want %d (truncated or padded)", len(data), count, want)
	}
	if sum := binary.LittleEndian.Uint64(data[40:]); sum != storeChecksum(data[storeHeaderSize:]) {
		return nil, reject("record checksum %016x does not match contents", sum)
	}
	for off := storeHeaderSize; off < len(data); off += rec {
		if l, r := recordKey(data[off:]); !isFiniteF(l.X) || !isFiniteF(l.Y) || !isFiniteF(r) || r <= 0 {
			return nil, reject("record %d has non-finite or non-positive key", (off-storeHeaderSize)/rec)
		}
	}
	return data[storeHeaderSize:], nil
}

func isFiniteF(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// HotEntries returns up to n of the cache's entries ordered hottest
// first (by per-entry hit count, ties broken by key for determinism).
// The returned vectors are fresh copies owned by the caller. Nil when
// caching is disabled.
func (s *Service) HotEntries(n int) []StoreEntry {
	if s.cache == nil {
		return nil
	}
	hot := s.cache.hottest(n)
	out := make([]StoreEntry, len(hot))
	for i, e := range hot {
		f := poi.NewFreqVector(s.city.M())
		unpackFreq(f, e.val)
		out[i] = StoreEntry{L: geo.Point{X: e.key.x, Y: e.key.y}, R: e.key.r, Freq: f}
	}
	return out
}

// SaveStore snapshots the cache's top-n hottest entries to path (see
// WriteStore for atomicity) and returns how many it wrote. Safe to call
// while the service keeps answering queries. No-op when caching is
// disabled.
func (s *Service) SaveStore(path string, n int) (int, error) {
	if s.cache == nil {
		return 0, nil
	}
	entries := s.HotEntries(n)
	if err := WriteStore(path, s.city, entries); err != nil {
		return 0, err
	}
	return len(entries), nil
}

// WarmStart seeds the cache from a snapshot at path, returning how many
// entries it installed. A missing file is a normal cold start: (0, nil).
// A snapshot that fails validation bumps the gsp.store.rejected counter
// and returns the wrapped ErrStoreInvalid — the cache is left untouched
// and every key falls back to cold compute. No-op when caching is
// disabled.
func (s *Service) WarmStart(path string) (int, error) {
	if s.cache == nil {
		return 0, nil
	}
	recs, err := readRecords(path, s.city)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		s.storeRejected.Add(1)
		return 0, err
	}
	// Seed coldest first. The second-chance FIFO evicts its oldest
	// untouched entry, so when a shard overflows — a snapshot near
	// capacity loaded where more shards split each old one smaller — it
	// sheds the snapshot's coldest entries and keeps its hottest. Each
	// record is decoded into one reused vector, which put packs.
	f := poi.NewFreqVector(s.city.M())
	n := len(recs) / storeRecordSize(len(f))
	for i := n - 1; i >= 0; i-- {
		l, r := decodeRecord(recs, i, f)
		s.cache.put(freqKey{x: l.X, y: l.Y, r: r}, f)
	}
	s.storeWarmed.Add(uint64(n))
	return n, nil
}

// StoreFileName is the snapshot file the daemons keep under -store-dir.
const StoreFileName = "freqstore.bin"

// StorePath returns the snapshot path for a store directory.
func StorePath(dir string) string { return filepath.Join(dir, StoreFileName) }
