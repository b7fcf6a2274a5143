package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Index format versions. The full compatibility rules — field tables,
// version-sniffing, value-range checks — are specified normatively in
// docs/FORMAT.md; the short version: v1 files carry no format field and
// load with defaults, v1–v2 predate sketch schemes and load as legacy
// KMH, v1–v3 predate packing and load as full-width 64-bit arenas, v4
// records the packing width. V5 and v6 are not JSON layouts at all but
// the tiered directory format (MANIFEST.json plus binary segment
// files) written by SaveDir and read by Open: v6 extends v5 with
// per-shard tombstone lists and a write-ahead log replayed on open.
// Save always writes CurrentFormat, which stays v4: the JSON path's
// bytes are unchanged by the existence of the tiered formats.
const (
	FormatV1      = 1
	FormatV2      = 2
	FormatV3      = 3
	FormatV4      = 4
	FormatV5      = 5
	FormatV6      = 6
	CurrentFormat = FormatV4
)

// Metadata describes an index; it is embedded in the JSON serialization
// and kept current as records are added. Format, Bands, RowsPerBand and
// Shards are new in format v2, Scheme in v3, Bits in v4; absent fields
// are defaulted when loading older files (pre-v3 indexes are always
// KMH, pre-v4 always 64-bit).
type Metadata struct {
	Name          string    `json:"name"`
	Version       string    `json:"version"`
	Format        int       `json:"format,omitempty"`
	CreatedAt     time.Time `json:"created_at"`
	UpdatedAt     time.Time `json:"updated_at"`
	RecordCount   int       `json:"record_count"`
	K             int       `json:"k"`
	SignatureSize int       `json:"signature_size"`
	Scheme        Scheme    `json:"scheme,omitempty"`
	Bits          int       `json:"bits,omitempty"`
	Bands         int       `json:"bands,omitempty"`
	RowsPerBand   int       `json:"rows_per_band,omitempty"`
	Shards        int       `json:"shards,omitempty"`
}

// Index is an in-memory store of sketches keyed by record name,
// striped over N independently-locked shards so concurrent adds and
// probes on different stripes never contend. Each shard owns a
// contiguous packed signature arena (optionally truncated to b-bit
// slots; see sigArena) plus LSH band postings for sub-linear candidate
// filtering (see SearchTopKLSH). All methods are safe for concurrent
// use except Rebucket. Adds are incremental: a sketch whose name is
// already present is skipped, never overwritten.
type Index struct {
	// writeMu serializes structural rebuilds (Rebucket, EnableTiered,
	// SaveDir) against mutations (Add, Delete): mutators hold it shared,
	// rebuilds exclusively. Queries never touch it. Lock order is
	// writeMu -> ix.mu -> shard.mu -> shardWAL.mu.
	writeMu sync.RWMutex

	mu     sync.RWMutex // guards meta, order, gen, and the shards slice header
	meta   Metadata
	order  []string // insertion order, for deterministic iteration
	shards []*shard
	lsh    LSHParams
	bits   int
	gen    uint64     // bumped on every successful Add or Delete; see Generation
	tier   *tierState // non-nil once EnableTiered has run (or Open built the index)

	compactions   atomic.Uint64 // compaction passes that dropped rows
	compactedRows atomic.Uint64 // tombstoned rows reclaimed by compaction
	lshFallbacks  atomic.Uint64 // LSH searches that fell back to scanning the rest
	lshCandidates atomic.Uint64 // rows the LSH probes returned as candidates
}

// NewIndex returns an empty index accepting sketches with the given
// shingle length and signature size, using the default sketch scheme,
// banding scheme, shard count, and full-width (64-bit) signature
// storage. Use NewIndexWith to configure those.
func NewIndex(name string, k, sigSize int) *Index {
	if ix, err := NewIndexWith(name, k, sigSize, DefaultScheme, DefaultLSHParams(sigSize), DefaultShards, DefaultBits); err == nil {
		return ix
	}
	// Non-positive sigSize: keep the old never-fail contract with a
	// placeholder single-band scheme. Such an index rejects every add
	// through signature-size validation, so the scheme is never probed.
	now := time.Now().UTC()
	lsh := LSHParams{Bands: 1, RowsPerBand: 1}
	return &Index{
		meta: Metadata{
			Name:          name,
			Version:       Version,
			Format:        CurrentFormat,
			CreatedAt:     now,
			UpdatedAt:     now,
			K:             k,
			SignatureSize: sigSize,
			Scheme:        DefaultScheme,
			Bits:          DefaultBits,
			Bands:         lsh.Bands,
			RowsPerBand:   lsh.RowsPerBand,
			Shards:        DefaultShards,
		},
		shards: newShards(DefaultShards, lsh, sigSize, DefaultBits),
		lsh:    lsh,
		bits:   DefaultBits,
	}
}

// NewIndexWith returns an empty index with an explicit sketch scheme,
// LSH banding scheme, shard count, and signature packing width (64, 16,
// or 8 bits per slot; 0 means DefaultBits). The empty scheme means
// legacy KMH, matching pre-v3 metadata.
func NewIndexWith(name string, k, sigSize int, scheme Scheme, lsh LSHParams, shards, bits int) (*Index, error) {
	scheme = normScheme(scheme)
	if scheme != SchemeOPH && scheme != SchemeKMH {
		return nil, fmt.Errorf("index %q: unknown scheme %q", name, scheme)
	}
	if _, err := NewLSHParams(lsh.Bands, lsh.RowsPerBand, sigSize); err != nil {
		return nil, fmt.Errorf("index %q: %w", name, err)
	}
	if shards <= 0 {
		return nil, fmt.Errorf("index %q: shard count must be positive, got %d", name, shards)
	}
	bits, err := validBits(bits)
	if err != nil {
		return nil, fmt.Errorf("index %q: %w", name, err)
	}
	now := time.Now().UTC()
	return &Index{
		meta: Metadata{
			Name:          name,
			Version:       Version,
			Format:        CurrentFormat,
			CreatedAt:     now,
			UpdatedAt:     now,
			K:             k,
			SignatureSize: sigSize,
			Scheme:        scheme,
			Bits:          bits,
			Bands:         lsh.Bands,
			RowsPerBand:   lsh.RowsPerBand,
			Shards:        shards,
		},
		shards: newShards(shards, lsh, sigSize, bits),
		lsh:    lsh,
		bits:   bits,
	}, nil
}

// Add inserts s if no record with the same name exists. It reports
// whether the sketch was added; false with a nil error means the name
// already existed and the add was skipped. The signature is packed into
// the owning shard's arena: at packing widths below 64 only the low b
// bits of every slot are stored.
func (ix *Index) Add(s *Sketch) (bool, error) {
	if s.Name == "" {
		return false, fmt.Errorf("index: sketch has empty name")
	}
	if got, want := normScheme(s.Scheme), normScheme(ix.meta.Scheme); got != want {
		return false, fmt.Errorf("index %q: sketch scheme %q does not match index scheme %q",
			ix.meta.Name, got, want)
	}
	if s.K != ix.meta.K {
		return false, fmt.Errorf("index %q: sketch k %d does not match index k %d",
			ix.meta.Name, s.K, ix.meta.K)
	}
	if len(s.Signature) != ix.meta.SignatureSize {
		return false, fmt.Errorf("index %q: signature size %d does not match index size %d",
			ix.meta.Name, len(s.Signature), ix.meta.SignatureSize)
	}
	// Full-width sketches are always accepted (packing truncates them);
	// a sketch already truncated to b bits only fits an index of the
	// same width — repacking it elsewhere would store garbage lanes.
	if b := normSketchBits(s.Bits); b != 64 && b != ix.bits {
		return false, fmt.Errorf("index %q: sketch holds %d-bit truncated slots but the index packs at %d bits",
			ix.meta.Name, b, ix.bits)
	}
	// Shared writeMu spans the shard insert and the order append, so a
	// structural rebuild (Rebucket, SaveDir) can never observe a record
	// that is in a shard but not yet in order.
	ix.writeMu.RLock()
	defer ix.writeMu.RUnlock()
	ix.mu.RLock()
	shards := ix.shards
	tiered := ix.tier != nil
	ix.mu.RUnlock()
	// A tiered index stores the full-width signature on disk; a
	// pre-truncated sketch has nothing to store there.
	if tiered && normSketchBits(s.Bits) != 64 {
		return false, fmt.Errorf("index %q: tiered index requires full-width sketches, got %d-bit truncated slots",
			ix.meta.Name, normSketchBits(s.Bits))
	}
	// Same-named adds always land on the same shard, whose lock
	// serializes the existence check against the insert.
	added, err := shards[shardFor(s.Name, len(shards))].add(s)
	if err != nil {
		return false, fmt.Errorf("index %q: %w", ix.meta.Name, err)
	}
	if !added {
		return false, nil
	}
	ix.mu.Lock()
	ix.order = append(ix.order, s.Name)
	ix.meta.RecordCount = len(ix.order)
	ix.meta.UpdatedAt = time.Now().UTC()
	ix.gen++
	ix.mu.Unlock()
	return true, nil
}

// Delete tombstones the record named name and reports whether it was
// present. The record disappears from every lookup and search
// immediately; its arena row is reclaimed by the next compaction (see
// Compact and SaveDir). On a WAL-attached tiered index the tombstone is
// logged, so an acknowledged delete survives a crash the same way an
// acknowledged add does — call SyncWAL (or Engine.Delete, which does)
// before acking. Deleting frees the name: a later Add with the same
// name succeeds and is a fresh record.
func (ix *Index) Delete(name string) (bool, error) {
	if name == "" {
		return false, fmt.Errorf("index: delete with empty name")
	}
	ix.writeMu.RLock()
	defer ix.writeMu.RUnlock()
	ix.mu.RLock()
	shards := ix.shards
	ix.mu.RUnlock()
	if !shards[shardFor(name, len(shards))].delete(name) {
		return false, nil
	}
	ix.mu.Lock()
	// Insertion order is kept dense for deterministic iteration;
	// deletes pay the O(n) removal, which is fine at the delete rates a
	// tombstone design targets.
	if i := slices.Index(ix.order, name); i >= 0 {
		ix.order = slices.Delete(ix.order, i, i+1)
	}
	ix.meta.RecordCount = len(ix.order)
	ix.meta.UpdatedAt = time.Now().UTC()
	ix.gen++
	ix.mu.Unlock()
	return true, nil
}

// SyncWAL flushes and fsyncs every shard's write-ahead log — the
// durability barrier an ack must wait on. Shards with nothing buffered
// skip their fsync, so the cost tracks the shards actually touched. It
// is a no-op (nil error) when no WAL is attached: either a non-tiered
// index, or a tiered directory that has not committed its first
// manifest yet.
func (ix *Index) SyncWAL() error {
	shards := ix.snapshotShards()
	var first error
	for _, sh := range shards {
		if w := sh.wal.Load(); w != nil {
			if err := w.sync(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Tombstones returns the number of tombstoned (deleted but not yet
// compacted) arena rows and the total arena row count.
func (ix *Index) Tombstones() (dead, rows int) {
	for _, sh := range ix.snapshotShards() {
		d, r := sh.deadCount()
		dead += d
		rows += r
	}
	return dead, rows
}

// DefaultCompactThreshold is the tombstone ratio (dead rows over total
// rows, per shard) at which SaveDir compacts a stripe before
// snapshotting it.
const DefaultCompactThreshold = 0.25

// Compact rewrites every stripe that holds tombstoned rows, reclaiming
// their arena (and, on tiered indexes, segment) space. Search results
// are unchanged — deleted rows were already invisible — and it is safe
// to run on a live index: each stripe is rebuilt under its own lock,
// and in-flight queries that captured candidates against the old row
// numbering detect the generation change and rescan.
func (ix *Index) Compact() error {
	ix.mu.RLock()
	shards := ix.shards
	lsh := ix.lsh
	slots := ix.meta.SignatureSize
	bits := ix.bits
	name := ix.meta.Name
	ix.mu.RUnlock()
	for _, sh := range shards {
		sh.mu.Lock()
		dropped, err := sh.compactLocked(lsh, slots, bits)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("index %q: compact: %w", name, err)
		}
		if dropped > 0 {
			ix.compactions.Add(1)
			ix.compactedRows.Add(uint64(dropped))
		}
	}
	return nil
}

// WALStats is the observable write-ahead-log state, surfaced through
// Stats and /stats. Frames and Bytes are the log depth since the last
// snapshot truncated it; FsyncNanos over Fsyncs is the mean fsync
// latency the ack path is paying.
type WALStats struct {
	Frames         int64  `json:"frames"`
	Bytes          int64  `json:"bytes"`
	Appends        uint64 `json:"appends"`
	Fsyncs         uint64 `json:"fsyncs"`
	FsyncNanos     uint64 `json:"fsync_nanos"`
	ReplayedFrames uint64 `json:"replayed_frames"`
	TornBytes      uint64 `json:"torn_bytes"`
}

// WAL returns a snapshot of write-ahead-log state, or nil when no WAL
// is attached (non-tiered index, or no committed manifest yet).
func (ix *Index) WAL() *WALStats {
	ix.mu.RLock()
	tier := ix.tier
	ix.mu.RUnlock()
	if tier == nil {
		return nil
	}
	st := &WALStats{
		Appends:        tier.walAppends.Load(),
		Fsyncs:         tier.walFsyncs.Load(),
		FsyncNanos:     tier.walFsyncNanos.Load(),
		ReplayedFrames: tier.walReplayed.Load(),
		TornBytes:      tier.walTornBytes.Load(),
	}
	attached := false
	for _, sh := range ix.snapshotShards() {
		if w := sh.wal.Load(); w != nil {
			attached = true
			frames, bytes := w.depth()
			st.Frames += frames
			st.Bytes += bytes
		}
	}
	if !attached {
		return nil
	}
	return st
}

// Generation returns a counter that increments on every successful Add
// or Delete. It is the snapshot hook for long-lived servers: remember the
// generation at the last save and skip the next one when it has not
// moved, so idle periods never rewrite an unchanged index file.
func (ix *Index) Generation() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.gen
}

// Occupancy returns the number of records held by each shard stripe, in
// stripe order. It is an observability aid: a heavily skewed occupancy
// means one stripe's lock is carrying most of the write traffic.
func (ix *Index) Occupancy() []int {
	ix.mu.RLock()
	shards := ix.shards
	ix.mu.RUnlock()
	out := make([]int, len(shards))
	for i, sh := range shards {
		out[i] = sh.size()
	}
	return out
}

// ArenaStats is the memory footprint of the packed signature store,
// summed over every shard arena. BytesPerRecord is SignatureBytes over
// the record count (0 for an empty index); Utilization is live bytes
// over allocated capacity (append growth keeps headroom).
type ArenaStats struct {
	Bits           int     `json:"bits"`
	SignatureBytes int64   `json:"signature_bytes"`
	CapacityBytes  int64   `json:"capacity_bytes"`
	BytesPerRecord float64 `json:"bytes_per_record"`
	Utilization    float64 `json:"utilization"`
}

// Arena reports the signature arenas' aggregate memory footprint.
func (ix *Index) Arena() ArenaStats {
	ix.mu.RLock()
	shards := ix.shards
	bits := ix.bits
	ix.mu.RUnlock()
	st := ArenaStats{Bits: bits}
	records := 0
	for _, sh := range shards {
		used, capacity := sh.arenaBytes()
		st.SignatureBytes += used
		st.CapacityBytes += capacity
		records += sh.size()
	}
	if records > 0 {
		st.BytesPerRecord = float64(st.SignatureBytes) / float64(records)
	}
	if st.CapacityBytes > 0 {
		st.Utilization = float64(st.SignatureBytes) / float64(st.CapacityBytes)
	}
	return st
}

// Bits returns the signature packing width (64, 16, or 8).
func (ix *Index) Bits() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.bits
}

// Has reports whether a record named name is indexed, without
// reconstructing its sketch.
func (ix *Index) Has(name string) bool {
	ix.mu.RLock()
	shards := ix.shards
	ix.mu.RUnlock()
	return shards[shardFor(name, len(shards))].has(name)
}

// Get reconstructs the sketch named name from the arena, or returns nil
// if absent. At packing widths below 64 the returned slot values are
// the stored truncated lanes, not the original full-width minhashes.
func (ix *Index) Get(name string) *Sketch {
	ix.mu.RLock()
	shards := ix.shards
	k := ix.meta.K
	scheme := ix.meta.Scheme
	ix.mu.RUnlock()
	return shards[shardFor(name, len(shards))].getSketch(name, k, scheme)
}

// Len returns the number of indexed records.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.order)
}

// Names returns record names in insertion order.
func (ix *Index) Names() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]string, len(ix.order))
	copy(out, ix.order)
	return out
}

// Metadata returns a snapshot of the index metadata.
func (ix *Index) Metadata() Metadata {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.meta
}

// LSHParams returns the index's banding scheme.
func (ix *Index) LSHParams() LSHParams {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.lsh
}

// ShardCount returns the number of lock stripes.
func (ix *Index) ShardCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.shards)
}

// snapshotShards returns the current shard slice for query fan-out.
// Shards are append-only, and the structural rebuilds (a Rebucket that
// changes the shard count) swap in a fresh slice while leaving the old
// shards untouched, so holding the snapshot without ix.mu is safe:
// queries against the old snapshot stay internally consistent.
func (ix *Index) snapshotShards() []*shard {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.shards
}

// Rebucket retunes the LSH banding scheme (and, on non-tiered indexes,
// the shard count) without re-sketching; the packing width is preserved
// (repacking truncated lanes is lossless). It is safe on a live index:
// writers (Add, Delete) are briefly blocked on writeMu, but queries
// keep running throughout. With an unchanged shard count the band
// postings are rebuilt stripe by stripe under each stripe's own lock,
// so row numbering, full-width stores, and WALs all carry over; a
// changed shard count builds a fresh shard set and swaps it in, leaving
// in-flight queries a consistent view of the old one. Queries that
// overlap the swap may transiently probe with stale band keys — they
// lose candidates, never gain wrong results, because every candidate is
// still exact-scored.
//
// On a tiered index the shard count must stay what it is: on-disk
// segments are laid out by shard-local row order, and changing the
// stripe count would reshuffle records across shards and orphan every
// segment.
func (ix *Index) Rebucket(lsh LSHParams, shards int) error {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	ix.mu.RLock()
	cur := ix.shards
	sigSize := ix.meta.SignatureSize
	bits := ix.bits
	k := ix.meta.K
	scheme := ix.meta.Scheme
	name := ix.meta.Name
	tiered := ix.tier != nil
	ix.mu.RUnlock()
	if _, err := NewLSHParams(lsh.Bands, lsh.RowsPerBand, sigSize); err != nil {
		return fmt.Errorf("index %q: rebucket: %w", name, err)
	}
	if shards <= 0 {
		return fmt.Errorf("index %q: rebucket: shard count must be positive, got %d", name, shards)
	}
	if tiered && shards != len(cur) {
		return fmt.Errorf("index %q: rebucket: cannot change the shard count of a tiered index (%d -> %d): on-disk segments are per-shard",
			name, len(cur), shards)
	}
	if shards == len(cur) {
		// Same stripe count: rebuild each stripe's postings in place.
		// Tombstoned rows drop out of the new postings for free.
		sig := make([]uint64, 0, sigSize)
		for _, sh := range cur {
			sh.mu.Lock()
			nb := newBandIndex(lsh)
			for i := range sh.names {
				if sh.rowDead(int32(i)) {
					continue
				}
				sig = sh.arena.appendUnpacked(sig[:0], i)
				nb.add(int32(i), sig, sh.mask)
			}
			sh.bands = nb
			sh.mu.Unlock()
		}
	} else {
		// Changed stripe count (non-tiered only): build fresh shards from
		// a read-locked walk of the old ones, then swap the slice header.
		fresh := newShards(shards, lsh, sigSize, bits)
		sig := make([]uint64, 0, sigSize)
		for _, old := range cur {
			old.mu.RLock()
			for i, nm := range old.names {
				if old.rowDead(int32(i)) {
					continue
				}
				sig = old.arena.appendUnpacked(sig[:0], i)
				// fresh shards have no full store attached, so add cannot fail.
				_, _ = fresh[shardFor(nm, shards)].add(&Sketch{
					Name:      nm,
					K:         k,
					Shingles:  int(old.shingles[i]),
					Scheme:    scheme,
					Bits:      bits,
					Signature: sig,
				})
			}
			old.mu.RUnlock()
		}
		ix.mu.Lock()
		ix.shards = fresh
		ix.mu.Unlock()
	}
	ix.mu.Lock()
	ix.lsh = lsh
	ix.meta.Bands = lsh.Bands
	ix.meta.RowsPerBand = lsh.RowsPerBand
	ix.meta.Shards = shards
	ix.mu.Unlock()
	return nil
}

// indexFile is the JSON serialization of an Index. Band postings are
// not serialized; they are derived from the signatures and rebuilt on
// load. Signatures are written as per-slot values (truncated to the
// packing width for b-bit indexes) so files stay debuggable and
// format-stable across packing layouts.
type indexFile struct {
	Meta     Metadata  `json:"meta"`
	Sketches []*Sketch `json:"sketches"`
}

// Save writes the index as JSON in the current format. Tiered indexes
// refuse: their full-width signatures live in segment files and the
// JSON layout has no slot for them (writing the truncated lanes under a
// v4 header would silently discard precision). Use SaveDir.
func (ix *Index) Save(w io.Writer) error {
	ix.mu.RLock()
	if ix.tier != nil {
		ix.mu.RUnlock()
		return fmt.Errorf("index %q: tiered index cannot be saved as single-file JSON; use SaveDir", ix.meta.Name)
	}
	meta := ix.meta
	meta.Format = CurrentFormat
	meta.Bits = ix.bits
	f := indexFile{Meta: meta, Sketches: make([]*Sketch, 0, len(ix.order))}
	shards := ix.shards
	for _, n := range ix.order {
		f.Sketches = append(f.Sketches, shards[shardFor(n, len(shards))].getSketch(n, meta.K, meta.Scheme))
	}
	ix.mu.RUnlock()
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// SaveFile atomically writes the index to path: the JSON is written to
// a temporary file in the same directory, synced, and renamed over the
// destination, so a crash mid-save can never corrupt an existing index
// file.
func (ix *Index) SaveFile(path string) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".index-*.tmp")
	if err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = ix.Save(f); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	// CreateTemp makes mode-0600 files; restore the 0644 a plain
	// os.Create would have produced so other readers keep access.
	if err = f.Chmod(0o644); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	return nil
}

// LoadIndex reads an index previously written by Save. Format v1 files
// (no format field) load with the default banding scheme and shard
// count; v1 and v2 files predate sketch schemes and load as legacy KMH;
// v1–v3 files predate packing and load into full-width 64-bit arenas;
// files written by a newer engine are rejected. Every loaded sketch is
// stamped with the index scheme, so mixed-scheme comparisons fail even
// on sketches pulled out of the index directly.
func LoadIndex(r io.Reader) (*Index, error) {
	var f indexFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("index: decode: %w", err)
	}
	if f.Meta.K <= 0 || f.Meta.SignatureSize <= 0 {
		return nil, fmt.Errorf("index: invalid metadata: k=%d signature_size=%d",
			f.Meta.K, f.Meta.SignatureSize)
	}
	var (
		lsh    LSHParams
		shards int
		scheme Scheme
		bits   int
		err    error
	)
	bits = DefaultBits // v1–v3 predate packing
	switch f.Meta.Format {
	case 0, FormatV1: // v1 files predate the format field
		lsh = DefaultLSHParams(f.Meta.SignatureSize)
		shards = DefaultShards
		scheme = SchemeKMH
	case FormatV2, FormatV3, FormatV4:
		if lsh, err = NewLSHParams(f.Meta.Bands, f.Meta.RowsPerBand, f.Meta.SignatureSize); err != nil {
			return nil, fmt.Errorf("index: invalid metadata: %w", err)
		}
		if shards = f.Meta.Shards; shards <= 0 {
			return nil, fmt.Errorf("index: invalid metadata: shards=%d", shards)
		}
		if f.Meta.Format == FormatV2 {
			scheme = SchemeKMH // v2 predates schemes; always k-minhash
			break
		}
		switch scheme = normScheme(f.Meta.Scheme); scheme {
		case SchemeOPH, SchemeKMH:
		default:
			return nil, fmt.Errorf("index: invalid metadata: unknown scheme %q", f.Meta.Scheme)
		}
		if f.Meta.Format == FormatV4 {
			if bits, err = validBits(f.Meta.Bits); err != nil {
				return nil, fmt.Errorf("index: invalid metadata: %w", err)
			}
		}
	case FormatV5, FormatV6:
		return nil, fmt.Errorf("index: format %d is the tiered directory format, not a JSON file; open its directory with core.Open", f.Meta.Format)
	default:
		return nil, fmt.Errorf("index: format %d is newer than this engine supports (max %d)",
			f.Meta.Format, FormatV6)
	}
	meta := f.Meta
	meta.Format = CurrentFormat
	meta.Scheme = scheme
	meta.Bits = bits
	meta.Bands = lsh.Bands
	meta.RowsPerBand = lsh.RowsPerBand
	meta.Shards = shards
	ix := &Index{
		meta:   meta,
		shards: newShards(shards, lsh, meta.SignatureSize, bits),
		lsh:    lsh,
		bits:   bits,
	}
	mask := laneMask(bits)
	for _, s := range f.Sketches {
		if s == nil {
			return nil, fmt.Errorf("index: null sketch entry")
		}
		if s.Name == "" {
			return nil, fmt.Errorf("index: sketch with empty name")
		}
		if s.K != f.Meta.K {
			return nil, fmt.Errorf("index: sketch %q k %d does not match metadata k %d",
				s.Name, s.K, f.Meta.K)
		}
		if len(s.Signature) != f.Meta.SignatureSize {
			return nil, fmt.Errorf("index: sketch %q signature size %d does not match metadata %d",
				s.Name, len(s.Signature), f.Meta.SignatureSize)
		}
		if bits < 64 {
			// A b-bit file must carry b-bit values; anything wider means
			// the file was corrupted or mislabeled.
			for _, v := range s.Signature {
				if v&^mask != 0 {
					return nil, fmt.Errorf("index: sketch %q slot value %d exceeds the %d-bit packing width",
						s.Name, v, bits)
				}
			}
		}
		s.Scheme = scheme
		s.Bits = bits
		// Freshly-built shards have no full store attached, so add can
		// only fail by reporting a duplicate.
		if added, _ := ix.shards[shardFor(s.Name, shards)].add(s); !added {
			return nil, fmt.Errorf("index: duplicate sketch name %q", s.Name)
		}
		ix.order = append(ix.order, s.Name)
	}
	ix.meta.RecordCount = len(ix.order)
	return ix, nil
}

// LoadIndexFile opens and loads a single-file JSON index.
//
// Deprecated: use Open, which detects the on-disk layout (JSON file or
// tiered directory) and dispatches accordingly.
func LoadIndexFile(path string) (*Index, error) { return loadIndexFile(path) }

func loadIndexFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	defer f.Close()
	return LoadIndex(f)
}

// sortResults orders by descending similarity, breaking ties by query
// then ref name so output is deterministic. slices.SortFunc rather than
// sort.Slice: the generic sort allocates nothing, keeping the pooled
// query path allocation-free.
func sortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		switch {
		case a.Similarity > b.Similarity:
			return -1
		case a.Similarity < b.Similarity:
			return 1
		}
		if c := strings.Compare(a.Query, b.Query); c != 0 {
			return c
		}
		return strings.Compare(a.Ref, b.Ref)
	})
}
