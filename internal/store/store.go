// Package store is the durable half of the serving layer's ECO sessions
// (DESIGN.md §13): a per-directory write-ahead log of session records that
// survives restarts of `qpld serve` and lets the session LRU spill cold
// sessions to disk instead of dropping them.
//
// Two record kinds share one append-only log, both keyed by (options
// signature, layout hash) — the same pair that keys the in-memory session
// store:
//
//   - a snapshot holds a full session state: the layout geometry (the
//     binary .layb encoding) plus the coloring and objective values of its
//     full-quality result;
//   - an edit record holds one ECO batch (core.EncodeEdits) and the base
//     hash it applies to, chaining sessions the way DecomposeIncremental
//     derived them.
//
// The store never replays anything itself: Lookup returns the nearest
// snapshot and the ordered tail of edit batches from it to the requested
// hash, and the serving layer replays that tail through core.ApplyEdits —
// which is exactly the operation the incremental-≡-scratch equivalence
// harness proves byte-identical to a fresh solve, so recovery correctness
// rides on an already-proven path.
//
// Durability discipline: records are CRC-framed and fsynced (unless
// Options.NoSync), appends go through a logical end-of-log offset so a
// torn append is overwritten rather than fenced in, Open truncates a torn
// tail (and only the tail — everything before the first bad frame is
// kept), and compaction rewrites the log to a temporary file that is
// atomically renamed into place. A crash at any byte leaves either the old
// log or the new one, never a hybrid.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mpl/internal/core"
	"mpl/internal/layout"
)

// logName is the write-ahead log's file name inside the data directory;
// compactName is the compaction scratch file renamed over it.
const (
	logName     = "wal.log"
	compactName = "wal.compact"
)

// fileMagic opens every log file; the trailing byte is the format version.
var fileMagic = [8]byte{'Q', 'P', 'L', 'D', 'W', 'A', 'L', '1'}

// Record framing: one marker byte, the record type, the payload length,
// and a CRC32-Castagnoli over (type, length, payload). The CRC covers the
// header fields so a flipped type or length byte is detected, not just
// payload rot.
const (
	recMarker   = 0xA7
	recSnapshot = 1
	recEdits    = 2
	headerSize  = 1 + 1 + 4 + 4
	// maxPayload bounds one record against corrupt length fields; the
	// largest legitimate payload is a snapshot of a full layout, and the
	// binary layout encoding keeps those far under this.
	maxPayload = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// snapshotEvery is the edit-chain depth at which AppendEdits asks the
// caller for a fresh snapshot, bounding replay work on rehydration;
// compactMin is the number of log records below which automatic compaction
// never runs.
const (
	snapshotEvery = 8
	compactMin    = 128
)

// Options tunes a Store. The zero value is usable.
type Options struct {
	// NoSync skips the fsync after each append. Records still survive a
	// killed process (the OS has the writes); only power loss can lose
	// the un-synced tail. Tests use it for speed.
	NoSync bool
}

// Snapshot is one full persisted session state.
type Snapshot struct {
	// Layout is the session's geometry.
	Layout *layout.Layout
	// Colors is the full-quality coloring, one mask index per fragment of
	// the decomposition graph a deterministic rebuild of Layout produces.
	Colors []int
	// Conflicts and Stitches are the result's objective values; Proven is
	// its optimality flag.
	Conflicts int
	Stitches  int
	Proven    bool
}

// Chain is a Lookup result: the nearest snapshot plus the edit batches
// that, replayed in order through core.ApplyEdits, reconstruct the
// requested session. Hashes holds the expected post-batch layout hash per
// batch (the last entry is the requested hash), so the replayer can verify
// each step landed on the geometry the log recorded.
type Chain struct {
	Snap    *Snapshot
	Batches [][]core.Edit
	Hashes  []string
}

// Stats is a point-in-time snapshot of store state and traffic.
type Stats struct {
	// LiveSessions is the number of distinct (sig, hash) keys currently
	// replayable from the log.
	LiveSessions int
	// WALBytes and WALRecords describe the log file, including records a
	// later append superseded (compaction reclaims those).
	WALBytes   int64
	WALRecords int
	// Snapshots and Edits count records appended by this process.
	Snapshots uint64
	Edits     uint64
	// Compactions counts log rewrites (automatic and explicit).
	Compactions uint64
	// TornTail counts Open-time truncations of a torn or corrupt tail.
	TornTail uint64
	// Orphans counts records dropped at Open because their base chain was
	// missing — corruption fallout, not a normal lifecycle event.
	Orphans uint64
}

// rec locates one live record in the log.
type rec struct {
	typ  byte
	off  int64  // offset of the frame (marker byte)
	n    int    // payload length
	base string // edit records: the base hash the batch applies to
	// depth is the replay distance to the nearest snapshot (0 for a
	// snapshot record).
	depth int
	// seq orders records by append recency across compactions.
	seq uint64
}

// Store is a durable session store over one data directory. Safe for
// concurrent use: one mutex serializes appends, lookups, and compaction —
// all are rare next to the solves they bracket.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File       // guarded by mu
	size    int64          // guarded by mu; logical end of log (next append offset)
	index   map[string]rec // guarded by mu; (sig NUL hash) -> latest live record
	nextSeq uint64         // guarded by mu
	records int            // guarded by mu; frames in the log, live or dead
	stats   Stats          // guarded by mu
}

// key builds the index key for one session.
func key(sig, hash string) string { return sig + "\x00" + hash }

// Open opens (creating if necessary) the store rooted at dir and recovers
// its index from the log, truncating a torn tail if the previous process
// died mid-append.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// A crash between compaction's write and rename leaves the scratch
	// file behind; it was never the log, so it is garbage.
	os.Remove(filepath.Join(dir, compactName))
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, f: f, index: make(map[string]rec)}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// recover scans the log, builds the index, and truncates everything from
// the first bad frame on. Called from Open only, before the Store is
// published — the construction-time equivalent of holding the lock.
//
//lint:holds mu
func (s *Store) recover() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fileSize := fi.Size()
	if fileSize < int64(len(fileMagic)) {
		// New store, or a crash before the header hit the disk: nothing
		// recoverable can exist yet, so (re)initialize.
		if err := s.f.Truncate(0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if _, err := s.f.WriteAt(fileMagic[:], 0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := s.sync(); err != nil {
			return err
		}
		s.size = int64(len(fileMagic))
		return nil
	}
	var magic [8]byte
	if _, err := s.f.ReadAt(magic[:], 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if magic != fileMagic {
		return fmt.Errorf("store: %s is not a qpld session log (bad magic %q)", logName, magic[:])
	}

	sr := io.NewSectionReader(s.f, 0, fileSize)
	off := int64(len(fileMagic))
	good := off
	for off < fileSize {
		frameLen, k, r, err := scanRecord(sr, off, fileSize)
		if err != nil {
			// First bad frame: everything after it is unordered garbage.
			// Drop the tail, keep the prefix.
			s.stats.TornTail++
			break
		}
		r.seq = s.nextSeq
		s.nextSeq++
		s.records++
		if r.typ == recEdits {
			base, ok := s.index[keyFrom(k, r.base)]
			if !ok {
				// Unreplayable: its base chain never made it to the log.
				s.stats.Orphans++
				off += frameLen
				good = off
				continue
			}
			r.depth = base.depth + 1
		}
		s.index[k] = r
		off += frameLen
		good = off
	}
	if good < fileSize {
		if err := s.f.Truncate(good); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
		if err := s.sync(); err != nil {
			return err
		}
	}
	s.size = good
	return nil
}

// keyFrom swaps the hash component of an index key, keeping its sig.
func keyFrom(k, hash string) string {
	i := strings.IndexByte(k, 0)
	return k[:i+1] + hash
}

// scanRecord reads and CRC-verifies the frame at off, returning the frame
// length, the index key, and the record locator. It never reads past end.
func scanRecord(sr *io.SectionReader, off, end int64) (frameLen int64, k string, r rec, err error) {
	var hdr [headerSize]byte
	if off+headerSize > end {
		return 0, "", rec{}, fmt.Errorf("store: truncated header")
	}
	if _, err := sr.ReadAt(hdr[:], off); err != nil {
		return 0, "", rec{}, err
	}
	if hdr[0] != recMarker {
		return 0, "", rec{}, fmt.Errorf("store: bad record marker 0x%02x", hdr[0])
	}
	typ := hdr[1]
	n := int64(binary.LittleEndian.Uint32(hdr[2:6]))
	want := binary.LittleEndian.Uint32(hdr[6:10])
	if n > maxPayload || off+headerSize+n > end {
		return 0, "", rec{}, fmt.Errorf("store: implausible payload length %d", n)
	}
	payload := make([]byte, n)
	if _, err := sr.ReadAt(payload, off+headerSize); err != nil {
		return 0, "", rec{}, err
	}
	crc := crc32.Update(0, crcTable, hdr[1:6])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != want {
		return 0, "", rec{}, fmt.Errorf("store: CRC mismatch")
	}
	sig, hash, base, err := parseKeys(typ, payload)
	if err != nil {
		return 0, "", rec{}, err
	}
	return headerSize + n, key(sig, hash), rec{typ: typ, off: off, n: int(n), base: base}, nil
}

// Close releases the log file handle. Appends already on disk stay
// recoverable; the store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// Dir returns the data directory the store is rooted at.
func (s *Store) Dir() string { return s.dir }

// Has reports whether the session is replayable from the log.
func (s *Store) Has(sig, hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key(sig, hash)]
	return ok
}

// StatsSnapshot returns current store statistics.
func (s *Store) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.LiveSessions = len(s.index)
	st.WALBytes = s.size
	st.WALRecords = s.records
	return st
}

// AppendSnapshot durably records a full session state. An existing record
// for the same key is superseded (rehydration will use this snapshot) and
// reclaimed by the next compaction.
func (s *Store) AppendSnapshot(sig, hash string, snap *Snapshot) error {
	payload, err := encodeSnapshot(sig, hash, snap)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(recSnapshot, payload, key(sig, hash), rec{typ: recSnapshot}); err != nil {
		return err
	}
	s.stats.Snapshots++
	return s.maybeCompact()
}

// AppendEdits durably records one ECO batch deriving session next from
// session base. needSnapshot reports that the new chain's replay depth
// reached snapshotEvery — the caller should follow up with an
// AppendSnapshot of the successor state it already holds, re-rooting the
// chain. An unknown base is an error: the service persists a session
// before ever deriving from it, so an unpersisted base means the caller
// and the log disagree.
func (s *Store) AppendEdits(sig, base, next string, edits []core.Edit) (needSnapshot bool, err error) {
	payload, err := encodeEditsRecord(sig, base, next, edits)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.index[key(sig, base)]
	if !ok {
		return false, fmt.Errorf("store: base session %.16s… is not in the log", base)
	}
	r := rec{typ: recEdits, base: base, depth: b.depth + 1}
	// An index entry is only ever replaced by a record of equal or smaller
	// replay depth. This keeps the chain graph acyclic — an ECO that edits
	// A→B and later B→A would otherwise make the two records each other's
	// base — and means a session already replayable at this depth or better
	// (say, from its own snapshot) has nothing to gain from the append.
	if prev, ok := s.index[key(sig, next)]; ok && prev.depth <= r.depth {
		return false, nil
	}
	if err := s.append(recEdits, payload, key(sig, next), r); err != nil {
		return false, err
	}
	s.stats.Edits++
	if err := s.maybeCompact(); err != nil {
		return false, err
	}
	return r.depth >= snapshotEvery, nil
}

// append frames and writes one record at the logical end of the log,
// fsyncs, and only then updates the index — a crash mid-append leaves the
// previous logical end intact and the partial frame is overwritten by the
// next append (or truncated by the next Open).
//
//lint:holds mu
func (s *Store) append(typ byte, payload []byte, k string, r rec) error {
	frame := make([]byte, headerSize+len(payload))
	frame[0] = recMarker
	frame[1] = typ
	binary.LittleEndian.PutUint32(frame[2:6], uint32(len(payload)))
	crc := crc32.Update(0, crcTable, frame[1:6])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(frame[6:10], crc)
	copy(frame[headerSize:], payload)
	if _, err := s.f.WriteAt(frame, s.size); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.sync(); err != nil {
		return err
	}
	r.off = s.size
	r.n = len(payload)
	r.seq = s.nextSeq
	s.nextSeq++
	s.size += int64(len(frame))
	s.records++
	s.index[k] = r
	return nil
}

// Lookup returns the replay chain for a session, or (nil, nil) when the
// log has no record of it. A broken chain (possible only after on-disk
// corruption) is an error, never a partial chain.
func (s *Store) Lookup(sig, hash string) (*Chain, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.index[key(sig, hash)]
	if !ok {
		return nil, nil
	}
	var (
		batches [][]core.Edit
		hashes  []string
	)
	// AppendEdits keeps the chain graph acyclic by construction; the
	// visited set is insurance against a corrupt log whose CRCs survived.
	visited := map[string]bool{hash: true}
	cur, curHash := r, hash
	for cur.typ == recEdits {
		payload, err := s.readPayload(cur)
		if err != nil {
			return nil, err
		}
		_, _, base, edits, err := decodeEditsRecord(payload)
		if err != nil {
			return nil, err
		}
		batches = append(batches, edits)
		hashes = append(hashes, curHash)
		if visited[base] {
			return nil, fmt.Errorf("store: cyclic chain through %.16s…", base)
		}
		visited[base] = true
		next, ok := s.index[key(sig, base)]
		if !ok {
			return nil, fmt.Errorf("store: broken chain: base %.16s… vanished", base)
		}
		cur, curHash = next, base
	}
	payload, err := s.readPayload(cur)
	if err != nil {
		return nil, err
	}
	_, _, snap, err := decodeSnapshot(payload)
	if err != nil {
		return nil, err
	}
	// The walk collected batches newest-first; replay wants oldest-first.
	for i, j := 0, len(batches)-1; i < j; i, j = i+1, j-1 {
		batches[i], batches[j] = batches[j], batches[i]
		hashes[i], hashes[j] = hashes[j], hashes[i]
	}
	return &Chain{Snap: snap, Batches: batches, Hashes: hashes}, nil
}

// readPayload re-reads and re-verifies one record's payload from the log —
// bit rot between Open and Lookup must surface as an error, not as a
// corrupt session.
//
//lint:holds mu
func (s *Store) readPayload(r rec) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := s.f.ReadAt(hdr[:], r.off); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	payload := make([]byte, r.n)
	if _, err := s.f.ReadAt(payload, r.off+headerSize); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	crc := crc32.Update(0, crcTable, hdr[1:6])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != binary.LittleEndian.Uint32(hdr[6:10]) {
		return nil, fmt.Errorf("store: record at %d failed its CRC re-check", r.off)
	}
	return payload, nil
}

// maybeCompact runs compaction when the log has accumulated enough dead
// weight: at least compactMin records, over half of them dead.
//
//lint:holds mu
func (s *Store) maybeCompact() error {
	if s.records < compactMin {
		return nil
	}
	if s.records < 2*len(s.index) {
		return nil
	}
	return s.compact()
}

// logOrder returns every index key in the order compaction writes them:
// each edit record's base precedes it in the output log (recover scans
// front to back and drops base-less edits as orphans). Replay depth is that
// order: AppendEdits only ever lowers a key's depth, so a base's current
// depth is always strictly below its children's. Recency (seq) breaks ties
// for a deterministic output log.
//
//lint:holds mu
func (s *Store) logOrder() []string {
	index := s.index // sort closures run with the same lock held
	keys := make([]string, 0, len(index))
	for k := range index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := index[keys[i]], index[keys[j]]
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		return a.seq < b.seq
	})
	return keys
}

//lint:holds mu
func (s *Store) compact() error {
	keys := s.logOrder()
	tmpPath := filepath.Join(s.dir, compactName)
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpPath)
	}
	if _, err := tmp.Write(fileMagic[:]); err != nil {
		cleanup()
		return fmt.Errorf("store: %w", err)
	}
	newIndex := make(map[string]rec, len(keys))
	off := int64(len(fileMagic))
	var nextSeq uint64
	for _, k := range keys {
		r := s.index[k]
		frame := make([]byte, headerSize+r.n)
		if _, err := s.f.ReadAt(frame, r.off); err != nil {
			cleanup()
			return fmt.Errorf("store: %w", err)
		}
		if _, err := tmp.Write(frame); err != nil {
			cleanup()
			return fmt.Errorf("store: %w", err)
		}
		nr := r
		nr.off = off
		nr.seq = nextSeq
		nextSeq++
		newIndex[k] = nr
		off += int64(len(frame))
	}
	if !s.opts.NoSync {
		if err := tmp.Sync(); err != nil {
			cleanup()
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, logName)); err != nil {
		cleanup()
		return fmt.Errorf("store: %w", err)
	}
	s.syncDir()
	// The scratch fd followed the rename: it is the new log.
	s.f.Close()
	s.f = tmp
	s.size = off
	s.index = newIndex
	s.nextSeq = nextSeq
	s.records = len(newIndex)
	s.stats.Compactions++
	return nil
}

//lint:holds mu
func (s *Store) sync() error {
	if s.opts.NoSync {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// syncDir fsyncs the data directory so a rename survives power loss. Best
// effort: some filesystems reject directory fsync, and the rename itself
// is already crash-atomic.
//
//lint:holds mu
func (s *Store) syncDir() {
	if s.opts.NoSync {
		return
	}
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
}
