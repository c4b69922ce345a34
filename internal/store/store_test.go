package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mpl/internal/core"
	"mpl/internal/geom"
	"mpl/internal/layout"
)

// testOpts keeps unit tests fast: no fsync. Only TestStoreAutoCompaction
// appends compactMin records, so no other test compacts unless it asks.
var testOpts = Options{NoSync: true}

func testLayout(n int) *layout.Layout {
	l := layout.New("store-test")
	for i := 0; i < n; i++ {
		l.AddRect(geom.Rect{X0: i * 100, Y0: 0, X1: i*100 + 20, Y1: 20})
	}
	return l
}

func testSnap(n int) *Snapshot {
	s := &Snapshot{Layout: testLayout(n), Conflicts: n % 3, Stitches: n % 2, Proven: n%2 == 0}
	for i := 0; i < n; i++ {
		s.Colors = append(s.Colors, i%3)
	}
	return s
}

func testEdits(seed int) []core.Edit {
	return []core.Edit{
		{Op: core.EditAdd, Shape: geom.NewPolygon(geom.Rect{X0: seed, Y0: seed, X1: seed + 20, Y1: seed + 20})},
		{Op: core.EditMove, Feature: seed % 4, DX: 5 * seed, DY: -5 * seed},
	}
}

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// compactNow rewrites the log at once, as AppendSnapshot and AppendEdits do
// when dead records pass half of it.
func compactNow(s *Store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compact()
}

func snapsEqual(a, b *Snapshot) bool {
	var la, lb bytes.Buffer
	if a.Layout.WriteBinary(&la) != nil || b.Layout.WriteBinary(&lb) != nil {
		return false
	}
	return bytes.Equal(la.Bytes(), lb.Bytes()) &&
		slices.Equal(a.Colors, b.Colors) &&
		a.Conflicts == b.Conflicts && a.Stitches == b.Stitches && a.Proven == b.Proven
}

func batchesEqual(a, b [][]core.Edit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(core.EncodeEdits(nil, a[i]), core.EncodeEdits(nil, b[i])) {
			return false
		}
	}
	return true
}

const sig = "|k=3|alpha=0.1"

func TestStoreRoundTrip(t *testing.T) {
	s := openStore(t, t.TempDir(), testOpts)

	snap := testSnap(5)
	if err := s.AppendSnapshot(sig, "h0", snap); err != nil {
		t.Fatal(err)
	}
	batches := [][]core.Edit{testEdits(1), testEdits(2), testEdits(3)}
	hashes := []string{"h1", "h2", "h3"}
	base := "h0"
	for i, b := range batches {
		need, err := s.AppendEdits(sig, base, hashes[i], b)
		if err != nil {
			t.Fatal(err)
		}
		if need {
			t.Fatalf("needSnapshot at depth %d below snapshotEvery", i+1)
		}
		base = hashes[i]
	}

	// The deepest session replays the full tail; an intermediate one only
	// its prefix; the root none.
	ch, err := s.Lookup(sig, "h3")
	if err != nil {
		t.Fatal(err)
	}
	if ch == nil {
		t.Fatal("Lookup(h3) found nothing")
	}
	if !snapsEqual(ch.Snap, snap) {
		t.Fatal("snapshot did not round trip")
	}
	if !batchesEqual(ch.Batches, batches) {
		t.Fatalf("batches did not round trip: got %d", len(ch.Batches))
	}
	if !slices.Equal(ch.Hashes, hashes) {
		t.Fatalf("hashes = %v, want %v", ch.Hashes, hashes)
	}
	if ch, err = s.Lookup(sig, "h1"); err != nil || ch == nil {
		t.Fatalf("Lookup(h1): %v, %v", ch, err)
	}
	if !batchesEqual(ch.Batches, batches[:1]) || !slices.Equal(ch.Hashes, hashes[:1]) {
		t.Fatal("intermediate session replays the wrong tail")
	}
	if ch, err = s.Lookup(sig, "h0"); err != nil || ch == nil || len(ch.Batches) != 0 {
		t.Fatalf("root session should replay zero batches: %v, %v", ch, err)
	}

	// Misses: unknown hash, wrong sig — (nil, nil), not an error.
	if ch, err = s.Lookup(sig, "nope"); err != nil || ch != nil {
		t.Fatalf("Lookup(miss) = %v, %v", ch, err)
	}
	if ch, err = s.Lookup("other-sig", "h3"); err != nil || ch != nil {
		t.Fatalf("Lookup(wrong sig) = %v, %v", ch, err)
	}
	if !s.Has(sig, "h2") || s.Has(sig, "nope") {
		t.Fatal("Has disagrees with Lookup")
	}

	// Deriving from a base the log never saw is a caller bug.
	if _, err := s.AppendEdits(sig, "ghost", "h9", testEdits(9)); err == nil {
		t.Fatal("AppendEdits from unknown base succeeded")
	}

	st := s.StatsSnapshot()
	if st.LiveSessions != 4 || st.Snapshots != 1 || st.Edits != 3 || st.WALRecords != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, testOpts)
	snap := testSnap(4)
	if err := s.AppendSnapshot(sig, "h0", snap); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendEdits(sig, "h0", "h1", testEdits(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, testOpts)
	st := s2.StatsSnapshot()
	if st.LiveSessions != 2 || st.TornTail != 0 || st.Orphans != 0 {
		t.Fatalf("stats after clean reopen = %+v", st)
	}
	ch, err := s2.Lookup(sig, "h1")
	if err != nil || ch == nil {
		t.Fatalf("Lookup after reopen: %v, %v", ch, err)
	}
	if !snapsEqual(ch.Snap, snap) || !batchesEqual(ch.Batches, [][]core.Edit{testEdits(1)}) {
		t.Fatal("chain changed across reopen")
	}
	// The log stays appendable after recovery.
	if _, err := s2.AppendEdits(sig, "h1", "h2", testEdits(2)); err != nil {
		t.Fatal(err)
	}
}

func TestStoreSnapshotPolicy(t *testing.T) {
	s := openStore(t, t.TempDir(), testOpts)
	if err := s.AppendSnapshot(sig, "h0", testSnap(3)); err != nil {
		t.Fatal(err)
	}
	base := "h0"
	for depth := 1; depth <= snapshotEvery; depth++ {
		next := fmt.Sprintf("h%d", depth)
		need, err := s.AppendEdits(sig, base, next, testEdits(depth))
		if err != nil {
			t.Fatal(err)
		}
		if want := depth == snapshotEvery; need != want {
			t.Fatalf("depth %d: needSnapshot = %v, want %v", depth, need, want)
		}
		base = next
	}
	// Snapshotting the deep session re-roots its chain: the next edit is
	// depth 1 again, and its replay starts at the new snapshot.
	if err := s.AppendSnapshot(sig, base, testSnap(6)); err != nil {
		t.Fatal(err)
	}
	need, err := s.AppendEdits(sig, base, "tip", testEdits(snapshotEvery+1))
	if err != nil || need {
		t.Fatalf("edit after re-rooting: need=%v err=%v", need, err)
	}
	ch, err := s.Lookup(sig, "tip")
	if err != nil || ch == nil {
		t.Fatalf("Lookup(tip): %v, %v", ch, err)
	}
	if len(ch.Batches) != 1 {
		t.Fatalf("replay depth after re-rooting = %d, want 1", len(ch.Batches))
	}
}

// TestStoreDepthRule pins the acyclicity invariant: an index entry is never
// replaced by a deeper record, so an ECO that returns to an earlier layout
// (A→B→A) cannot make the chain graph cyclic.
func TestStoreDepthRule(t *testing.T) {
	s := openStore(t, t.TempDir(), testOpts)
	if err := s.AppendSnapshot(sig, "hA", testSnap(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendEdits(sig, "hA", "hB", testEdits(1)); err != nil {
		t.Fatal(err)
	}
	// Editing back to A must not replace A's snapshot with a depth-2 record.
	if _, err := s.AppendEdits(sig, "hB", "hA", testEdits(2)); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"hA", "hB"} {
		ch, err := s.Lookup(sig, h)
		if err != nil || ch == nil {
			t.Fatalf("Lookup(%s): %v, %v", h, ch, err)
		}
	}
	ch, _ := s.Lookup(sig, "hA")
	if len(ch.Batches) != 0 {
		t.Fatalf("hA should still replay from its own snapshot, got depth %d", len(ch.Batches))
	}
	if st := s.StatsSnapshot(); st.Edits != 1 {
		t.Fatalf("the A→B→A back-edit should have been skipped, stats = %+v", st)
	}
}

func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, testOpts)
	// Supersede one key many times; compaction keeps only the live record.
	for i := 0; i < 10; i++ {
		if err := s.AppendSnapshot(sig, "h0", testSnap(3+i%2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AppendEdits(sig, "h0", "h1", testEdits(1)); err != nil {
		t.Fatal(err)
	}
	before := s.StatsSnapshot()
	if before.WALRecords != 11 {
		t.Fatalf("pre-compaction records = %d", before.WALRecords)
	}
	if err := compactNow(s); err != nil {
		t.Fatal(err)
	}
	after := s.StatsSnapshot()
	if after.WALRecords != 2 || after.LiveSessions != 2 || after.Compactions != 1 {
		t.Fatalf("post-compaction stats = %+v", after)
	}
	if after.WALBytes >= before.WALBytes {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before.WALBytes, after.WALBytes)
	}
	// The compacted log is a valid log: same sessions after reopen, and the
	// re-rooted snapshot (the last one appended) is the one that survived.
	want := testSnap(3 + 9%2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, testOpts)
	ch, err := s2.Lookup(sig, "h1")
	if err != nil || ch == nil {
		t.Fatalf("Lookup after compaction+reopen: %v, %v", ch, err)
	}
	if !snapsEqual(ch.Snap, want) {
		t.Fatal("compaction kept a superseded snapshot")
	}
	if st := s2.StatsSnapshot(); st.Orphans != 0 || st.TornTail != 0 {
		t.Fatalf("compacted log did not recover cleanly: %+v", st)
	}
}

// TestStoreCompactionOrdersBases pins the reorder hazard: re-snapshotting a
// base gives it a newer seq than its children, and a recency-ordered
// compaction would write the child first — recover would then drop it as an
// orphan. Output order is by replay depth, so bases always come first.
func TestStoreCompactionOrdersBases(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, testOpts)
	if err := s.AppendSnapshot(sig, "h0", testSnap(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendEdits(sig, "h0", "h1", testEdits(1)); err != nil {
		t.Fatal(err)
	}
	// Re-snapshot the base: its live record is now newer than its child's.
	if err := s.AppendSnapshot(sig, "h0", testSnap(4)); err != nil {
		t.Fatal(err)
	}
	if err := compactNow(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, testOpts)
	st := s2.StatsSnapshot()
	if st.Orphans != 0 || st.LiveSessions != 2 {
		t.Fatalf("child lost across compaction+reopen: %+v", st)
	}
	if ch, err := s2.Lookup(sig, "h1"); err != nil || ch == nil || len(ch.Batches) != 1 {
		t.Fatalf("Lookup(h1) after compaction+reopen: %v, %v", ch, err)
	}
}

func TestStoreAutoCompaction(t *testing.T) {
	s := openStore(t, t.TempDir(), testOpts)
	for i := 1; i < compactMin; i++ {
		if err := s.AppendSnapshot(sig, "h0", testSnap(3)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.StatsSnapshot(); st.Compactions != 0 {
		t.Fatalf("compacted below compactMin records: %+v", st)
	}
	// The compactMin-th record crosses the floor: one live session among
	// compactMin records compacts to that one record.
	if err := s.AppendSnapshot(sig, "h0", testSnap(3)); err != nil {
		t.Fatal(err)
	}
	st := s.StatsSnapshot()
	if st.Compactions != 1 {
		t.Fatal("auto-compaction never ran")
	}
	if st.WALRecords != 1 {
		t.Fatalf("log still carries %d records for one live session", st.WALRecords)
	}
}

// TestStoreTornTail is the crash-recovery torture test: for a log whose
// tail record is torn (truncated at every possible byte offset) or rotted
// (every byte of the tail frame corrupted in turn), Open must keep every
// earlier record, drop only the tail, and never panic or serve a corrupt
// chain.
func TestStoreTornTail(t *testing.T) {
	// Build the pristine log: a snapshot, one edit chain, then a tail edit
	// record under a distinct key so its loss is observable in isolation.
	base := t.TempDir()
	s := openStore(t, base, testOpts)
	snap := testSnap(4)
	if err := s.AppendSnapshot(sig, "h0", snap); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendEdits(sig, "h0", "h1", testEdits(1)); err != nil {
		t.Fatal(err)
	}
	sizeBeforeTail := s.StatsSnapshot().WALBytes
	if _, err := s.AppendEdits(sig, "h1", "h2", testEdits(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(filepath.Join(base, logName))
	if err != nil {
		t.Fatal(err)
	}
	tailOff := int(sizeBeforeTail)

	check := func(t *testing.T, dir string, wantTail bool) {
		t.Helper()
		s, err := Open(dir, testOpts)
		if err != nil {
			t.Fatalf("recovery failed outright: %v", err)
		}
		defer s.Close()
		// Everything before the tail record survives, byte-identical.
		ch, err := s.Lookup(sig, "h1")
		if err != nil || ch == nil {
			t.Fatalf("pre-tail session lost: %v, %v", ch, err)
		}
		if !snapsEqual(ch.Snap, snap) || !batchesEqual(ch.Batches, [][]core.Edit{testEdits(1)}) {
			t.Fatal("pre-tail chain corrupted")
		}
		if s.Has(sig, "h2") != wantTail {
			t.Fatalf("Has(tail) = %v, want %v", !wantTail, wantTail)
		}
		// The recovered log accepts appends and survives another reopen.
		if _, err := s.AppendEdits(sig, "h1", "h9", testEdits(9)); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
	}

	t.Run("truncated", func(t *testing.T) {
		for off := tailOff; off < len(pristine); off++ {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, logName), pristine[:off], 0o644); err != nil {
				t.Fatal(err)
			}
			check(t, dir, false)
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		for off := tailOff; off < len(pristine); off++ {
			dir := t.TempDir()
			mut := slices.Clone(pristine)
			mut[off] ^= 0x41
			if err := os.WriteFile(filepath.Join(dir, logName), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			// A flipped bit anywhere in the tail frame fails its CRC (or its
			// marker/length sanity checks first): only the tail is dropped.
			check(t, dir, false)
		}
	})
	t.Run("intact", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, dir, true)
	})
}

// TestStoreOrphanedEdit: an edit record whose base chain never made it to
// the log (corruption fallout) is dropped at recovery, not served broken.
func TestStoreOrphanedEdit(t *testing.T) {
	dir := t.TempDir()
	payload, err := encodeEditsRecord(sig, "missing-base", "h1", testEdits(1))
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, headerSize+len(payload))
	frame[0] = recMarker
	frame[1] = recEdits
	putFrame(frame, payload)
	if err := os.WriteFile(filepath.Join(dir, logName), append(slices.Clone(fileMagic[:]), frame...), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir, testOpts)
	st := s.StatsSnapshot()
	if st.Orphans != 1 || st.LiveSessions != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if s.Has(sig, "h1") {
		t.Fatal("orphaned session is still visible")
	}
}

func TestStoreBadMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte("NOTAWAL1-and-some-garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOpts); err == nil {
		t.Fatal("Open accepted a file that is not a session log")
	}
}

func TestStoreStaleCompactScratch(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, testOpts)
	if err := s.AppendSnapshot(sig, "h0", testSnap(3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash between compaction's write and rename leaves the scratch file;
	// reopening must ignore and remove it.
	scratch := filepath.Join(dir, compactName)
	if err := os.WriteFile(scratch, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, testOpts)
	if !s2.Has(sig, "h0") {
		t.Fatal("session lost")
	}
	if _, err := os.Stat(scratch); !os.IsNotExist(err) {
		t.Fatalf("stale scratch file still present: %v", err)
	}
}

// putFrame fills in the length and CRC fields of a pre-built frame whose
// marker and type bytes are already set, and copies the payload in.
func putFrame(frame, payload []byte) {
	binary.LittleEndian.PutUint32(frame[2:6], uint32(len(payload)))
	crc := crc32.Update(0, crcTable, frame[1:6])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(frame[6:10], crc)
	copy(frame[headerSize:], payload)
}
