package store

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"testing"

	"declust/internal/core"
	"declust/internal/layout"
)

// testLayout selects a layout the way the facade does.
func testLayout(t testing.TB, c, g int) layout.Layout {
	t.Helper()
	m, err := core.NewMapping(c, g, 0)
	if err != nil {
		t.Fatalf("NewMapping(%d, %d): %v", c, g, err)
	}
	return m.Layout
}

// testCodes are the stripe codes the code-generic tests run over, each
// with the layout selector that builds it.
var testCodes = []struct {
	name string
	lay  func(t testing.TB, c, g int) layout.Layout
}{
	{"P", testLayout},
	{"PQ", testPQLayout},
}

func newTestStore(t testing.TB, c, g int, unitsPerDisk int64, unitSize int) *Store {
	t.Helper()
	return newStoreOn(t, testLayout(t, c, g), unitsPerDisk, unitSize)
}

// newStoreOn builds a mem-backed store over lay, closed at cleanup.
func newStoreOn(t testing.TB, lay layout.Layout, unitsPerDisk int64, unitSize int) *Store {
	t.Helper()
	s, err := New(Config{
		Layout:       lay,
		UnitsPerDisk: unitsPerDisk,
		UnitSize:     unitSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// fill writes a deterministic pattern for (unit, version) into buf.
func fill(buf []byte, unit int64, version uint64) {
	x := uint64(unit)*0x9e3779b97f4a7c15 + version*0xbf58476d1ce4e5b9 + 1
	for i := 0; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

// verifyUnit reads unit n and asserts it holds pattern (n, version).
func verifyUnit(t *testing.T, s *Store, n int64, version uint64) {
	t.Helper()
	got := make([]byte, s.UnitSize())
	want := make([]byte, s.UnitSize())
	if err := s.ReadUnit(n, got); err != nil {
		t.Fatalf("ReadUnit(%d): %v", n, err)
	}
	fill(want, n, version)
	if !bytes.Equal(got, want) {
		t.Fatalf("unit %d: read-back does not match version %d write", n, version)
	}
}

// fillAll writes pattern (n, version) to every data unit.
func fillAll(t *testing.T, s *Store, version uint64) {
	t.Helper()
	buf := make([]byte, s.UnitSize())
	for n := int64(0); n < s.DataUnits(); n++ {
		fill(buf, n, version)
		if err := s.WriteUnit(n, buf); err != nil {
			t.Fatalf("WriteUnit(%d): %v", n, err)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	if s.DataUnits() == 0 {
		t.Fatal("no data units")
	}
	fillAll(t, s, 1)
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 1)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	// Overwrites exercise the read-modify-write path; parity must follow.
	for n := int64(0); n < s.DataUnits(); n += 3 {
		buf := make([]byte, s.UnitSize())
		fill(buf, n, 2)
		if err := s.WriteUnit(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	if got := s.Mode(); got != Healthy {
		t.Fatalf("mode %v, want healthy", got)
	}
}

func TestRangeOpsMatchUnitOps(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	us := s.UnitSize()
	n := s.DataUnits()
	// An unaligned span covering partial and whole stripes.
	start, count := int64(1), n-2
	src := make([]byte, int(count)*us)
	for i := int64(0); i < count; i++ {
		fill(src[i*int64(us):(i+1)*int64(us)], start+i, 7)
	}
	if err := s.WriteRange(start, src); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := s.ReadRange(start, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("ReadRange does not match WriteRange")
	}
	for i := int64(0); i < count; i++ {
		verifyUnit(t, s, start+i, 7)
	}
}

func TestDegradedReadsReconstruct(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	fillAll(t, s, 1)
	if err := s.Fail(2); err != nil {
		t.Fatal(err)
	}
	if got := s.Mode(); got != Degraded {
		t.Fatalf("mode %v, want degraded", got)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 1)
	}
	if s.Stats().DegradedReads == 0 {
		t.Fatal("no reads were served by on-the-fly reconstruction")
	}
}

func TestDegradedWritesFoldIntoParity(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	fillAll(t, s, 1)
	if err := s.Fail(3); err != nil {
		t.Fatal(err)
	}
	fillAll(t, s, 2) // every write path: folds, lost parity, healthy RMW
	if s.Stats().FoldedWrites == 0 {
		t.Fatal("no writes folded into parity while degraded")
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 2)
	}
	// Rebuild onto a blank disk and verify the heal.
	if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
		t.Fatal(err)
	}
	if got := s.Mode(); got != Healthy {
		t.Fatalf("mode %v, want healthy after rebuild", got)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 2)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	done, total := s.RebuildProgress()
	if done != total {
		t.Fatalf("rebuild progress %d/%d after heal", done, total)
	}
}

// TestEveryDiskRecovers fails each disk in turn on a fresh store, writes
// through the degraded window, rebuilds, and verifies every unit — the
// single-failure property over all failure positions.
func TestEveryDiskRecovers(t *testing.T) {
	lay := testLayout(t, 7, 3)
	for d := 0; d < lay.Disks(); d++ {
		s, err := New(Config{Layout: lay, UnitsPerDisk: 64, UnitSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		fillAll(t, s, 1)
		if err := s.Fail(d); err != nil {
			t.Fatal(err)
		}
		// Overwrite a third of the units while degraded.
		buf := make([]byte, s.UnitSize())
		for n := int64(0); n < s.DataUnits(); n += 3 {
			fill(buf, n, 2)
			if err := s.WriteUnit(n, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
			t.Fatal(err)
		}
		for n := int64(0); n < s.DataUnits(); n++ {
			v := uint64(1)
			if n%3 == 0 {
				v = 2
			}
			verifyUnit(t, s, n, v)
		}
		if err := s.CheckParity(); err != nil {
			t.Fatalf("disk %d: %v", d, err)
		}
		s.Close()
	}
}

// TestRebuildAnyFailurePoint interleaves the failure with a write
// sequence at several points; data written before and after the failure
// must both survive the rebuild.
func TestRebuildAnyFailurePoint(t *testing.T) {
	lay := testLayout(t, 7, 3)
	total := layout.DataUnits(lay, 64)
	probe := []int64{0, total / 3, 2 * total / 3, total}
	for _, failAt := range probe {
		s, err := New(Config{Layout: lay, UnitsPerDisk: 64, UnitSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, s.UnitSize())
		for n := int64(0); n < total; n++ {
			if n == failAt {
				if err := s.Fail(1); err != nil {
					t.Fatal(err)
				}
			}
			fill(buf, n, 9)
			if err := s.WriteUnit(n, buf); err != nil {
				t.Fatal(err)
			}
		}
		if failAt == total {
			if err := s.Fail(1); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
			t.Fatal(err)
		}
		for n := int64(0); n < total; n++ {
			verifyUnit(t, s, n, 9)
		}
		if err := s.CheckParity(); err != nil {
			t.Fatalf("fail point %d: %v", failAt, err)
		}
		s.Close()
	}
}

func TestFileBackedPersistence(t *testing.T) {
	dir := t.TempDir()
	lay := testLayout(t, 5, 5) // RAID 5 exercise of the other layout family
	const units, us = 40, 512
	disks, err := OpenFileDisks(dir, lay.Disks(), units, us)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Layout: lay, UnitsPerDisk: units, UnitSize: us, Disks: disks})
	if err != nil {
		t.Fatal(err)
	}
	fillAll(t, s, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the same files: contents and parity must have persisted.
	disks, err = OpenFileDisks(dir, lay.Disks(), units, us)
	if err != nil {
		t.Fatal(err)
	}
	s, err = New(Config{Layout: lay, UnitsPerDisk: units, UnitSize: us, Disks: disks})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 5)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	// A file-backed rebuild: fail one file, rebuild onto a fresh one.
	if err := s.Fail(3); err != nil {
		t.Fatal(err)
	}
	repl, err := OpenFileDisk(filepath.Join(dir, "replacement.dat"), units, us)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(repl); err != nil {
		t.Fatal(err)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 5)
	}
}

func TestConfigAndStateErrors(t *testing.T) {
	lay := testLayout(t, 7, 3)
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without layout succeeded")
	}
	if _, err := New(Config{Layout: lay, UnitSize: 12}); err == nil {
		t.Fatal("New with non-multiple-of-8 unit size succeeded")
	}
	if _, err := New(Config{Layout: lay, UnitsPerDisk: 1}); err == nil {
		t.Fatal("New with sub-period capacity succeeded")
	}
	if _, err := New(Config{Layout: lay, Disks: make([]Disk, 2)}); err == nil {
		t.Fatal("New with wrong disk count succeeded")
	}

	s := newTestStore(t, 7, 3, 64, 512)
	buf := make([]byte, 512)
	if err := s.ReadUnit(-1, buf); err == nil {
		t.Fatal("negative unit read succeeded")
	}
	if err := s.ReadUnit(s.DataUnits(), buf); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	if err := s.WriteUnit(0, buf[:8]); err == nil {
		t.Fatal("short-buffer write succeeded")
	}
	if err := s.ReadRange(0, buf[:100]); err == nil {
		t.Fatal("misaligned range succeeded")
	}
	if err := s.Rebuild(NewMemDisk(64, 512)); err == nil {
		t.Fatal("rebuild of healthy store succeeded")
	}
	if err := s.Fail(99); err == nil {
		t.Fatal("fail of out-of-range disk succeeded")
	}
	if err := s.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(1); err == nil {
		t.Fatal("second concurrent failure accepted")
	}
	if err := s.Rebuild(nil); err == nil {
		t.Fatal("nil replacement accepted")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{Healthy: "healthy", Degraded: "degraded", Rebuilding: "rebuilding", Mode(9): "Mode(9)"} {
		if got := m.String(); got != want {
			t.Fatalf("Mode %d String() = %q, want %q", int(m), got, want)
		}
	}
}
