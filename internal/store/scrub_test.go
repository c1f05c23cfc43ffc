package store

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"declust/internal/layout"
)

func TestScrubCleanStoreVerifiesEverything(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	fillAll(t, s, 1)
	res, err := s.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if res.Stripes != s.Stripes() || res.Skipped != 0 {
		t.Fatalf("scrubbed %d stripes (skipped %d), want %d (0)", res.Stripes, res.Skipped, s.Stripes())
	}
	if res.UnitRepairs != 0 || res.ParityRewrites != 0 || res.Unrecoverable != 0 {
		t.Fatalf("clean store needed repairs: %+v", res)
	}
	if s.Stats().Scrubs != 1 {
		t.Fatalf("Scrubs = %d, want 1", s.Stats().Scrubs)
	}
}

// TestScrubRepairsRottedUnit: under each code the scrub reconstructs and
// rewrites a rotted unit, and resyncStripe repairs as many damaged units
// of one stripe as the code corrects and reports one more as
// unrecoverable.
func TestScrubRepairsRottedUnit(t *testing.T) {
	for _, tc := range testCodes {
		t.Run(tc.name, func(t *testing.T) {
			s := newStoreOn(t, tc.lay(t, 7, 4), 64, 512)
			m := s.Parities()
			fillAll(t, s, 6)
			rot(t, s, s.mapper.Loc(11))
			res, err := s.Scrub()
			if err != nil {
				t.Fatalf("Scrub: %v", err)
			}
			if res.UnitRepairs != 1 {
				t.Fatalf("UnitRepairs = %d, want 1", res.UnitRepairs)
			}
			verifyUnit(t, s, 11, 6)
			if err := s.CheckParity(); err != nil {
				t.Fatalf("CheckParity after scrub: %v", err)
			}

			st := s.st.Load()
			for j := 0; j < m; j++ {
				rot(t, s, s.lay.Unit(4, j))
			}
			if fix, err := s.resyncStripe(st, 4); err != nil || fix != fixUnit {
				t.Fatalf("%d damaged: resync = (%v, %v), want (fixUnit, nil)", m, fix, err)
			}
			for n := 4 * s.dataPerStripe; n < 5*s.dataPerStripe; n++ {
				verifyUnit(t, s, n, 6)
			}
			for j := 0; j <= m; j++ {
				rot(t, s, s.lay.Unit(5, j))
			}
			if _, err := s.resyncStripe(st, 5); !errors.Is(err, ErrUnrecoverable) {
				t.Fatalf("%d damaged: resync = %v, want ErrUnrecoverable", m+1, err)
			}
		})
	}
}

// TestScrubDetectsLostParityWrite drops one parity commit per parity unit
// — data goes down, that parity stays stale. The unit checksums all
// verify; only the parity equation betrays the lost write, and the scrub
// resolves it in favor of data. resyncStripe, which the scrub runs per
// stripe, recomputes whichever parity is stale, each independently, and
// leaves a clean stripe alone.
func TestScrubDetectsLostParityWrite(t *testing.T) {
	for _, tc := range testCodes {
		t.Run(tc.name, func(t *testing.T) {
			s, fds := faultStore(t, tc.lay(t, 7, 4), 64, 512,
				func(int) FaultConfig { return FaultConfig{} }, Config{})
			m := s.Parities()
			fillAll(t, s, 1)
			for k := 0; k < m; k++ {
				n := int64(3 + 10*k)
				stripe, _ := s.lay.Locate(s.mapper.Loc(n))
				fds[layout.ParityLocOf(s.lay, stripe, k).Disk].LoseNextWrite()
				buf := make([]byte, s.UnitSize())
				fill(buf, n, 2)
				if err := s.WriteUnit(n, buf); err != nil {
					t.Fatalf("WriteUnit with lost parity %d: %v", k, err)
				}
				if err := s.CheckParity(); err == nil {
					t.Fatalf("CheckParity missed stale parity %d", k)
				}
				res, err := s.Scrub()
				if err != nil {
					t.Fatalf("Scrub: %v", err)
				}
				if res.ParityRewrites != 1 {
					t.Fatalf("ParityRewrites = %d, want 1", res.ParityRewrites)
				}
				if err := s.CheckParity(); err != nil {
					t.Fatalf("CheckParity after scrub: %v", err)
				}
				verifyUnit(t, s, n, 2)
			}

			fillAll(t, s, 11)
			st := s.st.Load()
			for k := 0; k < m; k++ {
				stripe := int64(1 + k)
				u := layout.ParityLocOf(s.lay, stripe, k)
				phys := make([]byte, s.physSize)
				for i := 0; i < s.unitSize; i++ {
					phys[i] = byte(0xA5 ^ i)
				}
				if err := s.writeStamped(st.disk(u), u.Disk, u.Offset, phys); err != nil {
					t.Fatal(err)
				}
				if fix, err := s.resyncStripe(st, stripe); err != nil || fix != fixParity {
					t.Fatalf("stale parity %d: resync = (%v, %v), want (fixParity, nil)", k, fix, err)
				}
			}
			if fix, err := s.resyncStripe(st, int64(1+m)); err != nil || fix != fixNone {
				t.Fatalf("clean stripe: resync = (%v, %v), want (fixNone, nil)", fix, err)
			}
			if err := s.CheckParity(); err != nil {
				t.Fatalf("CheckParity after resync: %v", err)
			}
			for n := int64(0); n < s.DataUnits(); n++ {
				verifyUnit(t, s, n, 11)
			}
		})
	}
}

// TestPQResyncChecksUnusedParity pairs a lost parity write (the parity
// stays stale under a valid checksum) with a rotted unit in the same P+Q
// stripe. A rotted data unit solves through one parity; when the other
// parity does not balance over the repair, the stripe holds one more error
// than P+Q can locate, so the scrub must write nothing, count the stripe
// unrecoverable, and keep the parity-doubt latch. A rotted parity leaves
// every data unit readable, so both parities are recomputed from data.
func TestPQResyncChecksUnusedParity(t *testing.T) {
	for _, tc := range []struct {
		name      string
		lost      int  // parity whose write is lost
		rotParity bool // rot parity P instead of a sibling data unit
		unrec     bool
	}{
		{"lost-Q-rotted-data", 1, false, true},
		{"lost-P-rotted-data", 0, false, true},
		{"lost-Q-rotted-P", 1, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, fds := faultStore(t, testPQLayout(t, 7, 4), 64, 512,
				func(int) FaultConfig { return FaultConfig{} }, Config{})
			fillAll(t, s, 1)
			const stripe = 1
			n := stripe * s.dataPerStripe // first data unit of the stripe
			fds[layout.ParityLocOf(s.lay, stripe, tc.lost).Disk].LoseNextWrite()
			buf := make([]byte, s.UnitSize())
			fill(buf, n, 2)
			if err := s.WriteUnit(n, buf); err != nil {
				t.Fatal(err)
			}
			victim := s.mapper.Loc(n + 1)
			if tc.rotParity {
				victim = layout.ParityLocOf(s.lay, stripe, 0)
			}
			rot(t, s, victim)

			image := func() [][]byte {
				st := s.st.Load()
				var out [][]byte
				for j := 0; j < s.lay.G(); j++ {
					u := s.lay.Unit(stripe, j)
					phys := make([]byte, s.physSize)
					if err := st.disks[u.Disk].ReadUnit(u.Offset, phys); err != nil {
						t.Fatal(err)
					}
					out = append(out, phys)
				}
				return out
			}
			before := image()
			s.parityDoubt.Store(true)
			res, err := s.Scrub()
			if !tc.unrec {
				if err != nil || res.UnitRepairs != 1 {
					t.Fatalf("Scrub = (%+v, %v), want one unit repair", res, err)
				}
				if err := s.CheckParity(); err != nil {
					t.Fatalf("CheckParity after scrub: %v", err)
				}
				verifyUnit(t, s, n, 2)
				verifyUnit(t, s, n+1, 1)
				return
			}
			if !errors.Is(err, ErrUnrecoverable) || res.Unrecoverable != 1 || res.UnitRepairs != 0 {
				t.Fatalf("Scrub = (%+v, %v), want the stripe counted unrecoverable", res, err)
			}
			if !s.parityDoubt.Load() {
				t.Fatal("scrub with an unrecoverable stripe cleared the parity-doubt latch")
			}
			for j, b := range image() {
				if !bytes.Equal(b, before[j]) {
					t.Fatalf("scrub rewrote position %d of the unrecoverable stripe", j)
				}
			}
		})
	}
}

func TestScrubCountsUnrecoverableStripes(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	fillAll(t, s, 1)
	// Rot two units of stripe 0: beyond single parity.
	st := s.st.Load()
	for j := 0; j < 2; j++ {
		u := s.lay.Unit(0, j)
		if err := st.disks[u.Disk].WriteUnit(u.Offset, bytes.Repeat([]byte{0xBD}, s.physSize)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Scrub()
	if err == nil || !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Scrub returned %v, want an ErrUnrecoverable", err)
	}
	if res.Unrecoverable != 1 {
		t.Fatalf("Unrecoverable = %d, want 1", res.Unrecoverable)
	}
	if res.Stripes != s.Stripes()-1 {
		t.Fatalf("scrub stopped early: verified %d of %d stripes", res.Stripes, s.Stripes()-1)
	}
}

func TestScrubSkipsDegradedStripes(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	fillAll(t, s, 1)
	if err := s.Fail(0); err != nil {
		t.Fatal(err)
	}
	res, err := s.Scrub()
	if err != nil {
		t.Fatalf("Scrub degraded: %v", err)
	}
	if res.Skipped == 0 {
		t.Fatal("degraded scrub skipped no stripes")
	}
	if res.Stripes+res.Skipped != s.Stripes() {
		t.Fatalf("scrubbed %d + skipped %d != %d stripes", res.Stripes, res.Skipped, s.Stripes())
	}
}

// TestIntentRecoveryResyncsDirtyRegions simulates a crash by abandoning a
// file-backed store (no Close, so its intent log still has the written
// region marked) after dropping a parity commit, then reopens over the
// same files and expects the recovery pass to repair the stripe.
func TestIntentRecoveryResyncsDirtyRegions(t *testing.T) {
	dir := t.TempDir()
	lay := testLayout(t, 5, 5)
	usable := layout.UsableUnitsPerDisk(lay, 40)

	open := func() (*Store, []*FaultDisk) {
		raw, err := OpenFileDisks(dir, 5, usable, 512)
		if err != nil {
			t.Fatal(err)
		}
		fds := make([]*FaultDisk, len(raw))
		disks := make([]Disk, len(raw))
		for i, d := range raw {
			fds[i] = NewFaultDisk(d, FaultConfig{})
			disks[i] = fds[i]
		}
		s, err := New(Config{
			Layout:       lay,
			UnitsPerDisk: 40,
			UnitSize:     512,
			Disks:        disks,
			Intent:       OpenFileIntent(filepath.Join(dir, "intent.log")),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, fds
	}

	s1, fds := open()
	fillAll(t, s1, 1)
	if err := s1.Sync(); err != nil {
		t.Fatal(err)
	}
	// Re-dirty one region with a write whose parity commit is dropped.
	n := int64(2)
	loc := s1.mapper.Loc(n)
	stripe, _ := s1.lay.Locate(loc)
	ploc := layout.ParityLoc(s1.lay, stripe)
	fds[ploc.Disk].LoseNextWrite()
	buf := make([]byte, 512)
	fill(buf, n, 2)
	if err := s1.WriteUnit(n, buf); err != nil {
		t.Fatal(err)
	}
	// "Crash": abandon s1 without Close or Sync. The region is still
	// marked in intent.log and the parity on disk is stale.

	s2, _ := open()
	defer s2.Close()
	st := s2.Stats()
	if st.ResyncedStripes == 0 {
		t.Fatal("reopen found no dirty regions to resync")
	}
	if st.ResyncRepairs == 0 {
		t.Fatal("recovery pass repaired nothing despite a stale parity unit")
	}
	if err := s2.CheckParity(); err != nil {
		t.Fatalf("CheckParity after recovery: %v", err)
	}
	verifyUnit(t, s2, n, 2)
	for u := int64(0); u < s2.DataUnits(); u++ {
		if u != n {
			verifyUnit(t, s2, u, 1)
		}
	}
}

// TestCleanCloseClearsIntent verifies the happy path pays no recovery:
// Sync+Close leave the intent log clean, so reopening resyncs nothing.
func TestCleanCloseClearsIntent(t *testing.T) {
	dir := t.TempDir()
	lay := testLayout(t, 5, 5)
	usable := layout.UsableUnitsPerDisk(lay, 40)
	openStore := func() *Store {
		disks, err := OpenFileDisks(dir, 5, usable, 512)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{
			Layout:       lay,
			UnitsPerDisk: 40,
			UnitSize:     512,
			Disks:        disks,
			Intent:       OpenFileIntent(filepath.Join(dir, "intent.log")),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := openStore()
	fillAll(t, s1, 1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore()
	defer s2.Close()
	if got := s2.Stats().ResyncedStripes; got != 0 {
		t.Fatalf("clean reopen resynced %d stripes, want 0", got)
	}
	for u := int64(0); u < s2.DataUnits(); u++ {
		verifyUnit(t, s2, u, 1)
	}
}
