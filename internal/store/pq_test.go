package store

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"declust/internal/core"
	"declust/internal/layout"
)

// testPQLayout selects a P+Q dual-parity layout the way the facade does.
func testPQLayout(t testing.TB, c, g int) layout.Layout {
	t.Helper()
	m, err := core.NewPQMapping(c, g, 0)
	if err != nil {
		t.Fatalf("NewPQMapping(%d, %d): %v", c, g, err)
	}
	return m.Layout
}

func newTestPQStore(t testing.TB, c, g int, unitsPerDisk int64, unitSize int) *Store {
	t.Helper()
	return newStoreOn(t, testPQLayout(t, c, g), unitsPerDisk, unitSize)
}

func TestPQRoundTripAndParity(t *testing.T) {
	s := newTestPQStore(t, 7, 4, 64, 512)
	if got := s.Parities(); got != 2 {
		t.Fatalf("Parities() = %d, want 2", got)
	}
	fillAll(t, s, 1)
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 1)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	// Overwrites take the six-access delta RMW; both equations must follow.
	buf := make([]byte, s.UnitSize())
	for n := int64(0); n < s.DataUnits(); n += 2 {
		fill(buf, n, 2)
		if err := s.WriteUnit(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	// Range writes cover the large-write (fresh P and Q) path.
	span := make([]byte, int(s.DataUnits())*s.UnitSize())
	for n := int64(0); n < s.DataUnits(); n++ {
		fill(span[n*int64(s.UnitSize()):(n+1)*int64(s.UnitSize())], n, 3)
	}
	if err := s.WriteRange(0, span); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 3)
	}
}

// TestPQTwoErasureDecodeBranches drives each of the three 2-erasure decode
// cases by choosing which two disks to fail relative to stripe 0's layout:
// erased P + a data unit (decode through Q), erased Q + a data unit
// (decode through P, recompute Q), and two data units (the Pxy/Qxy
// two-unknown solve). Every unit of the store must stay byte-exact through
// the double-degraded window, the writes, and both rebuilds.
func TestPQTwoErasureDecodeBranches(t *testing.T) {
	lay := testPQLayout(t, 7, 4)
	pDisk := layout.ParityLocOf(lay, 0, 0).Disk
	qDisk := layout.ParityLocOf(lay, 0, 1).Disk
	d0 := lay.Unit(0, layout.DataPos(lay, 0, 0)).Disk
	d1 := lay.Unit(0, layout.DataPos(lay, 0, 1)).Disk
	cases := []struct {
		name  string
		fails [2]int
	}{
		{"erased-P", [2]int{pDisk, d0}},
		{"erased-Q", [2]int{qDisk, d0}},
		{"two-data", [2]int{d0, d1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Layout: lay, UnitsPerDisk: 64, UnitSize: 512})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			fillAll(t, s, 1)
			if err := s.Fail(tc.fails[0]); err != nil {
				t.Fatal(err)
			}
			if err := s.Fail(tc.fails[1]); err != nil {
				t.Fatal(err)
			}
			if got := s.FailedDisks(); len(got) != 2 {
				t.Fatalf("FailedDisks() = %v, want two entries", got)
			}
			// Every unit must decode while doubly degraded.
			for n := int64(0); n < s.DataUnits(); n++ {
				verifyUnit(t, s, n, 1)
			}
			if s.Stats().DegradedReads == 0 {
				t.Fatal("no reads were served by reconstruction")
			}
			// Writes while doubly degraded: folds, lost parity, delta RMW.
			buf := make([]byte, s.UnitSize())
			for n := int64(0); n < s.DataUnits(); n += 3 {
				fill(buf, n, 2)
				if err := s.WriteUnit(n, buf); err != nil {
					t.Fatal(err)
				}
			}
			for _, want := range []Mode{Degraded, Healthy} {
				if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
					t.Fatal(err)
				}
				if got := s.Mode(); got != want {
					t.Fatalf("mode %v after rebuild, want %v", got, want)
				}
			}
			for n := int64(0); n < s.DataUnits(); n++ {
				v := uint64(1)
				if n%3 == 0 {
					v = 2
				}
				verifyUnit(t, s, n, v)
			}
			if err := s.CheckParity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPQEveryTwoDisksRecover is the double-failure property over ALL disk
// pairs: fail d1, write through the window, fail d2, write again, verify
// everything byte-for-byte, rebuild both, verify again. Single parity
// proves this for every single disk; P+Q must prove it for every pair.
func TestPQEveryTwoDisksRecover(t *testing.T) {
	lay := testPQLayout(t, 7, 4)
	for d1 := 0; d1 < lay.Disks(); d1++ {
		for d2 := d1 + 1; d2 < lay.Disks(); d2++ {
			s, err := New(Config{Layout: lay, UnitsPerDisk: 32, UnitSize: 512})
			if err != nil {
				t.Fatal(err)
			}
			fillAll(t, s, 1)
			if err := s.Fail(d1); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, s.UnitSize())
			for n := int64(0); n < s.DataUnits(); n += 3 {
				fill(buf, n, 2)
				if err := s.WriteUnit(n, buf); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Fail(d2); err != nil {
				t.Fatal(err)
			}
			for n := int64(1); n < s.DataUnits(); n += 3 {
				fill(buf, n, 3)
				if err := s.WriteUnit(n, buf); err != nil {
					t.Fatal(err)
				}
			}
			version := func(n int64) uint64 {
				switch n % 3 {
				case 0:
					return 2
				case 1:
					return 3
				}
				return 1
			}
			for n := int64(0); n < s.DataUnits(); n++ {
				verifyUnit(t, s, n, version(n))
			}
			if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
				t.Fatalf("pair (%d,%d) first rebuild: %v", d1, d2, err)
			}
			if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
				t.Fatalf("pair (%d,%d) second rebuild: %v", d1, d2, err)
			}
			if got := s.Mode(); got != Healthy {
				t.Fatalf("pair (%d,%d): mode %v after both rebuilds", d1, d2, got)
			}
			for n := int64(0); n < s.DataUnits(); n++ {
				verifyUnit(t, s, n, version(n))
			}
			if err := s.CheckParity(); err != nil {
				t.Fatalf("pair (%d,%d): %v", d1, d2, err)
			}
			s.Close()
		}
	}
}

func TestPQThirdFailureRejected(t *testing.T) {
	s := newTestPQStore(t, 7, 4, 32, 512)
	fillAll(t, s, 1)
	if err := s.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(0); err == nil {
		t.Fatal("re-failing the same disk succeeded")
	}
	if err := s.Fail(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(2); err == nil {
		t.Fatal("third concurrent failure accepted")
	}
}

// TestPQScrubHealsTwoDamagedUnits rots two units of one stripe — beyond
// single parity, within P+Q — and expects the scrub to reconstruct and
// rewrite both. A third rotted unit must report ErrUnrecoverable.
func TestPQScrubHealsTwoDamagedUnits(t *testing.T) {
	s := newTestPQStore(t, 7, 4, 64, 512)
	fillAll(t, s, 4)
	st := s.st.Load()
	for j := 0; j < 2; j++ {
		u := s.lay.Unit(0, j)
		if err := st.disks[u.Disk].WriteUnit(u.Offset, bytes.Repeat([]byte{0xEE}, s.physSize)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if res.UnitRepairs != 1 {
		t.Fatalf("UnitRepairs = %d stripes, want 1", res.UnitRepairs)
	}
	if healed := s.Stats().HealedUnits; healed != 2 {
		t.Fatalf("HealedUnits = %d, want 2", healed)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatalf("CheckParity after scrub: %v", err)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 4)
	}

	// Three rotted units in one stripe exceed even P+Q.
	st = s.st.Load()
	for j := 0; j < 3; j++ {
		u := s.lay.Unit(1, j)
		if err := st.disks[u.Disk].WriteUnit(u.Offset, bytes.Repeat([]byte{0xBD}, s.physSize)); err != nil {
			t.Fatal(err)
		}
	}
	res, err = s.Scrub()
	if err == nil || !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Scrub returned %v, want ErrUnrecoverable", err)
	}
	if res.Unrecoverable != 1 {
		t.Fatalf("Unrecoverable = %d, want 1", res.Unrecoverable)
	}
}

// TestPQSelfHealingDegradedRead damages a survivor while one disk is
// already lost: a degraded read then needs both remaining codes — the
// damaged unit is absorbed as a second erasure, healed in place, and the
// lost unit's contents still come back byte-exact.
func TestPQSelfHealingDegradedRead(t *testing.T) {
	s := newTestPQStore(t, 7, 4, 64, 512)
	fillAll(t, s, 1)
	// Find a data unit, fail its disk, then rot one sibling of its stripe.
	n := int64(5)
	loc := s.mapper.Loc(n)
	stripe, _ := s.lay.Locate(loc)
	if err := s.Fail(loc.Disk); err != nil {
		t.Fatal(err)
	}
	st := s.st.Load()
	var sib layout.Loc
	for j := 0; j < s.lay.G(); j++ {
		u := s.lay.Unit(stripe, j)
		if u.Disk != loc.Disk {
			sib = u
			break
		}
	}
	if err := st.disks[sib.Disk].WriteUnit(sib.Offset, bytes.Repeat([]byte{0xAA}, s.physSize)); err != nil {
		t.Fatal(err)
	}
	verifyUnit(t, s, n, 1)
	if s.Stats().HealedUnits == 0 {
		t.Fatal("damaged survivor was not healed in place")
	}
	// The whole store must still verify.
	for u := int64(0); u < s.DataUnits(); u++ {
		verifyUnit(t, s, u, 1)
	}
}

// TestPQConcurrentDoubleFailureRebuild is the tentpole acceptance run:
// concurrent clients read and write while the main goroutine fails two
// disks mid-traffic, holds a doubly-degraded window, then rebuilds both.
// Under -race this doubles as the engine's publication-safety proof; at
// the end every acknowledged write reads back byte-for-byte and both
// parity equations balance.
func TestPQConcurrentDoubleFailureRebuild(t *testing.T) {
	lay := testPQLayout(t, 7, 4)
	s, err := New(Config{
		Layout: lay, UnitsPerDisk: 64, UnitSize: 512,
		IOWorkers: 8, RebuildWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const workers = 12
	per := s.DataUnits() / workers
	if per < 2 {
		t.Fatalf("only %d units per worker", per)
	}
	var (
		ops  atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	versions := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		lo := int64(w) * per
		hi := lo + per
		if w == workers-1 {
			hi = s.DataUnits()
		}
		vers := make([]uint64, hi-lo)
		versions[w] = vers
		wg.Add(1)
		go func(w int, lo, hi int64, vers []uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			buf := make([]byte, s.UnitSize())
			for u := lo; u < hi; u++ {
				fill(buf, u, 1)
				if err := s.WriteUnit(u, buf); err != nil {
					t.Errorf("worker %d: settle WriteUnit(%d): %v", w, u, err)
					return
				}
				vers[u-lo] = 1
			}
			for !stop.Load() {
				u := lo + rng.Int63n(hi-lo)
				if rng.Intn(2) == 0 {
					v := vers[u-lo] + 1
					fill(buf, u, v)
					if err := s.WriteUnit(u, buf); err != nil {
						t.Errorf("worker %d: WriteUnit(%d): %v", w, u, err)
						return
					}
					vers[u-lo] = v
				} else {
					if err := s.ReadUnit(u, buf); err != nil {
						t.Errorf("worker %d: ReadUnit(%d): %v", w, u, err)
						return
					}
					if !patternMatches(buf, u, vers[u-lo]) {
						t.Errorf("worker %d: unit %d stale (want version %d)", w, u, vers[u-lo])
						return
					}
				}
				ops.Add(1)
			}
		}(w, lo, hi, vers)
	}

	waitOps := func(target int64, what string) {
		deadline := time.Now().Add(2 * time.Minute)
		for ops.Load() < target && !t.Failed() {
			if time.Now().After(deadline) {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("timed out waiting for %s (%d/%d ops)", what, ops.Load(), target)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	waitOps(2000, "healthy traffic")
	if err := s.Fail(1); err != nil {
		t.Fatalf("first Fail: %v", err)
	}
	waitOps(ops.Load()+1000, "single-degraded traffic")
	if err := s.Fail(4); err != nil {
		t.Fatalf("second Fail: %v", err)
	}
	waitOps(ops.Load()+1000, "double-degraded traffic")
	if !t.Failed() {
		if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
			t.Fatalf("first Rebuild: %v", err)
		}
		if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
			t.Fatalf("second Rebuild: %v", err)
		}
	}
	waitOps(ops.Load()+1000, "post-rebuild traffic")
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if got := s.Mode(); got != Healthy {
		t.Fatalf("mode %v after both rebuilds, want healthy", got)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatalf("CheckParity after double failure: %v", err)
	}
	buf := make([]byte, s.UnitSize())
	for w := 0; w < workers; w++ {
		lo := int64(w) * per
		for i, v := range versions[w] {
			u := lo + int64(i)
			if err := s.ReadUnit(u, buf); err != nil {
				t.Fatalf("final ReadUnit(%d): %v", u, err)
			}
			if !patternMatches(buf, u, v) {
				t.Fatalf("unit %d lost acknowledged version %d", u, v)
			}
		}
	}
	st := s.Stats()
	t.Logf("pq double failure: ops=%d degradedReads=%d rebuilt=%d foldedWrites=%d",
		ops.Load(), st.DegradedReads, st.RebuiltUnits, st.FoldedWrites)
	if st.DegradedReads == 0 {
		t.Error("run exercised no degraded reads")
	}
	if st.Rebuilds != 2 {
		t.Errorf("Rebuilds = %d, want 2", st.Rebuilds)
	}
}
