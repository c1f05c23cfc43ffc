package array

import (
	"math/rand"
	"testing"

	"declust/internal/blockdesign"
	"declust/internal/disk"
	"declust/internal/layout"
	"declust/internal/sim"
)

// testArray builds a small array: the paper's G=5 declustered layout over
// 21 disks, on 1/100-scale drives (9 cylinders, 756 units, 755 usable).
func testArray(t *testing.T, mutate func(*Config)) (*sim.Engine, *Array) {
	t.Helper()
	d, err := blockdesign.PaperDesign(5)
	if err != nil {
		t.Fatal(err)
	}
	l, err := layout.NewDeclustered(d)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Layout:      l,
		Geom:        disk.IBM0661().Scaled(1, 100),
		UnitSectors: 8,
		CvscanBias:  0.2,
		ReconProcs:  1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	eng := sim.New()
	a, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, a
}

func raid5Array(t *testing.T, c int, mutate func(*Config)) (*sim.Engine, *Array) {
	t.Helper()
	l, err := layout.NewRaid5(c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Layout:      l,
		Geom:        disk.IBM0661().Scaled(1, 100),
		UnitSectors: 8,
		CvscanBias:  0.2,
		ReconProcs:  1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	eng := sim.New()
	a, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, a
}

func totalCompleted(a *Array) int64 {
	var n int64
	for i := 0; i < a.Layout().Disks(); i++ {
		n += a.Disk(i).Stats().Completed
	}
	return n
}

func TestNewRejectsBadConfig(t *testing.T) {
	eng := sim.New()
	l, _ := layout.NewRaid5(5)
	good := Config{Layout: l, Geom: disk.IBM0661(), UnitSectors: 8}
	if _, err := New(eng, good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Geom: disk.IBM0661(), UnitSectors: 8},             // nil layout
		{Layout: l, Geom: disk.Geometry{}, UnitSectors: 8}, // bad geometry
		{Layout: l, Geom: disk.IBM0661(), UnitSectors: 0},  // bad unit size
	}
	for i, cfg := range bad {
		if _, err := New(eng, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestInitialStateConsistent(t *testing.T) {
	_, a := testArray(t, nil)
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if a.Degraded() || a.Reconstructing() || a.FailedDisk() != -1 {
		t.Fatal("fresh array not fault-free")
	}
}

func TestFaultFreeReadReturnsData(t *testing.T) {
	eng, a := testArray(t, nil)
	for _, unit := range []int64{0, 1, a.DataUnits() / 2, a.DataUnits() - 1} {
		var got uint64
		a.Read(unit, func(v uint64) { got = v })
		eng.Run()
		if got != a.ExpectedValue(unit) {
			t.Fatalf("unit %d read %#x, want %#x", unit, got, a.ExpectedValue(unit))
		}
	}
}

func TestFaultFreeReadIsOneAccess(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Read(17, func(uint64) {})
	eng.Run()
	if n := totalCompleted(a); n != 1 {
		t.Fatalf("read used %d disk accesses, want 1", n)
	}
}

func TestFaultFreeWriteIsFourAccesses(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Write(17, func() {})
	eng.Run()
	if n := totalCompleted(a); n != 4 {
		t.Fatalf("write used %d disk accesses, want 4 (paper §6)", n)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSmallWriteOptimizationIsThreeAccesses(t *testing.T) {
	// G=3 with the optimization: write data, read companion, write parity.
	d, err := blockdesign.PaperDesign(3)
	if err != nil {
		t.Fatal(err)
	}
	l, err := layout.NewDeclustered(d)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	a, err := New(eng, Config{
		Layout: l, Geom: disk.IBM0661().Scaled(1, 100), UnitSectors: 8,
		CvscanBias: 0.2, SmallWriteOpt: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Write(5, func() {})
	eng.Run()
	if n := totalCompleted(a); n != 3 {
		t.Fatalf("G=3 optimized write used %d accesses, want 3", n)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteThenReadBack(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Write(100, func() {
		a.Read(100, func(v uint64) {
			if v != a.ExpectedValue(100) {
				t.Errorf("read back %#x, want %#x", v, a.ExpectedValue(100))
			}
		})
	})
	eng.Run()
}

func TestManyRandomOpsStayConsistent(t *testing.T) {
	eng, a := testArray(t, nil)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		unit := rng.Int63n(a.DataUnits())
		when := rng.Float64() * 5000
		if rng.Intn(2) == 0 {
			eng.At(when, func() { a.Read(unit, func(uint64) {}) })
		} else {
			eng.At(when, func() { a.Write(unit, func() {}) })
		}
	}
	eng.Run()
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentWritesSameStripeSerialize(t *testing.T) {
	eng, a := testArray(t, nil)
	// Units 0..3 share parity stripe 0 under the stripe-index mapping.
	done := 0
	for u := int64(0); u < 4; u++ {
		a.Write(u, func() { done++ })
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("%d writes completed, want 4", done)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("parity corrupted by concurrent same-stripe writes: %v", err)
	}
}

func TestFailValidation(t *testing.T) {
	_, a := testArray(t, nil)
	if err := a.Fail(99); err == nil {
		t.Fatal("failing a nonexistent disk accepted")
	}
	if err := a.Fail(3); err != nil {
		t.Fatal(err)
	}
	if err := a.Fail(4); err == nil {
		t.Fatal("second failure accepted; single-failure model")
	}
	if !a.Degraded() || a.FailedDisk() != 3 {
		t.Fatal("failure state wrong")
	}
}

func TestReplaceValidation(t *testing.T) {
	_, a := testArray(t, nil)
	if err := a.Replace(); err == nil {
		t.Fatal("replace with no failure accepted")
	}
	a.Fail(0)
	if err := a.Replace(); err != nil {
		t.Fatal(err)
	}
	if err := a.Replace(); err == nil {
		t.Fatal("double replace accepted")
	}
}

func TestDegradedReadReconstructsOnTheFly(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Fail(2)
	// Find a data unit on the failed disk.
	var unit int64 = -1
	for n := int64(0); n < a.DataUnits(); n++ {
		if layout.DataLoc(a.Layout(), n).Disk == 2 {
			unit = n
			break
		}
	}
	if unit < 0 {
		t.Fatal("no data unit on failed disk")
	}
	var got uint64
	a.Read(unit, func(v uint64) { got = v })
	eng.Run()
	if got != a.ExpectedValue(unit) {
		t.Fatalf("degraded read %#x, want %#x", got, a.ExpectedValue(unit))
	}
	// G-1 = 4 disk accesses.
	if n := totalCompleted(a); n != 4 {
		t.Fatalf("on-the-fly read used %d accesses, want G-1=4", n)
	}
}

func TestDegradedWriteToLostDataFoldsIntoParity(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Fail(2)
	var unit int64 = -1
	for n := int64(0); n < a.DataUnits(); n++ {
		if layout.DataLoc(a.Layout(), n).Disk == 2 {
			unit = n
			break
		}
	}
	a.Write(unit, func() {})
	eng.Run()
	// G-2 = 3 reads + 1 parity write.
	if n := totalCompleted(a); n != 4 {
		t.Fatalf("folded write used %d accesses, want G-2+1=4", n)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("fold broke recoverability: %v", err)
	}
	// The folded value must reconstruct correctly.
	var got uint64
	a.Read(unit, func(v uint64) { got = v })
	eng.Run()
	if got != a.ExpectedValue(unit) {
		t.Fatalf("folded unit reads %#x, want %#x", got, a.ExpectedValue(unit))
	}
}

func TestDegradedWriteWithLostParityIsOneAccess(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Fail(2)
	// Find a data unit whose parity lives on disk 2 but which itself
	// does not.
	var unit int64 = -1
	for n := int64(0); n < a.DataUnits(); n++ {
		loc := layout.DataLoc(a.Layout(), n)
		if loc.Disk == 2 {
			continue
		}
		s, _ := a.Layout().Locate(loc)
		if layout.ParityLoc(a.Layout(), s).Disk == 2 {
			unit = n
			break
		}
	}
	if unit < 0 {
		t.Fatal("no matching unit")
	}
	a.Write(unit, func() {})
	eng.Run()
	if n := totalCompleted(a); n != 1 {
		t.Fatalf("lost-parity write used %d accesses, want 1 (paper §7)", n)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDegradedManyOpsStayRecoverable(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Fail(7)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 1500; i++ {
		unit := rng.Int63n(a.DataUnits())
		when := rng.Float64() * 5000
		if rng.Intn(2) == 0 {
			eng.At(when, func() {
				a.Read(unit, func(v uint64) {
					_ = v
				})
			})
		} else {
			eng.At(when, func() { a.Write(unit, func() {}) })
		}
	}
	eng.Run()
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRaid5DegradedReadTouchesAllSurvivors(t *testing.T) {
	eng, a := raid5Array(t, 5, nil)
	a.Fail(1)
	var unit int64 = -1
	for n := int64(0); n < a.DataUnits(); n++ {
		if layout.DataLoc(a.Layout(), n).Disk == 1 {
			unit = n
			break
		}
	}
	a.Read(unit, func(uint64) {})
	eng.Run()
	// C-1 = 4 accesses, one on each survivor.
	for i := 0; i < 5; i++ {
		n := a.Disk(i).Stats().Completed
		want := int64(1)
		if i == 1 {
			want = 0
		}
		if n != want {
			t.Errorf("disk %d: %d accesses, want %d", i, n, want)
		}
	}
}

func TestReadValueDuringDegradedMatchesLatestWrite(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Fail(2)
	var unit int64 = -1
	for n := int64(0); n < a.DataUnits(); n++ {
		if layout.DataLoc(a.Layout(), n).Disk == 2 {
			unit = n
			break
		}
	}
	// Write (folds into parity), then read back on the fly.
	a.Write(unit, func() {
		a.Read(unit, func(v uint64) {
			if v != a.ExpectedValue(unit) {
				t.Errorf("read %#x after degraded write, want %#x", v, a.ExpectedValue(unit))
			}
		})
	})
	eng.Run()
}

// TestCheckConsistencyDetectsCorruption flips each unit of one stripe in
// turn — data, P and, under P+Q, Q — and requires CheckConsistency to
// report every one, under both codes.
func TestCheckConsistencyDetectsCorruption(t *testing.T) {
	for name, build := range map[string]func(*testing.T, func(*Config)) (*sim.Engine, *Array){
		"P": testArray, "PQ": pqTestArray,
	} {
		t.Run(name, func(t *testing.T) {
			_, a := build(t, nil)
			if err := a.CheckConsistency(); err != nil {
				t.Fatalf("fresh array: %v", err)
			}
			const stripe = 3
			for j := 0; j < a.lay.G(); j++ {
				u := a.lay.Unit(stripe, j)
				v := a.unitVal(u)
				a.setUnitVal(u, v^1)
				if err := a.CheckConsistency(); err == nil {
					t.Errorf("corrupt unit at position %d (%v) not reported", j, u)
				}
				a.setUnitVal(u, v)
			}
			if err := a.CheckConsistency(); err != nil {
				t.Fatalf("restored array: %v", err)
			}
		})
	}
}
