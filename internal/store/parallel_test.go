package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// The parallel fast path must be invisible in results: a store with
// IOWorkers>1 returns the same bytes, maintains the same parity, and
// honors the same crash contract as the serial engine. These tests pin
// that equivalence, the group-commit batching, and the error-aggregation
// contracts of Sync and Close.

// driveTwin applies the same seeded operation mix to both stores; any
// divergence in results or errors fails the test.
func driveTwin(t *testing.T, rng *rand.Rand, a, b *Store, ops int) {
	t.Helper()
	us := a.UnitSize()
	total := a.DataUnits()
	bufA := make([]byte, 8*us)
	bufB := make([]byte, 8*us)
	for i := 0; i < ops; i++ {
		switch rng.Intn(4) {
		case 0: // single-unit write
			n := rng.Int63n(total)
			fill(bufA[:us], n, uint64(i))
			if err := a.WriteUnit(n, bufA[:us]); err != nil {
				t.Fatalf("op %d: serial WriteUnit(%d): %v", i, n, err)
			}
			if err := b.WriteUnit(n, bufA[:us]); err != nil {
				t.Fatalf("op %d: parallel WriteUnit(%d): %v", i, n, err)
			}
		case 1: // single-unit read
			n := rng.Int63n(total)
			if err := a.ReadUnit(n, bufA[:us]); err != nil {
				t.Fatalf("op %d: serial ReadUnit(%d): %v", i, n, err)
			}
			if err := b.ReadUnit(n, bufB[:us]); err != nil {
				t.Fatalf("op %d: parallel ReadUnit(%d): %v", i, n, err)
			}
			if !bytes.Equal(bufA[:us], bufB[:us]) {
				t.Fatalf("op %d: ReadUnit(%d) diverges between serial and parallel", i, n)
			}
		case 2: // range write
			units := 1 + rng.Int63n(8)
			start := rng.Int63n(total - units + 1)
			span := bufA[:units*int64(us)]
			for u := int64(0); u < units; u++ {
				fill(span[u*int64(us):(u+1)*int64(us)], start+u, uint64(i))
			}
			if err := a.WriteRange(start, span); err != nil {
				t.Fatalf("op %d: serial WriteRange(%d, %d units): %v", i, start, units, err)
			}
			if err := b.WriteRange(start, span); err != nil {
				t.Fatalf("op %d: parallel WriteRange(%d, %d units): %v", i, start, units, err)
			}
		default: // range read
			units := 1 + rng.Int63n(8)
			start := rng.Int63n(total - units + 1)
			if err := a.ReadRange(start, bufA[:units*int64(us)]); err != nil {
				t.Fatalf("op %d: serial ReadRange(%d, %d units): %v", i, start, units, err)
			}
			if err := b.ReadRange(start, bufB[:units*int64(us)]); err != nil {
				t.Fatalf("op %d: parallel ReadRange(%d, %d units): %v", i, start, units, err)
			}
			if !bytes.Equal(bufA[:units*int64(us)], bufB[:units*int64(us)]) {
				t.Fatalf("op %d: ReadRange(%d, %d units) diverges", i, start, units)
			}
		}
	}
}

// compareStores asserts both stores hold identical bytes in every data
// unit and on every in-service backend, and both pass CheckParity.
func compareStores(t *testing.T, a, b *Store) {
	t.Helper()
	us := a.UnitSize()
	bufA := make([]byte, us)
	bufB := make([]byte, us)
	for n := int64(0); n < a.DataUnits(); n++ {
		if err := a.ReadRange(n, bufA); err != nil {
			t.Fatalf("serial read of unit %d: %v", n, err)
		}
		if err := b.ReadRange(n, bufB); err != nil {
			t.Fatalf("parallel read of unit %d: %v", n, err)
		}
		if !bytes.Equal(bufA, bufB) {
			t.Fatalf("unit %d differs between serial and parallel stores", n)
		}
	}
	physA := make([]byte, a.physSize)
	physB := make([]byte, b.physSize)
	sta, stb := a.st.Load(), b.st.Load()
	for d := range sta.disks {
		for off := int64(0); off < a.unitsPerDisk; off++ {
			if sta.disks[d].ReadUnit(off, physA) != nil || stb.disks[d].ReadUnit(off, physB) != nil {
				continue // a failed slot
			}
			if !bytes.Equal(physA, physB) {
				t.Fatalf("disk %d unit %d: on-disk bytes differ between serial and parallel stores", d, off)
			}
		}
	}
	if err := a.CheckParity(); err != nil {
		t.Fatalf("serial CheckParity: %v", err)
	}
	if err := b.CheckParity(); err != nil {
		t.Fatalf("parallel CheckParity: %v", err)
	}
}

// TestParallelMatchesSerial drives a serial (IOWorkers=1) and a parallel
// (IOWorkers=8) store through the same seeded lifecycle — healthy ops,
// as many failures as the code corrects, degraded ops, a rebuild per
// failure, healed ops — and requires byte-identical unit contents and
// on-disk images, and clean parity, at every phase boundary.
func TestParallelMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, tc := range testCodes {
				t.Run(tc.name, func(t *testing.T) {
					lay := tc.lay(t, 7, 4)
					mk := func(io, rw int) *Store {
						s, err := New(Config{
							Layout: lay, UnitsPerDisk: 48, UnitSize: 512,
							IOWorkers: io, RebuildWorkers: rw,
						})
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { s.Close() })
						return s
					}
					serial := mk(1, 1)
					parallel := mk(8, 4)
					rng := rand.New(rand.NewSource(seed))

					driveTwin(t, rng, serial, parallel, 200)
					compareStores(t, serial, parallel)

					for _, victim := range rng.Perm(lay.Disks())[:serial.Parities()] {
						if err := serial.Fail(victim); err != nil {
							t.Fatal(err)
						}
						if err := parallel.Fail(victim); err != nil {
							t.Fatal(err)
						}
					}
					driveTwin(t, rng, serial, parallel, 200)

					for range serial.FailedDisks() {
						if err := serial.Rebuild(NewMemDisk(48, 512)); err != nil {
							t.Fatalf("serial rebuild: %v", err)
						}
						if err := parallel.Rebuild(NewMemDisk(48, 512)); err != nil {
							t.Fatalf("parallel rebuild: %v", err)
						}
					}
					driveTwin(t, rng, serial, parallel, 100)
					compareStores(t, serial, parallel)
				})
			}
		})
	}
}

// recordingIntent wraps memIntent, recording every MarkBatch and, when
// gate is non-nil, blocking the first MarkBatch until the gate closes —
// letting the test pile followers onto the group-commit queue.
type recordingIntent struct {
	memIntent
	mu      sync.Mutex
	batches [][]int64
	gate    chan struct{}
	blocked bool
}

func (ri *recordingIntent) MarkBatch(rs []int64) error {
	ri.mu.Lock()
	ri.batches = append(ri.batches, append([]int64(nil), rs...))
	wait := !ri.blocked
	ri.blocked = true
	ri.mu.Unlock()
	if wait && ri.gate != nil {
		<-ri.gate
	}
	return ri.memIntent.MarkBatch(rs)
}

// TestIntentGroupCommit pins the group-commit window: while a leader's
// MarkBatch durability barrier is in flight, first-writers to other clean
// regions queue up and are drained by the leader as one batch — one
// barrier for all of them.
func TestIntentGroupCommit(t *testing.T) {
	ri := &recordingIntent{gate: make(chan struct{})}
	lay := testLayout(t, 7, 4)
	s, err := New(Config{
		Layout: lay, UnitsPerDisk: 512, UnitSize: 512,
		IOWorkers: 4, Intent: ri,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	regions := intentRegions(s.Stripes())
	const followers = 4
	if regions < followers+1 {
		t.Fatalf("store has %d intent regions, test needs %d", regions, followers+1)
	}
	// Logical unit landing in region r: first data unit of stripe r*64.
	unitIn := func(r int64) int64 { return r * intentRegionStripes * int64(lay.G()-1) }
	buf := make([]byte, 512)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader: first write into region 0, blocks in MarkBatch
		defer wg.Done()
		if err := s.WriteUnit(unitIn(0), buf); err != nil {
			t.Errorf("leader write: %v", err)
		}
	}()
	waitFor(t, "leader to enter MarkBatch", func() bool {
		ri.mu.Lock()
		defer ri.mu.Unlock()
		return len(ri.batches) == 1
	})
	wg.Add(followers)
	for i := 1; i <= followers; i++ {
		go func(r int64) { // followers: first writes into regions 1..4
			defer wg.Done()
			if err := s.WriteUnit(unitIn(r), buf); err != nil {
				t.Errorf("follower write region %d: %v", r, err)
			}
		}(int64(i))
	}
	waitFor(t, "followers to queue", func() bool {
		s.intentMu.Lock()
		defer s.intentMu.Unlock()
		return len(s.intentPend) == followers
	})
	close(ri.gate)
	wg.Wait()

	ri.mu.Lock()
	defer ri.mu.Unlock()
	if len(ri.batches) != 2 {
		t.Fatalf("got %d MarkBatch calls, want 2 (leader + one coalesced batch): %v", len(ri.batches), ri.batches)
	}
	if len(ri.batches[0]) != 1 || ri.batches[0][0] != 0 {
		t.Fatalf("leader batch = %v, want [0]", ri.batches[0])
	}
	got := map[int64]bool{}
	for _, r := range ri.batches[1] {
		got[r] = true
	}
	if len(got) != followers {
		t.Fatalf("coalesced batch = %v, want regions 1..%d", ri.batches[1], followers)
	}
	for r := int64(1); r <= followers; r++ {
		if !got[r] {
			t.Fatalf("coalesced batch %v is missing region %d", ri.batches[1], r)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// failingIntent delivers an error from MarkBatch; writers must surface it
// and the store must not record the region dirty.
type failingIntent struct {
	memIntent
	err error
}

func (fi *failingIntent) MarkBatch(rs []int64) error { return fi.err }

// TestIntentMarkFailureSurfaces pins error delivery through the group
// commit: every waiter whose region failed to mark gets the error, and a
// later writer retries the mark rather than trusting a phantom success.
func TestIntentMarkFailureSurfaces(t *testing.T) {
	sentinel := errors.New("barrier torn")
	fi := &failingIntent{err: sentinel}
	s, err := New(Config{
		Layout: testLayout(t, 7, 4), UnitsPerDisk: 48, UnitSize: 512, Intent: fi,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, 512)
	if err := s.WriteUnit(0, buf); !errors.Is(err, sentinel) {
		t.Fatalf("WriteUnit with failing intent log = %v, want %v", err, sentinel)
	}
	fi.err = nil // log recovers; the next write must re-mark and succeed
	if err := s.WriteUnit(0, buf); err != nil {
		t.Fatalf("WriteUnit after intent log recovered: %v", err)
	}
	if !s.regionDirty[0].Load() {
		t.Fatal("region 0 not marked dirty after successful retry")
	}
}

// brokenDisk wraps a Disk, failing Sync and Close with its own errors.
type brokenDisk struct {
	Disk
	syncErr  error
	closeErr error
}

func (d brokenDisk) Sync() error  { return d.syncErr }
func (d brokenDisk) Close() error { return d.closeErr }

// TestSyncAggregatesBackendErrors pins the errors.Join contract: with two
// failing backends, Sync reports both, not just the first.
func TestSyncAggregatesBackendErrors(t *testing.T) {
	lay := testLayout(t, 7, 4)
	e2 := errors.New("disk 2 sync lost")
	e5 := errors.New("disk 5 sync lost")
	disks := make([]Disk, lay.Disks())
	for i := range disks {
		disks[i] = NewMemDisk(48, 512)
	}
	disks[2] = brokenDisk{Disk: disks[2], syncErr: e2}
	disks[5] = brokenDisk{Disk: disks[5], syncErr: e5}
	s, err := New(Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512, Disks: disks})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	err = s.Sync()
	if !errors.Is(err, e2) || !errors.Is(err, e5) {
		t.Fatalf("Sync = %v, want both backend errors joined", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "disk 2") || !strings.Contains(msg, "disk 5") {
		t.Fatalf("Sync error %q does not name both disks", msg)
	}
}

// TestCloseAggregatesBackendErrors pins the same contract for Close.
func TestCloseAggregatesBackendErrors(t *testing.T) {
	lay := testLayout(t, 7, 4)
	e1 := errors.New("disk 1 will not close")
	e4 := errors.New("disk 4 will not close")
	disks := make([]Disk, lay.Disks())
	for i := range disks {
		disks[i] = NewMemDisk(48, 512)
	}
	disks[1] = brokenDisk{Disk: disks[1], closeErr: e1}
	disks[4] = brokenDisk{Disk: disks[4], closeErr: e4}
	s, err := New(Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512, Disks: disks})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Close()
	if !errors.Is(err, e1) || !errors.Is(err, e4) {
		t.Fatalf("Close = %v, want both backend errors joined", err)
	}
}

// TestWorkerConfigValidation pins the IOWorkers/RebuildWorkers bounds and
// defaulting rules.
func TestWorkerConfigValidation(t *testing.T) {
	lay := testLayout(t, 7, 4)
	base := func() Config { return Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512} }

	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"negative IOWorkers", func(c *Config) { c.IOWorkers = -1 }},
		{"huge IOWorkers", func(c *Config) { c.IOWorkers = 2048 }},
		{"negative RebuildWorkers", func(c *Config) { c.RebuildWorkers = -3 }},
		{"huge RebuildWorkers", func(c *Config) { c.RebuildWorkers = 4096 }},
	} {
		cfg := base()
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}

	s, err := New(func() Config { c := base(); c.IOWorkers = 6; return c }())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.ioWorkers != 6 || s.rebuildWorkers != 6 {
		t.Fatalf("IOWorkers=6 gave (io=%d, rebuild=%d), want RebuildWorkers to default to IOWorkers",
			s.ioWorkers, s.rebuildWorkers)
	}
	if got := s.pool.free.Load(); got != 5 {
		t.Fatalf("pool holds %d helper tokens, want IOWorkers-1 = 5", got)
	}
}

// TestFanOutSerialFallback pins that a store whose pool is exhausted (or
// configured serial) runs batches in index order on the caller with
// first-error-wins, exactly the serial engine.
func TestFanOutSerialFallback(t *testing.T) {
	s, err := New(Config{Layout: testLayout(t, 7, 4), UnitsPerDisk: 48, UnitSize: 512, IOWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var order []int
	sentinel := errors.New("item 3 failed")
	err = s.fanOut(6, func(i int) error {
		order = append(order, i) // no mutex: serial fallback must not spawn helpers
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("fanOut = %v, want %v", err, sentinel)
	}
	want := []int{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("serial fanOut ran items %v, want %v (abort after first error)", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("serial fanOut ran items %v, want %v", order, want)
		}
	}
}

// TestFanOutParallelFirstErrorWins pins that with helpers engaged the
// lowest-indexed error is the one returned.
func TestFanOutParallelFirstErrorWins(t *testing.T) {
	s, err := New(Config{Layout: testLayout(t, 7, 4), UnitsPerDisk: 48, UnitSize: 512, IOWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for round := 0; round < 50; round++ {
		err := s.fanOut(8, func(i int) error {
			switch i {
			case 2:
				return errLow
			case 6:
				time.Sleep(time.Microsecond)
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("round %d: fanOut = %v, want lowest-indexed error %v", round, err, errLow)
		}
	}
}
