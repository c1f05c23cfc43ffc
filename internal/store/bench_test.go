package store

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"declust/internal/layout"
)

// benchStore builds the paper's 21-disk, G=5 (α=0.2) array over
// in-memory backends, pre-filled, returning the store and its disk
// handles (so rebuild benchmarks can recycle detached disks as
// replacements instead of allocating per cycle).
func benchStore(b *testing.B) (*Store, []Disk) {
	b.Helper()
	lay := testLayout(b, 21, 5)
	const units, us = 210, 4096
	disks := make([]Disk, lay.Disks())
	for i := range disks {
		disks[i] = NewMemDisk(units, us)
	}
	s, err := New(Config{Layout: lay, UnitsPerDisk: units, UnitSize: us, Disks: disks})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	buf := make([]byte, us)
	for n := int64(0); n < s.DataUnits(); n++ {
		fill(buf, n, 1)
		if err := s.WriteUnit(n, buf); err != nil {
			b.Fatal(err)
		}
	}
	return s, disks
}

// runClients drives the store from GOMAXPROCS client goroutines at the
// given read fraction and reports unit throughput.
func runClients(b *testing.B, s *Store, readFrac float64) {
	b.Helper()
	total := s.DataUnits()
	readCut := int64(readFrac * float64(1<<32))
	var seed atomic.Int64
	b.SetBytes(int64(s.UnitSize()))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		buf := make([]byte, s.UnitSize())
		for pb.Next() {
			n := rng.Int63n(total)
			if int64(rng.Uint32()) < readCut {
				if err := s.ReadUnit(n, buf); err != nil {
					panic(err)
				}
			} else {
				fill(buf, n, 2)
				if err := s.WriteUnit(n, buf); err != nil {
					panic(err)
				}
			}
		}
	})
	b.StopTimer()
}

// BenchmarkXorInto XORs one 4 KiB unit into another: the kernel of every
// P term, delta and single-parity decode.
func BenchmarkXorInto(b *testing.B) {
	src, dst := make([]byte, 4096), make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		xorInto(dst, src)
	}
}

// BenchmarkStoreFaultFreeOps measures the healthy array under the
// paper's 50/50 read/write mix from GOMAXPROCS concurrent clients.
func BenchmarkStoreFaultFreeOps(b *testing.B) {
	s, _ := benchStore(b)
	runClients(b, s, 0.5)
}

// BenchmarkStoreDegradedOps measures the same mix with one disk failed
// and no replacement: lost reads pay G−1-wide on-the-fly XOR
// reconstruction, lost writes fold into parity.
func BenchmarkStoreDegradedOps(b *testing.B) {
	s, _ := benchStore(b)
	if err := s.Fail(7); err != nil {
		b.Fatal(err)
	}
	runClients(b, s, 0.5)
}

// slowDisk wraps a backend with a fixed per-access latency drawn from a
// shared, switchable knob. Real disks cost milliseconds per access; the
// parallel fast path exists to overlap those waits across the array's
// independent devices, so these benchmarks measure wall-clock with
// latency injected — which also makes the speedup visible on single-core
// CI, where CPU parallelism alone would show nothing. The knob starts at
// zero so the pre-fill runs at memory speed.
type slowDisk struct {
	Disk
	lat *atomic.Int64 // nanoseconds per access, shared across the array
}

func (d slowDisk) ReadUnit(off int64, p []byte) error {
	if l := d.lat.Load(); l > 0 {
		time.Sleep(time.Duration(l))
	}
	return d.Disk.ReadUnit(off, p)
}

func (d slowDisk) WriteUnit(off int64, p []byte) error {
	if l := d.lat.Load(); l > 0 {
		time.Sleep(time.Duration(l))
	}
	return d.Disk.WriteUnit(off, p)
}

// benchLatency is the per-access latency the Store* wall-clock benchmarks
// inject once their stores are filled.
const benchLatency = 100 * time.Microsecond

// latStore builds a store over lay (the paper's 21-disk, G=5 array in
// the benchmarks) on latency-injected in-memory backends with the given
// worker count, pre-filled at full speed; the returned knob arms the
// latency.
func latStore(b *testing.B, lay layout.Layout, units int64, ioWorkers int) (*Store, *atomic.Int64) {
	b.Helper()
	const us = 4096
	lat := new(atomic.Int64)
	disks := make([]Disk, lay.Disks())
	for i := range disks {
		disks[i] = slowDisk{Disk: NewMemDisk(units, us), lat: lat}
	}
	s, err := New(Config{
		Layout: lay, UnitsPerDisk: units, UnitSize: us, Disks: disks,
		IOWorkers: ioWorkers,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	buf := make([]byte, s.DataUnits()*us)
	for n := int64(0); n < s.DataUnits(); n++ {
		fill(buf[n*us:(n+1)*us], n, 1)
	}
	if err := s.WriteRange(0, buf); err != nil {
		b.Fatal(err)
	}
	lat.Store(int64(benchLatency))
	return s, lat
}

// workerVariants runs fn as serial (IOWorkers=1) and parallel
// (IOWorkers=8) sub-benchmarks so the fan-out speedup is a single
// benchdiff line apart.
func workerVariants(b *testing.B, units int64, fn func(b *testing.B, s *Store, lat *atomic.Int64)) {
	b.Run("serial", func(b *testing.B) {
		s, lat := latStore(b, testLayout(b, 21, 5), units, 1)
		fn(b, s, lat)
	})
	b.Run("parallel", func(b *testing.B) {
		s, lat := latStore(b, testLayout(b, 21, 5), units, 8)
		fn(b, s, lat)
	})
}

// BenchmarkStoreDegradedRead measures a single client reading lost units:
// every read XOR-reconstructs from the stripe's G−1=4 survivors, whose
// reads the parallel store overlaps.
func BenchmarkStoreDegradedRead(b *testing.B) {
	workerVariants(b, 105, func(b *testing.B, s *Store, _ *atomic.Int64) {
		const victim = 7
		if err := s.Fail(victim); err != nil {
			b.Fatal(err)
		}
		var lost []int64
		for n := int64(0); n < s.DataUnits(); n++ {
			if s.mapper.Loc(n).Disk == victim {
				lost = append(lost, n)
			}
		}
		buf := make([]byte, s.UnitSize())
		b.SetBytes(int64(s.UnitSize()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.ReadUnit(lost[i%len(lost)], buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreRangeRead measures an 8-stripe (32-unit) sequential read,
// which the parallel store decomposes into per-stripe jobs.
func BenchmarkStoreRangeRead(b *testing.B) {
	workerVariants(b, 105, func(b *testing.B, s *Store, _ *atomic.Int64) {
		const units = 32
		buf := make([]byte, units*s.UnitSize())
		spans := s.DataUnits() - units + 1
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.ReadRange((int64(i)*units)%spans, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreRangeWrite measures an 8-stripe aligned sequential write:
// every stripe takes the large-write path (parity from new contents, no
// pre-reads) and the parallel store fans both the stripe jobs and each
// stripe's G commit writes.
func BenchmarkStoreRangeWrite(b *testing.B) {
	workerVariants(b, 105, func(b *testing.B, s *Store, _ *atomic.Int64) {
		units := int64(8 * (s.lay.G() - 1))
		buf := make([]byte, units*int64(s.UnitSize()))
		for u := int64(0); u < units; u++ {
			fill(buf[u*int64(s.UnitSize()):(u+1)*int64(s.UnitSize())], u, 2)
		}
		starts := (s.DataUnits() / units) * units
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.WriteRange((int64(i)*units)%starts, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreRebuild measures the full rebuild sweep's wall-clock:
// each iteration fails disk 7 and rebuilds it onto a spare. The parallel
// store shards the sweep across IOWorkers and overlaps each shard's G−1
// survivor reads.
func BenchmarkStoreRebuild(b *testing.B) {
	workerVariants(b, 45, func(b *testing.B, s *Store, lat *atomic.Int64) {
		const victim = 7
		var spare Disk = slowDisk{Disk: NewMemDisk(s.unitsPerDisk, s.UnitSize()), lat: lat}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Fail(victim); err != nil {
				b.Fatal(err)
			}
			if err := s.Rebuild(spare); err != nil {
				b.Fatal(err)
			}
			// The detached victim becomes the next blank spare.
			s.admin.Lock()
			spare = s.detached[len(s.detached)-1]
			s.detached = s.detached[:len(s.detached)-1]
			s.admin.Unlock()
		}
	})
}

// BenchmarkStoreParallelClients measures 8 concurrent clients on a
// degraded latency-injected store at the paper's 50/50 mix — the
// continuous-operation scenario where user load and wide reconstruction
// reads contend for the I/O pool.
func BenchmarkStoreParallelClients(b *testing.B) {
	workerVariants(b, 105, func(b *testing.B, s *Store, _ *atomic.Int64) {
		if err := s.Fail(7); err != nil {
			b.Fatal(err)
		}
		const clients = 8
		total := s.DataUnits()
		var next atomic.Int64
		b.SetBytes(int64(s.UnitSize()))
		b.ResetTimer()
		var wg sync.WaitGroup
		wg.Add(clients)
		for c := 0; c < clients; c++ {
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(c) + 1))
				buf := make([]byte, s.UnitSize())
				for next.Add(1) <= int64(b.N) {
					n := rng.Int63n(total)
					if rng.Intn(2) == 0 {
						if err := s.ReadUnit(n, buf); err != nil {
							panic(err)
						}
					} else {
						fill(buf, n, 3)
						if err := s.WriteUnit(n, buf); err != nil {
							panic(err)
						}
					}
				}
			}(c)
		}
		wg.Wait()
	})
}

// BenchmarkStoreRebuildingOps measures the mix while the array is
// continuously failing and rebuilding in the background — the paper's
// continuous-operation scenario as a throughput number.
func BenchmarkStoreRebuildingOps(b *testing.B) {
	s, disks := benchStore(b)
	const victim = 7
	spare := NewMemDisk(s.unitsPerDisk, s.UnitSize())
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		cur := disks[victim]
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Fail(victim); err != nil {
				panic(err)
			}
			if err := s.Rebuild(spare); err != nil {
				panic(err)
			}
			// The detached disk becomes the next blank replacement.
			cur, spare = spare, cur
		}
	}()
	runClients(b, s, 0.5)
	close(stop)
	<-churnDone
}
