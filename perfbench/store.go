package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"declust"
)

// The store workloads run the real engine at the paper's geometry: C=21
// disks, parity stripes of G=5 over the appendix design (α=0.2), 4 KiB
// units. Every engine setting (IOWorkers, RebuildWorkers, throttles,
// retries) stays at its default, so the program measured is the one
// shipped.
const (
	arrayC   = 21
	arrayG   = 5
	unitSize = 4096
	// fillChunk is how many units one set-up WriteRange call covers: a
	// multiple of the 4 (P) and 3 (P+Q) data units per stripe, so every
	// call is a run of full-stripe large writes.
	fillChunk = 240
	// storeSetups is how many times a run builds its array; setup_s is
	// the median and the last array carries the lifecycle.
	storeSetups = 5
)

// storeSpec is one store workload.
type storeSpec struct {
	parities int
	file     bool // file disks + file intent log; else mem disks + mem log
	// units is each disk's size in units; the appendix layout's
	// allocation period divides it, so every unit is usable.
	units int64
	// cycles is the fixed number of fail→degraded→rebuild cycles. It is
	// fixed, not paced by the clock, so the memory the engine keeps for
	// detached disks — and so peak RSS — does not depend on speed.
	cycles int
	// rounds is how many failures each cycle's rebuild window rebuilds:
	// the first after the degraded window, the rest failed and rebuilt
	// at once, back to back. A single-parity rebuild takes about 40 ms,
	// too short a window to measure users' throughput in; several
	// rounds make one window several rebuilds long.
	rounds int
	// syncEvery is the flush policy: each client calls Store.Sync after
	// this many of its own operations (0: never during load). A Sync
	// that falls due while a rebuild runs waits until the rebuild
	// returns: one Sync stalls every client for about as long as a whole
	// rebuild takes, so whether one landed inside a rebuild window would
	// decide that window's figures. The fsync cost stays in the healthy
	// and degraded windows.
	syncEvery int
}

var storeSpecs = map[string]storeSpec{
	"lifecycle-p-file": {parities: 1, file: true, units: 2100, cycles: 12, rounds: 4, syncEvery: 64000},
	"lifecycle-pq-mem": {parities: 2, units: 2100, cycles: 24, rounds: 1},
}

// clients is the closed loop's size: at most one client per CPU, at
// most two, each waiting for its operation before sending the next.
func clients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// pattern writes the deterministic contents of (unit, version) into buf;
// the checker recomputes it to verify read-backs byte for byte.
func pattern(buf []byte, unit int64, version uint64) {
	x := uint64(unit)*0x9e3779b97f4a7c15 + version*0xbf58476d1ce4e5b9 + 1
	for i := 0; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

// layers is a traced run's instrumentation; a nil *layers means untraced.
type layers struct {
	rec    *recorder
	store  *storeLayer
	disks  *diskLayer
	intent *tracedIntent
}

func newLayers() *layers {
	rec := newRecorder()
	return &layers{rec: rec, store: newStoreLayer(rec), disks: newDiskLayer(rec, arrayC)}
}

// array is one open store with its ledger: version[n] is the version of
// unit n's last acknowledged write.
type array struct {
	spec    storeSpec
	dir     string
	eng     engine
	version []uint64
	tr      *layers
	slots   []declust.StoreDisk // each slot's current backend
}

// disk returns a fresh backend for slot i; repl numbers replacement
// files.
func (a *array) disk(i, repl int) (declust.StoreDisk, error) {
	var d declust.StoreDisk
	if a.spec.file {
		var err error
		name := fmt.Sprintf("disk%02d.dat", i)
		if repl > 0 {
			name = fmt.Sprintf("repl%02d.dat", repl)
		}
		if d, err = declust.OpenFileDisk(filepath.Join(a.dir, name), a.spec.units, unitSize); err != nil {
			return nil, err
		}
	} else {
		d = declust.NewMemDisk(a.spec.units, unitSize)
	}
	if a.tr != nil {
		d = a.tr.disks.wrap(i, d)
	}
	return d, nil
}

// replacement returns the backend to rebuild failed slot v onto. A file
// array gets a fresh file. A mem array gets back the backend that Fail
// detached: the engine keeps detached backends until Close, so a fresh
// one per failure would grow memory with every cycle, and the rebuild
// overwrites every unit of it either way.
func (a *array) replacement(v, repl int) (declust.StoreDisk, error) {
	if !a.spec.file {
		return a.slots[v], nil
	}
	d, err := a.disk(v, repl)
	if err == nil {
		a.slots[v] = d
	}
	return d, err
}

// openArray builds, fills and syncs a store — the work setup_s times.
func openArray(spec storeSpec, dir string, tr *layers) (*array, error) {
	a := &array{spec: spec, dir: dir, tr: tr, slots: make([]declust.StoreDisk, arrayC)}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := declust.StoreConfig{UnitsPerDisk: spec.units, UnitSize: unitSize}
	for i := 0; i < arrayC; i++ {
		d, err := a.disk(i, 0)
		if err != nil {
			for _, prev := range cfg.Disks {
				prev.Close()
			}
			return nil, err
		}
		cfg.Disks = append(cfg.Disks, d)
		a.slots[i] = d
	}
	if spec.file {
		cfg.Intent = declust.OpenFileIntent(filepath.Join(dir, "intent.log"))
	}
	if tr != nil {
		if cfg.Intent == nil {
			cfg.Intent = &memIntent{}
		}
		tr.intent = &tracedIntent{l: cfg.Intent, rec: tr.rec}
		cfg.Intent = tr.intent
	}
	open := declust.OpenStore
	if spec.parities == 2 {
		open = declust.OpenPQStore
	}
	s, err := open(arrayC, arrayG, cfg)
	if err != nil {
		for _, d := range cfg.Disks {
			d.Close()
		}
		return nil, err
	}
	a.eng = s
	if tr != nil {
		a.eng = tracedStore{Store: s, l: tr.store}
	}
	total := a.eng.DataUnits()
	a.version = make([]uint64, total)
	buf := make([]byte, fillChunk*unitSize)
	for start := int64(0); start < total; start += fillChunk {
		n := min(fillChunk, total-start)
		for i := int64(0); i < n; i++ {
			a.version[start+i] = 1
			pattern(buf[i*unitSize:(i+1)*unitSize], start+i, 1)
		}
		if err := a.eng.WriteRange(start, buf[:n*unitSize]); err != nil {
			a.close()
			return nil, fmt.Errorf("fill: %w", err)
		}
	}
	if err := a.eng.Sync(); err != nil {
		a.close()
		return nil, err
	}
	return a, nil
}

// close closes the store, deletes its files and hands its memory back to
// the OS, so the next array's peak RSS does not include this one.
func (a *array) close() error {
	err := a.eng.Close()
	if rerr := os.RemoveAll(a.dir); err == nil {
		err = rerr
	}
	a.eng, a.slots = nil, nil
	runtime.GC()
	debug.FreeOSMemory()
	return err
}

// window is one cycle's share of a client's latencies: the normal
// (healthy and degraded) windows and the rebuild window.
type window struct {
	reads, writes, rebuild hist
}

// stopped is the state that ends the load; otherwise the state is
// cycle<<1, plus 1 while that cycle's rebuild runs. Clients file each
// operation under the state it started in.
const stopped = -1

// client is one closed-loop caller owning the units [lo, hi).
type client struct {
	rng               *rand.Rand
	lo, hi            int64
	win               []window
	attempted, failed int64
	firstErr          error
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// run issues operations until the state is stopped. A client holds
// syncGate shared while it syncs; the lifecycle holds it exclusively
// while rebuilds run.
func (c *client) run(a *array, state *atomic.Int32, syncGate *sync.RWMutex) {
	buf := make([]byte, unitSize)
	want := make([]byte, unitSize)
	ops := 0
	syncDue := false
	for {
		st := state.Load()
		if st == stopped {
			return
		}
		n := c.lo + c.rng.Int63n(c.hi-c.lo)
		read := c.rng.Intn(2) == 0
		var err error
		var lat time.Duration
		if read {
			start := time.Now()
			err = a.eng.ReadUnit(n, buf)
			lat = time.Since(start)
			if err == nil {
				pattern(want, n, a.version[n])
				if !bytes.Equal(buf, want) {
					err = fmt.Errorf("unit %d does not hold version %d", n, a.version[n])
				}
			}
		} else {
			a.version[n]++
			pattern(buf, n, a.version[n])
			start := time.Now()
			err = a.eng.WriteUnit(n, buf)
			lat = time.Since(start)
		}
		c.attempted++
		if err != nil {
			c.fail(err)
		}
		w := &c.win[st>>1]
		switch {
		case st&1 == 1:
			w.rebuild.add(int64(lat))
		case read:
			w.reads.add(int64(lat))
		default:
			w.writes.add(int64(lat))
		}
		ops++
		if a.spec.syncEvery > 0 && ops%a.spec.syncEvery == 0 {
			syncDue = true
		}
		if syncDue && syncGate.TryRLock() {
			syncDue = false
			c.attempted++
			if err := a.eng.Sync(); err != nil {
				c.fail(err)
			}
			syncGate.RUnlock()
		}
	}
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// lifecycle is the outcome of one store lifecycle run. Figures of the
// healthy and degraded windows are reported as their median over
// cycles, which keeps a burst of interference from another process on
// the machine out of the result; a rebuild window is too short to
// measure on its own, so rebuild-window figures pool every window.
type lifecycle struct {
	win                   []window        // per cycle, all clients
	normalDur, rebuildDur []time.Duration // per cycle
	rebuilds              []time.Duration // per Rebuild call
	attempted, failed     int64
	firstErr              error
	// Traced runs only: layer deltas over the normal windows and the
	// per-rebuild survivor read imbalance.
	normalDisk   diskTotals
	normalCPU    time.Duration
	normalWrites int64
	imbalance    []float64
}

func (l *lifecycle) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// normalOps is the number of operations in the normal windows.
func (l *lifecycle) normalOps() int64 {
	return int64(l.pooled(readHist).n + l.pooled(writeHist).n)
}

// perCycle returns the median over cycles of f.
func (l *lifecycle) perCycle(f func(w *window, i int) float64) float64 {
	xs := make([]float64, len(l.win))
	for i := range l.win {
		xs[i] = f(&l.win[i], i)
	}
	return median(xs)
}

func readHist(w *window) *hist    { return &w.reads }
func writeHist(w *window) *hist   { return &w.writes }
func rebuildHist(w *window) *hist { return &w.rebuild }

// pooled merges h over all cycles.
func (l *lifecycle) pooled(h func(w *window) *hist) *hist {
	var all hist
	for i := range l.win {
		all.merge(h(&l.win[i]))
	}
	return &all
}

// opsPerSec is the median over cycles of the normal windows' throughput.
func (l *lifecycle) opsPerSec() float64 {
	return l.perCycle(func(w *window, i int) float64 {
		return float64(w.reads.n+w.writes.n) / l.normalDur[i].Seconds()
	})
}

// runLifecycle drives spec.cycles cycles of healthy window → disk
// failure → degraded window → rebuild under load, with the clients
// running throughout, then checks every unit, the parity and a final
// Sync. The healthy and degraded windows together last secs.
func runLifecycle(a *array, seed int64, secs float64) *lifecycle {
	cycles := a.spec.cycles
	res := &lifecycle{win: make([]window, cycles)}
	rng := rand.New(rand.NewSource(seed))
	nc := clients()
	total := int64(len(a.version))
	cs := make([]*client, nc)
	var state atomic.Int32
	var syncGate sync.RWMutex
	var wg sync.WaitGroup
	for i := range cs {
		cs[i] = &client{
			rng: rand.New(rand.NewSource(seed*1_000_003 + int64(i) + 1)),
			lo:  total * int64(i) / int64(nc),
			hi:  total * int64(i+1) / int64(nc),
			win: make([]window, cycles),
		}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(a, &state, &syncGate)
		}(cs[i])
	}

	winDur := time.Duration(secs / float64(2*cycles) * float64(time.Second))
	repl := 0
	for cyc := 0; cyc < cycles; cyc++ {
		state.Store(int32(cyc << 1))
		var diskAt diskTotals
		var cpuAt time.Duration
		var writesAt int64
		if a.tr != nil {
			diskAt, cpuAt, writesAt = a.tr.disks.totals(), cpuTime(), a.eng.Stats().Writes
		}
		start := time.Now()
		time.Sleep(winDur) // healthy
		fail := func() []int {
			victims := rng.Perm(arrayC)[:a.spec.parities]
			for _, v := range victims {
				res.attempted++
				if err := a.eng.Fail(v); err != nil {
					res.fail(fmt.Errorf("fail disk %d: %w", v, err))
				}
			}
			return victims
		}
		victims := fail()
		time.Sleep(winDur) // degraded
		syncGate.Lock()    // waits out a Sync in flight
		res.normalDur = append(res.normalDur, time.Since(start))
		if a.tr != nil {
			d := a.tr.disks.totals()
			res.normalDisk.reads += d.reads - diskAt.reads
			res.normalDisk.writes += d.writes - diskAt.writes
			res.normalDisk.wbytes += d.wbytes - diskAt.wbytes
			res.normalCPU += cpuTime() - cpuAt
			res.normalWrites += a.eng.Stats().Writes - writesAt
		}

		state.Store(int32(cyc<<1 | 1))
		start = time.Now()
		for round := 0; round < a.spec.rounds; round++ {
			if round > 0 {
				victims = fail()
			}
			for i, v := range victims {
				repl++
				d, err := a.replacement(v, repl)
				res.attempted++
				if err != nil {
					res.fail(err)
					continue
				}
				var before []int64
				if a.tr != nil {
					before = a.tr.disks.reads()
				}
				t0 := time.Now()
				err = a.eng.Rebuild(d)
				res.rebuilds = append(res.rebuilds, time.Since(t0))
				if err != nil {
					res.fail(fmt.Errorf("rebuild disk %d: %w", v, err))
				}
				if a.tr != nil {
					// Disks still failed are not survivors; the one just
					// rebuilt is the rebuild's target.
					res.imbalance = append(res.imbalance, readImbalance(before, a.tr.disks.reads(), victims[i:]))
				}
			}
		}
		res.rebuildDur = append(res.rebuildDur, time.Since(start))
		syncGate.Unlock()
	}
	state.Store(stopped)
	wg.Wait()

	for _, c := range cs {
		for i := range c.win {
			res.win[i].reads.merge(&c.win[i].reads)
			res.win[i].writes.merge(&c.win[i].writes)
			res.win[i].rebuild.merge(&c.win[i].rebuild)
		}
		res.attempted += c.attempted
		res.failed += c.failed
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
	}
	verify(a, res)
	return res
}

// readImbalance is the largest survivor's share of a rebuild's reads
// over the mean survivor's; failed slots are not survivors.
func readImbalance(before, after []int64, failed []int) float64 {
	var sum, max int64
	n := 0
	for i := range after {
		dead := false
		for _, f := range failed {
			dead = dead || f == i
		}
		if dead {
			continue
		}
		d := after[i] - before[i]
		sum += d
		if d > max {
			max = d
		}
		n++
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(n) / float64(sum)
}

// verify reads every unit back against the ledger, then checks parity
// and makes the array durable.
func verify(a *array, res *lifecycle) {
	const chunk = fillChunk
	buf := make([]byte, chunk*unitSize)
	want := make([]byte, unitSize)
	total := int64(len(a.version))
	for start := int64(0); start < total; start += chunk {
		n := min(chunk, total-start)
		res.attempted += n
		if err := a.eng.ReadRange(start, buf[:n*unitSize]); err != nil {
			res.failed += n - 1
			res.fail(fmt.Errorf("read-back at unit %d: %w", start, err))
			continue
		}
		for i := int64(0); i < n; i++ {
			pattern(want, start+i, a.version[start+i])
			if !bytes.Equal(buf[i*unitSize:(i+1)*unitSize], want) {
				res.fail(fmt.Errorf("read-back: unit %d does not hold version %d", start+i, a.version[start+i]))
			}
		}
	}
	res.attempted += 2
	if err := a.eng.CheckParity(); err != nil {
		res.fail(err)
	}
	if err := a.eng.Sync(); err != nil {
		res.fail(err)
	}
}
