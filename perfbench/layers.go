package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"declust"
)

// The traced run times every call into a layer's public functions from
// outside the program: the Store methods (tracedStore), each backend (a
// Disk wrapper), the write-intent log (an IntentLog wrapper), the GF(2^8)
// kernel (a probe) and the simulator (around RunReconstruction). The
// engine issues backend calls from its own helper goroutines, so a
// backend span cannot name the Store call that caused it; each layer
// therefore reports its counts and busy time over the same window rather
// than a guessed parent.

// span is one timed call. Spans of one user operation share op; spans
// the benchmark cannot attribute (backend and intent calls) have op 0.
type span struct {
	Layer string `json:"layer"`
	Name  string `json:"name"`
	Op    int64  `json:"op,omitempty"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

// maxSpans caps the spans kept in memory; counts and busy times cover
// every call, spans past the cap are only counted as dropped.
const maxSpans = 200_000

// recorder keeps the traced run's spans in memory until writeSpans.
type recorder struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) record(layer, name string, op int64, start time.Time, dur time.Duration) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{layer, name, op, int64(start.Sub(r.t0)), int64(dur)})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// save writes the kept spans as JSON lines to path.
func (r *recorder) save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s (%d past the cap of %d not kept)\n",
		len(r.spans), path, r.dropped, maxSpans)
	return nil
}

// timer counts calls to one function and the time spent in them.
type timer struct {
	calls, busyNS atomic.Int64
}

func (t *timer) since(start time.Time) time.Duration {
	d := time.Since(start)
	t.calls.Add(1)
	t.busyNS.Add(int64(d))
	return d
}

// diskCounters is the backend layer's tally for one disk slot. A
// replacement counts toward the slot of the disk it replaces.
type diskCounters struct {
	read, write, sync timer
	writeBytes        atomic.Int64
}

// diskLayer holds the backend counters of every slot of one array.
type diskLayer struct {
	rec   *recorder
	slots []diskCounters
}

func newDiskLayer(rec *recorder, c int) *diskLayer {
	return &diskLayer{rec: rec, slots: make([]diskCounters, c)}
}

// diskTotals sums the backend counters over slots.
type diskTotals struct {
	reads, writes, syncs            int64
	readNS, writeNS, syncNS, wbytes int64
}

func (l *diskLayer) totals() diskTotals {
	var t diskTotals
	for i := range l.slots {
		s := &l.slots[i]
		t.reads += s.read.calls.Load()
		t.writes += s.write.calls.Load()
		t.syncs += s.sync.calls.Load()
		t.readNS += s.read.busyNS.Load()
		t.writeNS += s.write.busyNS.Load()
		t.syncNS += s.sync.busyNS.Load()
		t.wbytes += s.writeBytes.Load()
	}
	return t
}

// reads returns each slot's read count.
func (l *diskLayer) reads() []int64 {
	out := make([]int64, len(l.slots))
	for i := range l.slots {
		out[i] = l.slots[i].read.calls.Load()
	}
	return out
}

// tracedDisk times ReadUnit and WriteUnit of the backend it wraps.
type tracedDisk struct {
	d   declust.StoreDisk
	c   *diskCounters
	rec *recorder
}

func (t *tracedDisk) ReadUnit(off int64, dst []byte) error {
	start := time.Now()
	err := t.d.ReadUnit(off, dst)
	t.rec.record("store.disk", "ReadUnit", 0, start, t.c.read.since(start))
	return err
}

func (t *tracedDisk) WriteUnit(off int64, src []byte) error {
	start := time.Now()
	err := t.d.WriteUnit(off, src)
	t.rec.record("store.disk", "WriteUnit", 0, start, t.c.write.since(start))
	t.c.writeBytes.Add(int64(len(src)))
	return err
}

func (t *tracedDisk) Close() error { return t.d.Close() }

func (t *tracedDisk) geometry() (int64, int) {
	return t.d.(interface{ Geometry() (int64, int) }).Geometry()
}

func (t *tracedDisk) sync() error {
	start := time.Now()
	err := t.d.(interface{ Sync() error }).Sync()
	t.rec.record("store.disk", "Sync", 0, start, t.c.sync.since(start))
	return err
}

// The engine checks a backend's Geometry when it has one and fsyncs it
// at Store.Sync when it has Sync, so the wrapper must have exactly the
// optional methods of the backend it wraps: without Geometry the store
// would skip its geometry check, and without Sync it would skip the
// fsync — a different program from the one shipped.
type (
	tracedDiskG  struct{ *tracedDisk }
	tracedDiskS  struct{ *tracedDisk }
	tracedDiskGS struct{ *tracedDisk }
)

func (t tracedDiskG) Geometry() (int64, int)  { return t.geometry() }
func (t tracedDiskS) Sync() error             { return t.sync() }
func (t tracedDiskGS) Geometry() (int64, int) { return t.geometry() }
func (t tracedDiskGS) Sync() error            { return t.sync() }

// wrap returns d traced as disk slot i.
func (l *diskLayer) wrap(i int, d declust.StoreDisk) declust.StoreDisk {
	t := &tracedDisk{d: d, c: &l.slots[i], rec: l.rec}
	_, sized := d.(interface{ Geometry() (int64, int) })
	_, syncs := d.(interface{ Sync() error })
	switch {
	case sized && syncs:
		return tracedDiskGS{t}
	case sized:
		return tracedDiskG{t}
	case syncs:
		return tracedDiskS{t}
	}
	return t
}

// tracedIntent times the write-intent log's durable marks and clears.
type tracedIntent struct {
	l             declust.StoreIntentLog
	rec           *recorder
	mark, clear   timer
	markedRegions atomic.Int64
}

func (t *tracedIntent) Init(regions int64) ([]int64, error) { return t.l.Init(regions) }
func (t *tracedIntent) Close() error                        { return t.l.Close() }

func (t *tracedIntent) Mark(r int64) error {
	start := time.Now()
	err := t.l.Mark(r)
	t.rec.record("store.intent", "Mark", 0, start, t.mark.since(start))
	t.markedRegions.Add(1)
	return err
}

func (t *tracedIntent) MarkBatch(rs []int64) error {
	start := time.Now()
	err := t.l.MarkBatch(rs)
	t.rec.record("store.intent", "MarkBatch", 0, start, t.mark.since(start))
	t.markedRegions.Add(int64(len(rs)))
	return err
}

func (t *tracedIntent) Clear(r int64) error {
	start := time.Now()
	err := t.l.Clear(r)
	t.rec.record("store.intent", "Clear", 0, start, t.clear.since(start))
	return err
}

func (t *tracedIntent) ClearBatch(rs []int64) error {
	start := time.Now()
	err := t.l.ClearBatch(rs)
	t.rec.record("store.intent", "ClearBatch", 0, start, t.clear.since(start))
	return err
}

// memIntent is an in-memory IntentLog with the bookkeeping of the
// engine's default one, which is unexported: the traced run of a
// mem-backed workload wraps this instead, so its intent layer is
// measured too.
type memIntent struct{ dirty []bool }

func (m *memIntent) Init(regions int64) ([]int64, error) {
	m.dirty = make([]bool, regions)
	return nil, nil
}
func (m *memIntent) Mark(r int64) error  { m.dirty[r] = true; return nil }
func (m *memIntent) Clear(r int64) error { m.dirty[r] = false; return nil }
func (m *memIntent) MarkBatch(rs []int64) error {
	for _, r := range rs {
		m.dirty[r] = true
	}
	return nil
}
func (m *memIntent) ClearBatch(rs []int64) error {
	for _, r := range rs {
		m.dirty[r] = false
	}
	return nil
}
func (m *memIntent) Close() error { return nil }

// engine is the part of *declust.Store the workloads drive; tracedStore
// implements it with a timer around each method.
type engine interface {
	ReadUnit(n int64, dst []byte) error
	WriteUnit(n int64, src []byte) error
	ReadRange(start int64, dst []byte) error
	WriteRange(start int64, src []byte) error
	Sync() error
	Fail(d int) error
	Rebuild(repl declust.StoreDisk) error
	CheckParity() error
	Stats() declust.StoreStats
	DataUnits() int64
	Close() error
}

// storeMethods names the Store methods the traced run times, in report
// order.
var storeMethods = []string{"ReadUnit", "WriteUnit", "WriteRange", "Sync", "Fail", "Rebuild", "CheckParity"}

// storeLayer is the traced run's tally of Store calls, shared by every
// store the run opens.
type storeLayer struct {
	rec    *recorder
	timers map[string]*timer
	nextOp atomic.Int64
}

func newStoreLayer(rec *recorder) *storeLayer {
	l := &storeLayer{rec: rec, timers: make(map[string]*timer)}
	for _, m := range storeMethods {
		l.timers[m] = new(timer)
	}
	return l
}

func (l *storeLayer) time(name string, start time.Time) {
	l.rec.record("store", name, l.nextOp.Add(1), start, l.timers[name].since(start))
}

type tracedStore struct {
	*declust.Store
	l *storeLayer
}

func (s tracedStore) ReadUnit(n int64, dst []byte) error {
	start := time.Now()
	defer s.l.time("ReadUnit", start)
	return s.Store.ReadUnit(n, dst)
}

func (s tracedStore) WriteUnit(n int64, src []byte) error {
	start := time.Now()
	defer s.l.time("WriteUnit", start)
	return s.Store.WriteUnit(n, src)
}

func (s tracedStore) WriteRange(start int64, src []byte) error {
	t0 := time.Now()
	defer s.l.time("WriteRange", t0)
	return s.Store.WriteRange(start, src)
}

func (s tracedStore) Sync() error {
	start := time.Now()
	defer s.l.time("Sync", start)
	return s.Store.Sync()
}

func (s tracedStore) Fail(d int) error {
	start := time.Now()
	defer s.l.time("Fail", start)
	return s.Store.Fail(d)
}

func (s tracedStore) Rebuild(repl declust.StoreDisk) error {
	start := time.Now()
	defer s.l.time("Rebuild", start)
	return s.Store.Rebuild(repl)
}

func (s tracedStore) CheckParity() error {
	start := time.Now()
	defer s.l.time("CheckParity", start)
	return s.Store.CheckParity()
}

// spanPath names the span file of one traced run inside the build
// directory.
func spanPath(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", dir, workload, seed)
}
