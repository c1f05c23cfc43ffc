package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"declust"
)

// period is the appendix layout's allocation period in units per disk,
// the smallest disk a store over it can use.
func period(t *testing.T) int64 {
	t.Helper()
	m, err := declust.NewMapping(arrayC, arrayG, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m.Layout.UnitsPerDiskPerPeriod()
}

// TestDiskWrapperKeepsOptionalMethods pins that the tracing wrapper has
// Geometry and Sync exactly when the wrapped backend does: the engine's
// geometry check still refuses a wrong backend, and Store.Sync still
// reaches the file backend's fsync.
func TestDiskWrapperKeepsOptionalMethods(t *testing.T) {
	units := period(t)
	l := newDiskLayer(newRecorder(), arrayC)

	mem := l.wrap(0, declust.NewMemDisk(units, unitSize))
	if _, ok := mem.(interface{ Geometry() (int64, int) }); !ok {
		t.Error("wrapped mem disk lost Geometry")
	}
	if _, ok := mem.(interface{ Sync() error }); ok {
		t.Error("wrapped mem disk gained Sync")
	}

	// A backend with the wrong unit size is refused through the wrapper.
	disks := make([]declust.StoreDisk, arrayC)
	for i := range disks {
		disks[i] = l.wrap(i, declust.NewMemDisk(units, 512))
	}
	_, err := declust.OpenStore(arrayC, arrayG, declust.StoreConfig{UnitsPerDisk: units, UnitSize: unitSize, Disks: disks})
	if err == nil || !strings.Contains(err.Error(), "512-byte units") {
		t.Fatalf("store over wrong-geometry backends: err = %v, want a unit size mismatch", err)
	}

	dir := t.TempDir()
	raw, err := declust.OpenFileDisks(dir, arrayC, units, unitSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := range disks {
		disks[i] = l.wrap(i, raw[i])
	}
	if _, ok := disks[0].(interface{ Geometry() (int64, int) }); !ok {
		t.Error("wrapped file disk lost Geometry")
	}
	s, err := declust.OpenStore(arrayC, arrayG, declust.StoreConfig{UnitsPerDisk: units, UnitSize: unitSize, Disks: disks})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() }) // fails on the disk closed below
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.totals().syncs; got != arrayC {
		t.Errorf("Store.Sync made %d backend syncs through the wrapper, want %d", got, arrayC)
	}
	// Close one file underneath the wrapper: Store.Sync now fails in that
	// file's fsync, which shows the call reaches it.
	raw[3].Close()
	if err := s.Sync(); err == nil || !strings.Contains(err.Error(), "sync disk 3") {
		t.Errorf("Store.Sync over a closed file: err = %v, want the fsync of disk 3 to fail", err)
	}
}

// TestLayerCountsOnTinyArray pins the wrappers' counts, which are exact
// with one client: a healthy P write costs 2 reads and 2 writes, a
// healthy P+Q write 6 accesses, and a read of a lost unit under P the
// G−1 survivors.
func TestLayerCountsOnTinyArray(t *testing.T) {
	units := period(t)
	open := func(parities int) *array {
		t.Helper()
		a, err := openArray(storeSpec{parities: parities, units: units}, t.TempDir(), newLayers())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.close() })
		return a
	}
	write := func(a *array, n int64) (reads, writes int64) {
		t.Helper()
		before := a.tr.disks.totals()
		buf := make([]byte, unitSize)
		a.version[n]++
		pattern(buf, n, a.version[n])
		if err := a.eng.WriteUnit(n, buf); err != nil {
			t.Fatal(err)
		}
		after := a.tr.disks.totals()
		return after.reads - before.reads, after.writes - before.writes
	}

	p := open(1)
	marks := func() (batches, regions int64) {
		return p.tr.intent.mark.calls.Load(), p.tr.intent.markedRegions.Load()
	}
	b0, n0 := marks()
	if r, w := write(p, 7); r != 2 || w != 2 {
		t.Errorf("healthy P write: %d reads + %d writes, want 2 + 2", r, w)
	}
	// The set-up's Sync cleared the intent log, so the first write above
	// marked its region once; a second write into it marks nothing.
	if b, n := marks(); b-b0 != 1 || n-n0 != 1 {
		t.Errorf("intent log after one write: %d batches, %d regions, want 1 and 1", b-b0, n-n0)
	}
	write(p, 8)
	if b, _ := marks(); b-b0 != 1 {
		t.Errorf("intent log after a second write into the region: %d batches, want 1", b-b0)
	}

	m, err := declust.NewMapping(arrayC, arrayG, 0)
	if err != nil {
		t.Fatal(err)
	}
	const lost = 5
	var n int64
	for declust.DataLoc(m.Layout, n).Disk != lost {
		n++
	}
	if err := p.eng.Fail(lost); err != nil {
		t.Fatal(err)
	}
	before := p.tr.disks.totals()
	buf := make([]byte, unitSize)
	if err := p.eng.ReadUnit(n, buf); err != nil {
		t.Fatal(err)
	}
	after := p.tr.disks.totals()
	if r, w := after.reads-before.reads, after.writes-before.writes; r != arrayG-1 || w != 0 {
		t.Errorf("read of a lost unit under P: %d reads + %d writes, want %d + 0", r, w, arrayG-1)
	}
	want := make([]byte, unitSize)
	pattern(want, n, p.version[n])
	if string(buf) != string(want) {
		t.Error("read of a lost unit returned the wrong bytes")
	}

	pq := open(2)
	if r, w := write(pq, 7); r+w != 6 || r != 3 {
		t.Errorf("healthy P+Q write: %d reads + %d writes, want 3 + 3", r, w)
	}
}

// TestLifecycleChecksPass runs a short lifecycle of each store workload
// and requires every check to pass.
func TestLifecycleChecksPass(t *testing.T) {
	for name, spec := range storeSpecs {
		t.Run(name, func(t *testing.T) {
			spec.units = period(t) * 4
			spec.cycles = 2
			a, err := openArray(spec, t.TempDir(), newLayers())
			if err != nil {
				t.Fatal(err)
			}
			res := runLifecycle(a, 1, 0.2)
			if err := a.close(); err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Fatalf("%d of %d operations failed; first: %v", res.failed, res.attempted, res.firstErr)
			}
			if want := spec.cycles * spec.rounds * spec.parities; len(res.rebuilds) != want {
				t.Errorf("%d rebuilds, want %d", len(res.rebuilds), want)
			}
			for _, x := range res.imbalance {
				if x < 1 {
					t.Errorf("rebuild read imbalance %g below 1", x)
				}
			}
		})
	}
}

// TestHistQuantile checks the histogram against exact quantiles.
func TestHistQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	xs := make([]float64, 100_000)
	for i := range xs {
		v := int64(rng.ExpFloat64() * 20_000)
		h.add(v)
		xs[i] = float64(v)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := xs[int(q*float64(len(xs)-1))]
		if got := h.quantile(q); got < exact*0.99 || got > exact*1.01 {
			t.Errorf("q%.2f = %.0f, exact %.0f", q, got, exact)
		}
	}
	for v := uint64(0); v < 1<<20; v += 37 {
		lo, hi := histBounds(histIndex(v))
		if v < lo || v >= hi {
			t.Fatalf("value %d filed in bucket [%d, %d)", v, lo, hi)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			better := "higher"
			if w.lower {
				better = "lower"
			}
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program has %s %s %s", kind, i, g, w.name, w.unit, better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := storeSpecs[w.Name]; !ok && w.Name != "sim-recon" {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(storeSpecs)+1 {
		t.Errorf("BENCHMARK.json lists workloads %v", names)
	}
}
