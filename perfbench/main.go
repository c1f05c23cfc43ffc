// Command perfbench is the repository's end-to-end benchmark: it drives
// the real storage engine (internal/store, through the declust facade)
// through continuous-operation lifecycles and runs the simulator's paper
// reconstruction, checks every result, and prints the metrics of
// BENCHMARK.json. See README.md for the workloads and metrics.
//
//	perfbench --workload lifecycle-pq-mem --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"declust/internal/gf256"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
	lower      bool // lower is better
}

// endToEnd are the metrics of an untraced run; every workload reports
// all of them (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"ops_per_s", "1/s", false},
	{"read_p50_us", "us", true},
	{"read_p99_us", "us", true},
	{"write_p50_us", "us", true},
	{"write_p99_us", "us", true},
	{"rebuild_s", "s", true},
	{"rebuild_ops_per_s", "1/s", false},
	{"rebuild_op_p99_us", "us", true},
	{"max_rss_mb", "MB", true},
}

// perLayer are the metrics of a traced run; a layer the workload does not
// run reports 0.
var perLayer = func() []metricDef {
	var ms []metricDef
	for _, m := range storeMethods {
		ms = append(ms, metricDef{"store." + m + ".calls", "count", false},
			metricDef{"store." + m + ".busy_us", "us", true})
	}
	ms = append(ms,
		metricDef{"store.cpu_us_per_op", "us", true},
		metricDef{"store.degraded_reads", "count", false},
		metricDef{"store.folded_writes", "count", false},
		metricDef{"store.redirected_writes", "count", false},
		metricDef{"store.rebuilt_units", "count", false},
		metricDef{"store.retries", "count", true},
		metricDef{"store.healed_units", "count", true},
		metricDef{"store.disk.reads", "count", false},
		metricDef{"store.disk.writes", "count", false},
		metricDef{"store.disk.read_busy_us", "us", true},
		metricDef{"store.disk.write_busy_us", "us", true},
		metricDef{"store.disk.syncs", "count", true},
		metricDef{"store.disk.sync_busy_us", "us", true},
		metricDef{"store.disk.accesses_per_op", "count", true},
		metricDef{"store.disk.write_bytes_per_user_byte", "ratio", true},
		metricDef{"store.disk.rebuild_read_imbalance", "ratio", true},
		metricDef{"store.intent.mark_batches", "count", true},
		metricDef{"store.intent.marked_regions", "count", true},
		metricDef{"store.intent.mark_busy_us", "us", true},
		metricDef{"store.intent.clear_busy_us", "us", true},
		metricDef{"store.intent.regions_per_batch", "count", false},
		metricDef{"gf256.mul_add_mb_per_s", "MB/s", false},
	)
	for _, c := range simCodes {
		p := "sim." + c.name + "."
		ms = append(ms,
			metricDef{p + "run_s", "s", true},
			metricDef{p + "events_per_req", "count", true},
			metricDef{p + "allocs_per_req", "count", true},
			metricDef{p + "recon_time_ms", "ms", true},
		)
	}
	return append(ms, metricDef{"trace.overhead_pct", "%", true})
}()

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report collects one run's metrics and prints them: a line per metric
// with its sample count, then the JSON object as the last line.
type report struct {
	defs  []metricDef
	vals  map[string]float64
	lines []string
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, vals: make(map[string]float64)}
}

// set records a metric with the number of samples behind it (0: one
// measurement or a count).
func (r *report) set(name string, v float64, n int64) {
	r.vals[name] = v
	r.note(name, v, n)
}

// note prints a figure that is not part of the JSON object.
func (r *report) note(name string, v float64, n int64) {
	unit := ""
	for _, d := range append(endToEnd, perLayer...) {
		if d.name == name {
			unit = d.unit
		}
	}
	line := fmt.Sprintf("%-40s %14.6g %s", name, v, unit)
	if n > 0 {
		line += fmt.Sprintf("  (n=%d)", n)
	}
	r.lines = append(r.lines, line)
}

func (r *report) print(attempted, failed int64) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]value)}
	for _, d := range r.defs {
		res.Metrics[d.name] = value{r.vals[d.name], d.unit}
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	fmt.Printf("%-40s %14.6g  (%d of %d)\n", "op_fail_frac", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	out, _ := json.Marshal(res) // a struct of plain fields always encodes
	fmt.Println(string(out))
}

func main() {
	workload := flag.String("workload", "", "lifecycle-p-file, lifecycle-pq-mem or sim-recon")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build", "directory for array files and span files")
	flag.Parse()

	attempted, failed, r, err := run(*workload, *seed, *secs, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.print(attempted, failed)
	if failed > 0 {
		os.Exit(1)
	}
}

func run(workload string, seed int64, secs float64, traced bool, workdir string) (attempted, failed int64, r *report, err error) {
	if secs <= 0 {
		return 0, 0, nil, fmt.Errorf("--seconds %g must be positive", secs)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r = newReport(defs)
	spans := spanPath(workdir, workload, seed)
	if workload == "sim-recon" {
		attempted, failed, err = simWorkload(r, seed, secs, traced, spans)
		return attempted, failed, r, err
	}
	spec, ok := storeSpecs[workload]
	if !ok {
		return 0, 0, nil, fmt.Errorf("unknown workload %q", workload)
	}
	dir := filepath.Join(workdir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	attempted, failed, err = storeWorkload(r, spec, dir, seed, secs, traced, spans)
	return attempted, failed, r, err
}

func micros(ns float64) float64 { return ns / 1e3 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// meanSecs returns the mean of ds in seconds.
func meanSecs(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum.Seconds() / float64(max(len(ds), 1))
}

// medianSecs returns the median of ds in seconds.
func medianSecs(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// storeWorkload runs a store lifecycle. Untraced, it sets the array up
// storeSetups times and reports the end-to-end metrics. Traced, it runs
// the lifecycle untraced for half the time, then traced for the other
// half, and reports the per-layer metrics and the tracing overhead.
func storeWorkload(r *report, spec storeSpec, dir string, seed int64, secs float64, traced bool, spans string) (attempted, failed int64, err error) {
	var (
		a      *array
		setups []time.Duration
	)
	// open replaces the current array, closing it first so that two
	// arrays never hold memory at once.
	open := func(i int, t *layers) error {
		if a != nil {
			if err := a.close(); err != nil {
				return fmt.Errorf("closing array: %w", err)
			}
		}
		start := time.Now()
		arr, err := openArray(spec, filepath.Join(dir, fmt.Sprint(i)), t)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start))
		attempted++
		a = arr
		return nil
	}
	finish := func(res *lifecycle) {
		attempted += res.attempted + 1
		failed += res.failed
		logCheck(res.firstErr)
		if err := a.close(); err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "perfbench: close:", err)
		}
		a = nil
	}

	if !traced {
		for i := 0; i < storeSetups; i++ {
			if err := open(i, nil); err != nil {
				return attempted, failed, err
			}
		}
		res := runLifecycle(a, seed, secs)
		finish(res)
		quantile := func(h func(w *window) *hist, q float64) func(w *window, _ int) float64 {
			return func(w *window, _ int) float64 { return micros(h(w).quantile(q)) }
		}
		reads, writes := int64(res.pooled(readHist).n), int64(res.pooled(writeHist).n)
		r.set("setup_s", medianSecs(setups), int64(len(setups)))
		r.set("ops_per_s", res.opsPerSec(), res.normalOps())
		r.set("read_p50_us", res.perCycle(quantile(readHist, 0.5)), reads)
		r.set("read_p99_us", res.perCycle(quantile(readHist, 0.99)), reads)
		r.set("write_p50_us", res.perCycle(quantile(writeHist, 0.5)), writes)
		r.set("write_p99_us", res.perCycle(quantile(writeHist, 0.99)), writes)
		var rebuildDur time.Duration
		for _, d := range res.rebuildDur {
			rebuildDur += d
		}
		rb := res.pooled(rebuildHist)
		r.set("rebuild_s", meanSecs(res.rebuilds), int64(len(res.rebuilds)))
		r.set("rebuild_ops_per_s", float64(rb.n)/rebuildDur.Seconds(), int64(rb.n))
		r.set("rebuild_op_p99_us", micros(rb.quantile(0.99)), int64(rb.n))
		r.set("max_rss_mb", maxRSSMB(), 0)
		return attempted, failed, nil
	}

	if err := open(0, nil); err != nil {
		return attempted, failed, err
	}
	plain := runLifecycle(a, seed, secs/2)
	finish(plain)
	tr := newLayers()
	if err := open(1, tr); err != nil {
		return attempted, failed, err
	}
	stats0 := a.eng.Stats()
	res := runLifecycle(a, seed, secs/2)
	st := a.eng.Stats()
	finish(res)

	for _, m := range storeMethods {
		t := tr.store.timers[m]
		r.set("store."+m+".calls", float64(t.calls.Load()), 0)
		r.set("store."+m+".busy_us", micros(float64(t.busyNS.Load())), 0)
	}
	userOps := res.normalOps()
	r.set("store.cpu_us_per_op", micros(float64(res.normalCPU))/float64(max(userOps, 1)), userOps)
	r.set("store.degraded_reads", float64(st.DegradedReads-stats0.DegradedReads), 0)
	r.set("store.folded_writes", float64(st.FoldedWrites-stats0.FoldedWrites), 0)
	r.set("store.redirected_writes", float64(st.RedirectedWrites-stats0.RedirectedWrites), 0)
	r.set("store.rebuilt_units", float64(st.RebuiltUnits-stats0.RebuiltUnits), 0)
	r.set("store.retries", float64(st.Retries-stats0.Retries), 0)
	r.set("store.healed_units", float64(st.HealedUnits-stats0.HealedUnits), 0)
	d := tr.disks.totals()
	r.set("store.disk.reads", float64(d.reads), 0)
	r.set("store.disk.writes", float64(d.writes), 0)
	r.set("store.disk.read_busy_us", micros(float64(d.readNS)), 0)
	r.set("store.disk.write_busy_us", micros(float64(d.writeNS)), 0)
	r.set("store.disk.syncs", float64(d.syncs), 0)
	r.set("store.disk.sync_busy_us", micros(float64(d.syncNS)), 0)
	nd := res.normalDisk
	r.set("store.disk.accesses_per_op", float64(nd.reads+nd.writes)/float64(max(userOps, 1)), userOps)
	r.set("store.disk.write_bytes_per_user_byte", float64(nd.wbytes)/float64(max(res.normalWrites, 1)*unitSize), res.normalWrites)
	r.set("store.disk.rebuild_read_imbalance", mean(res.imbalance), int64(len(res.imbalance)))
	ti := tr.intent
	r.set("store.intent.mark_batches", float64(ti.mark.calls.Load()), 0)
	r.set("store.intent.marked_regions", float64(ti.markedRegions.Load()), 0)
	r.set("store.intent.mark_busy_us", micros(float64(ti.mark.busyNS.Load())), 0)
	r.set("store.intent.clear_busy_us", micros(float64(ti.clear.busyNS.Load())), 0)
	r.set("store.intent.regions_per_batch", float64(ti.markedRegions.Load())/float64(max(ti.mark.calls.Load(), 1)), ti.mark.calls.Load())
	gfProbe(r, tr.rec)
	plainRate, tracedRate := plain.opsPerSec(), res.opsPerSec()
	r.set("trace.overhead_pct", (plainRate/tracedRate-1)*100, 0)
	r.note("untraced ops_per_s", plainRate, plain.normalOps())
	r.note("traced ops_per_s", tracedRate, userOps)
	return attempted, failed, tr.rec.save(spans)
}

// simWorkload runs sim-recon. Untraced, it reports the end-to-end
// metrics; traced, it runs untraced for half the time, then traced, and
// reports the per-layer metrics and the tracing overhead.
func simWorkload(r *report, seed int64, secs float64, traced bool, spans string) (attempted, failed int64, err error) {
	if !traced {
		o := runSim(seed, secs, false, nil)
		var reads, writes, all hist
		var recon float64
		for _, ref := range o.refs {
			reads.merge(&ref.reads)
			writes.merge(&ref.writes)
			recon += ref.reconMS / float64(len(o.refs))
		}
		all.merge(&reads)
		all.merge(&writes)
		rate := float64(o.requests) / o.busy.Seconds()
		r.set("setup_s", medianSecs(o.setups), int64(len(o.setups)))
		r.set("ops_per_s", rate, o.requests)
		r.note("sim_req_per_s", rate, o.requests)
		r.set("read_p50_us", micros(reads.quantile(0.5)), int64(reads.n))
		r.set("read_p99_us", micros(reads.quantile(0.99)), int64(reads.n))
		r.set("write_p50_us", micros(writes.quantile(0.5)), int64(writes.n))
		r.set("write_p99_us", micros(writes.quantile(0.99)), int64(writes.n))
		r.set("rebuild_s", recon/1e3, int64(len(o.refs)))
		r.set("rebuild_ops_per_s", rate, o.requests)
		r.set("rebuild_op_p99_us", micros(all.quantile(0.99)), int64(all.n))
		r.set("max_rss_mb", maxRSSMB(), 0)
		logCheck(o.firstErr)
		return o.attempted, o.failed, nil
	}

	plain := runSim(seed, secs/2, false, nil)
	rec := newRecorder()
	o := runSim(seed, secs/2, true, rec)
	for i, c := range simCodes {
		p := "sim." + c.name + "."
		ref := o.refs[i]
		r.set(p+"run_s", medianSecs(o.wall[i]), int64(len(o.wall[i])))
		r.set(p+"events_per_req", float64(ref.events)/float64(max(ref.requests, 1)), int64(ref.requests))
		r.set(p+"allocs_per_req", o.allocsPerReq[i], int64(ref.requests))
		r.set(p+"recon_time_ms", ref.reconMS, 0)
	}
	gfProbe(r, rec)
	plainRate := float64(plain.requests) / plain.busy.Seconds()
	tracedRate := float64(o.requests) / o.busy.Seconds()
	r.set("trace.overhead_pct", (plainRate/tracedRate-1)*100, 0)
	r.note("untraced sim_req_per_s", plainRate, plain.requests)
	r.note("traced sim_req_per_s", tracedRate, o.requests)
	if err := rec.save(spans); err != nil {
		return 0, 0, err
	}
	logCheck(errors.Join(plain.firstErr, o.firstErr))
	return plain.attempted + o.attempted, plain.failed + o.failed, nil
}

// logCheck prints a failed check to standard error; the run still
// reports its metrics, with correct false.
func logCheck(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// gfProbe times gf256.MulAddSlice on unit-sized buffers, the kernel that
// folds g^d·Δ into Q on every P+Q write and decodes two erasures.
func gfProbe(r *report, rec *recorder) {
	const calls = 4096
	dst := make([]byte, unitSize)
	src := make([]byte, unitSize)
	pattern(src, 0, 1)
	var rates []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			gf256.MulAddSlice(dst, src, byte(2+i%254))
		}
		d := time.Since(start)
		rec.record("gf256", "MulAddSlice", 0, start, d)
		rates = append(rates, float64(calls*unitSize)/1e6/d.Seconds())
	}
	r.set("gf256.mul_add_mb_per_s", median(rates), int64(len(rates)))
}
