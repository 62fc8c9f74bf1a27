// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator for a fixed host-time budget, checks
// the simulated outputs, and prints its metrics by name with their
// units; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 they are the per-layer ones, from a run
// that profiles and counts. Run it from the repository root:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 30 --trace 0
//
// The benchmark measures from outside the program: it times the public
// calls it makes itself, reads the simulated counters the packages
// already export, and folds a runtime/pprof CPU profile by package.
// README.md says what every metric means and which end-to-end metric
// each per-layer one should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/lab"
	"repro/internal/runner"
)

type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"},
	{"exchanges_per_s", "1/s"},
	{"trial_ms_p50", "ms"},
	{"trial_ms_p90", "ms"},
	{"heap_live_mb", "MB"},
	{"allocs_per_exchange", "count"},
	{"alloc_kb_per_exchange", "KB"},
	{"paper_rtt_err_pct", "%"},
}

var perLayer = func() []metric {
	m := []metric{
		{"runner.busy_frac", "frac"},
		{"runner.tail_idle_ms", "ms"},
		{"runner.unspanned_frac", "frac"},
		{"lab.build_ms", "ms"},
		{"lab.reset_ms", "ms"},
		{"lab.echo_ms", "ms"},
		{"workload.run_ms", "ms"},
		{"stats.sample_ms", "ms"},
	}
	for _, mod := range modules {
		m = append(m, metric{mod + ".host_share", "frac"})
	}
	return append(m, []metric{
		{"profile.samples", "count"},
		{"profile.unattributed_frac", "frac"},
		{"trace.overhead_pct", "%"},
		{"sim.host_ns_per_exchange", "ns"},
		{"atm.host_ns_per_cell", "ns"},
		{"checksum.host_ns_per_kb", "ns"},
		{"tcp.host_ns_per_seg", "ns"},
		{"go.gc.host_ns_per_exchange", "ns"},
		{"tcp.segs_per_exchange", "count"},
		{"tcp.retransmits", "count"},
		{"tcp.fastpath_frac", "frac"},
		{"tcp.pcb_cache_hit_frac", "frac"},
		{"tcp.pcb_searched_per_seg", "count"},
		{"tcp.delayed_acks", "count"},
		{"atm.cells_per_exchange", "count"},
		{"atm.cells_switched", "count"},
		{"atm.cells_dropped", "count"},
		{"atm.ge_drops", "count"},
		{"atm.switch_drops", "count"},
		{"atm.cells_reordered", "count"},
		{"mbuf.reuse_frac", "frac"},
		{"mbuf.header_news", "count"},
		{"mbuf.page_news", "count"},
		{"workload.sim_elapsed_s", "s"},
		{"workload.sim_lat_p50_us", "us"},
		{"workload.sim_lat_p99_us", "us"},
		{"go.gc_cycles", "count"},
		{"go.gc_pause_ms", "ms"},
	}...)
}()

// result is what one run prints.
type result struct {
	attempted, failed int64
	problems          []string // failed output checks; empty means correct
	values            map[string]float64
	notes             []string // context printed beside the metrics
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-sweep, fanin-10k or loaded-mix")
	seed := flag.Uint64("seed", 1, "seed every input of the run derives from")
	secs := flag.Float64("seconds", 30, "wall-clock seconds to measure for")
	traceRun := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead")
	flag.Parse()
	w := lookup(*name)
	if w == nil || *secs <= 0 || (*traceRun != 0 && *traceRun != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload paper-sweep|fanin-10k|loaded-mix, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	d := time.Duration(*secs * float64(time.Second))
	var (
		r     *result
		err   error
		table = endToEnd
	)
	if *traceRun == 1 {
		r, err = traced(w, *seed, d)
		table = perLayer
	} else {
		r = untraced(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, w.name, r, table); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// untraced measures the end-to-end metrics: cold set-ups first, then
// whole units until the time is up, then the paper-fidelity grid.
//
// The times are CPU times, not wall-clock times: on a shared machine a
// run that waits for a CPU, or whose virtual CPU the host takes away,
// would otherwise measure its neighbours. The notes give the wall-clock
// figures beside them.
func untraced(w *workloadDef, seed uint64, d time.Duration) *result {
	// A set-up of a small testbed takes tens of microseconds, so each
	// sample times a batch of them on one locked thread.
	setup := make([]float64, w.setups)
	runtime.LockOSThread()
	for i := range setup {
		c0 := threadCPU()
		for k := 0; k < w.setupBatch; k++ {
			for _, s := range w.shapes {
				lab.NewTopology(s.cfg, s.hosts)
			}
		}
		setup[i] = (threadCPU() - c0).Seconds() / float64(w.setupBatch)
	}
	runtime.UnlockOSThread()

	r := &result{}
	var (
		m0, m1, mu runtime.MemStats
		c          counts
		rates      []float64   // exchanges per CPU second, per unit
		wallRates  []float64   // exchanges per wall-clock second, per unit
		trialMs    [][]float64 // CPU ms per trial, by job index
		wallMs     [][]float64 // wall-clock ms per trial, by job index
		heaps      []float64   // live heap MB after each unit
		last       unit
		units      int
	)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for ; units == 0 || time.Since(start) < d; units++ {
		last = unit{} // let the previous unit's testbeds go
		last = runUnit(w, runner.SeedFor(seed, units), false)
		uc := r.check(&last)
		c.add(uc)
		rates = append(rates, float64(uc.exchanges)/last.cpu.Seconds())
		wallRates = append(wallRates, float64(uc.exchanges)/last.wall.Seconds())
		if trialMs == nil {
			trialMs = make([][]float64, len(last.trials))
			wallMs = make([][]float64, len(last.trials))
		}
		for i, tr := range last.trials {
			if last.errs[i] == nil {
				trialMs[i] = append(trialMs[i], ms(tr.cpu))
				wallMs[i] = append(wallMs[i], ms(tr.end.Sub(tr.start)))
			}
		}
		// The unit's testbeds are still reachable. Which state they hold
		// depends on the unit's seeds, hence the median over units.
		runtime.GC()
		runtime.ReadMemStats(&mu)
		heaps = append(heaps, float64(mu.HeapAlloc)/(1<<20))
	}
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(last)

	// A trial's time is its median over the units, so one slow trial
	// cannot move a percentile that falls between trial kinds.
	perTrial, perWall := medians(trialMs), medians(wallMs)
	errPct, err := paperErrPct(seed, w.workers)
	if err != nil {
		r.problems = append(r.problems, "paper grid: "+err.Error())
	}
	ex := float64(max(c.exchanges, 1))
	r.values = map[string]float64{
		"setup_s":               median(setup),
		"exchanges_per_s":       median(rates),
		"trial_ms_p50":          quantile(perTrial, 0.5),
		"trial_ms_p90":          quantile(perTrial, 0.9),
		"heap_live_mb":          median(heaps),
		"allocs_per_exchange":   float64(m1.Mallocs-m0.Mallocs) / ex,
		"alloc_kb_per_exchange": float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / ex,
		"paper_rtt_err_pct":     errPct,
	}
	r.notes = append(r.notes,
		fmt.Sprintf("measured %.2f s: %d units of %d trials, %d exchanges", elapsed, units, len(trialMs), c.exchanges),
		fmt.Sprintf("setup_s is the median of %d batches of %d cold set-ups; exchanges_per_s and heap_live_mb are medians over the %d units", len(setup), w.setupBatch, units),
		fmt.Sprintf("trial_ms_* are over %d trials, each timed as its median over the units", len(perTrial)),
		fmt.Sprintf("times are CPU times (the process's for exchanges_per_s, the working thread's for setup_s and trial_ms_*); wall clock: %.6g exchanges/s, trial p50 %.6g ms, p90 %.6g ms",
			median(wallRates), quantile(perWall, 0.5), quantile(perWall, 0.9)),
		fmt.Sprintf("failed_frac = %g (%d of %d operations)", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted))
	return r
}

// traced measures the per-layer metrics. Unit 0 warms the process up;
// then every seed runs twice, once with the CPU profile on and once
// without, in alternating order, so the tracing overhead compares
// identical work and the exact counts of the twins must agree. Exact
// counts are reported from the first traced unit.
func traced(w *workloadDef, seed uint64, d time.Duration) (*result, error) {
	r := &result{}
	var (
		sum, ref          counts // over traced units, over their untraced twins
		first             counts // of the first traced unit
		lat               [2]float64
		nTraced           int
		tracedS, refS     float64
		trialS, spanS     float64
		capacity, tail    float64
		build, reset      spanMean
		echo, run, sample spanMean
		folded            = map[string]int64{}
		period            int64
		gcCycles          uint32
		gcPause           uint64
	)
	start := time.Now()
	warm := runUnit(w, runner.SeedFor(seed, 0), false)
	r.check(&warm)
	for k := 1; k == 1 || time.Since(start) < d; k++ {
		base := runner.SeedFor(seed, k)
		var tc, rc counts
		for j := 0; j < 2; j++ {
			if (j == 0) == (k%2 == 1) { // odd seeds run the untraced twin first
				u := runUnit(w, base, false)
				rc = r.check(&u)
				ref.add(rc)
				refS += u.cpu.Seconds()
				continue
			}
			var buf bytes.Buffer
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return nil, err
			}
			u := runUnit(w, base, nTraced == 0)
			pprof.StopCPUProfile()
			runtime.ReadMemStats(&m1)
			f, p, err := foldProfile(buf.Bytes())
			if err != nil {
				return nil, err
			}
			for m, v := range f {
				folded[m] += v
			}
			period = p
			gcCycles += m1.NumGC - m0.NumGC
			gcPause += m1.PauseTotalNs - m0.PauseTotalNs

			tc = r.check(&u)
			if nTraced == 0 {
				first = tc
				q := u.latQuantiles()
				lat = [2]float64{q.P50, q.P99}
			}
			sum.add(tc)
			nTraced++
			tracedS += u.cpu.Seconds()
			capacity += float64(w.workers) * u.wall.Seconds()
			tail += ms(u.tailIdle())
			for i, tr := range u.trials {
				if u.errs[i] != nil {
					continue
				}
				trialS += tr.end.Sub(tr.start).Seconds()
				spanS += (tr.build + tr.reset + tr.run + tr.sample).Seconds()
				build.add(tr.build)
				reset.add(tr.reset)
				if u.specs[i].gen == nil {
					echo.add(tr.run)
				} else {
					run.add(tr.run)
				}
				sample.add(tr.sample)
			}
		}
		tc.pool, rc.pool = poolCounts{}, poolCounts{}
		if tc != rc {
			r.problems = append(r.problems, fmt.Sprintf(
				"seed %d: simulated counts differ between the traced and the untraced run", base))
		}
	}

	var samples int64
	for _, v := range folded {
		samples += v
	}
	hostNs := func(mod string, per int64) float64 {
		return ratio(float64(folded[mod]*period), float64(per))
	}
	fc, fp := first, first.pool
	v := map[string]float64{
		"runner.busy_frac":           ratio(trialS, capacity),
		"runner.tail_idle_ms":        tail / float64(nTraced),
		"runner.unspanned_frac":      ratio(trialS-spanS, trialS),
		"lab.build_ms":               build.ms(),
		"lab.reset_ms":               reset.ms(),
		"lab.echo_ms":                echo.ms(),
		"workload.run_ms":            run.ms(),
		"stats.sample_ms":            sample.ms(),
		"profile.samples":            float64(samples),
		"profile.unattributed_frac":  ratio(float64(folded[""]), float64(samples)),
		"trace.overhead_pct":         100 * (ratio(tracedS, float64(sum.exchanges))/ratio(refS, float64(ref.exchanges)) - 1),
		"sim.host_ns_per_exchange":   hostNs("sim", sum.exchanges),
		"atm.host_ns_per_cell":       hostNs("atm", sum.cellsSent),
		"checksum.host_ns_per_kb":    hostNs("checksum", sum.payload/1024),
		"tcp.host_ns_per_seg":        hostNs("tcp", sum.segsOut),
		"go.gc.host_ns_per_exchange": hostNs("go.gc", sum.exchanges),
		"tcp.segs_per_exchange":      ratio(float64(fc.segsOut), float64(fc.exchanges)),
		"tcp.retransmits":            float64(fc.retransmits),
		"tcp.fastpath_frac":          ratio(float64(fc.fastPath), float64(fc.segsIn)),
		"tcp.pcb_cache_hit_frac":     ratio(float64(fc.pcbHits), float64(fc.segsIn)),
		"tcp.pcb_searched_per_seg":   ratio(float64(fc.pcbSearched), float64(fc.segsIn)),
		"tcp.delayed_acks":           float64(fc.delayedAcks),
		"atm.cells_per_exchange":     ratio(float64(fc.cellsSent), float64(fc.exchanges)),
		"atm.cells_switched":         float64(fc.cellsSwitched),
		"atm.cells_dropped":          float64(fc.cellsDropped),
		"atm.ge_drops":               float64(fc.geDrops),
		"atm.switch_drops":           float64(fc.switchDrops),
		"atm.cells_reordered":        float64(fc.cellsReordered),
		"mbuf.reuse_frac":            ratio(float64(fp.hdrReuses+fp.pageReuses), float64(fp.hdrReuses+fp.pageReuses+fp.hdrNews+fp.pageNews)),
		"mbuf.header_news":           float64(fp.hdrNews),
		"mbuf.page_news":             float64(fp.pageNews),
		"workload.sim_elapsed_s":     fc.simElapsed.Millis() / 1000,
		"workload.sim_lat_p50_us":    lat[0],
		"workload.sim_lat_p99_us":    lat[1],
		"go.gc_cycles":               float64(gcCycles) / float64(nTraced),
		"go.gc_pause_ms":             float64(gcPause) / 1e6 / float64(nTraced),
	}
	for _, mod := range modules {
		v[mod+".host_share"] = ratio(float64(folded[mod]), float64(samples))
	}
	r.values = v
	r.notes = append(r.notes,
		fmt.Sprintf("%d traced units (%.2f CPU s, %d profile samples at %v) and their untraced twins (%.2f CPU s)",
			nTraced, tracedS, samples, time.Duration(period), refS),
		"exact counts, workload.sim_* and tcp/atm/mbuf ratios are from the first traced unit; spans, shares and go.* are over all traced units",
		fmt.Sprintf("failed_frac = %g (%d of %d operations)", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted))
	return r, nil
}

// check accounts a unit's operations into r, records every failed
// output check, and returns the unit's exact counts.
func (r *result) check(u *unit) counts {
	attempted, failed, c := u.tally()
	r.attempted += attempted
	r.failed += failed
	for i, err := range u.errs {
		if err != nil {
			r.problems = append(r.problems, fmt.Sprintf("%s: %v", u.specs[i].label, err))
		} else if tr := u.trials[i]; tr.done != u.specs[i].want || tr.bad != 0 {
			r.problems = append(r.problems, fmt.Sprintf("%s: completed %d of %d operations, %d bad",
				u.specs[i].label, tr.done, u.specs[i].want, tr.bad))
		}
	}
	return c
}

// report prints the metrics of table one per line, then the JSON object.
func report(out *os.File, name string, r *result, table []metric) error {
	metrics := map[string]any{}
	fmt.Fprintf(out, "perfbench %s\n", name)
	for _, m := range table {
		v, ok := r.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no value", m.name)
		}
		fmt.Fprintf(out, "  %-28s %16.6g %s\n", m.name, v, m.unit)
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintf(out, "  # %s\n", n)
	}
	const maxShown = 10
	for i, p := range r.problems {
		if i == maxShown {
			fmt.Fprintf(os.Stderr, "perfbench: ... and %d more failed checks\n", len(r.problems)-maxShown)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// spanMean is the mean length of the nonzero spans of one kind.
type spanMean struct {
	total time.Duration
	n     int
}

func (s *spanMean) add(d time.Duration) {
	if d > 0 {
		s.total += d
		s.n++
	}
}

func (s spanMean) ms() float64 {
	if s.n == 0 {
		return 0
	}
	return ms(s.total) / float64(s.n)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// medians is the median of each nonempty series.
func medians(series [][]float64) []float64 {
	m := make([]float64, 0, len(series))
	for _, s := range series {
		if len(s) > 0 {
			m = append(m, median(s))
		}
	}
	return m
}

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
