package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/runner"
)

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: the
// workloads and every metric's name and unit must match exactly.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		doc  []m
		prog []metric
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.doc) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.doc), len(c.prog))
			continue
		}
		for i, d := range c.doc {
			if d.Name != c.prog[i].name || d.Unit != c.prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					c.kind, i, d.Name, d.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

// TestPaperErrPct pins the fidelity metric at the seed the repository's
// tables use and at a seed no one tuned against. A change that only
// makes the simulator faster must leave it exactly as it is.
func TestPaperErrPct(t *testing.T) {
	for _, seed := range []uint64{1994, 271828} {
		got, err := paperErrPct(seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Round(got*1000)/1000 != 8.808 {
			t.Errorf("seed %d: paper_rtt_err_pct = %.6f, want 8.808", seed, got)
		}
	}
}

// TestExactCountsRepeat runs each workload's unit twice at its own
// worker count and once serially: the simulated counts and latency
// quantiles must agree bit for bit. The mbuf free-list counters are
// left out, since they depend on which warm testbed a trial lands on.
func TestExactCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name == "fanin-10k" {
			continue
		}
		w := w
		t.Run(w.name, func(t *testing.T) {
			base := runner.SeedFor(7, 1)
			serial := *w
			serial.workers = 1
			var ref counts
			var refQ [2]float64
			for i, def := range []*workloadDef{w, w, &serial} {
				if i == 2 && w.workers == 1 {
					break
				}
				u := runUnit(def, base, true)
				attempted, failed, c := u.tally()
				if failed != 0 || attempted == 0 {
					t.Fatalf("run %d: %d of %d operations failed", i, failed, attempted)
				}
				c.pool = poolCounts{}
				q := u.latQuantiles()
				if i == 0 {
					ref, refQ = c, [2]float64{q.P50, q.P99}
					continue
				}
				if c != ref {
					t.Errorf("run %d (workers %d): counts %+v, want %+v", i, def.workers, c, ref)
				}
				if got := [2]float64{q.P50, q.P99}; got != refQ {
					t.Errorf("run %d (workers %d): latency p50/p99 %v, want %v", i, def.workers, got, refQ)
				}
			}
		})
	}
}

// TestProfileCoverage profiles one paper-sweep unit and checks that
// the named modules account for at least 95% of its samples.
func TestProfileCoverage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	runUnit(lookup("paper-sweep"), 1, false)
	pprof.StopCPUProfile()
	folded, period, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range folded {
		total += n
	}
	if total == 0 || period <= 0 {
		t.Fatalf("no samples (period %d ns)", period)
	}
	if share := float64(folded[""]) / float64(total); share > 0.05 {
		t.Errorf("%.1f%% of %d samples fall outside the named modules", 100*share, total)
	}
}

func TestBucket(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/tcp.(*Conn).output", "repro/internal/sim.(*Env).Run"}, "tcp"},
		{[]string{"repro/internal/cost.(*Model).Copy", "repro/internal/kern.(*Kernel).Charge", "repro/internal/sim.(*Env).Run"}, "kern"},
		{[]string{"repro/internal/sim.(*heap[go.shape.struct { a/b.c }]).push", "main.runTrial"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go.gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/atm.(*Switch).forward"}, "go.gc"},
		{[]string{"runtime.futex", "runtime.schedule", "runtime.mcall"}, "go.other"},
		{[]string{"sort.Float64s", "main.quantile", "main.main"}, ""},
		{[]string{"repro/internal/runner.Run.func1", "runtime.goexit"}, ""},
	} {
		if got := bucket(c.stack); got != c.want {
			t.Errorf("bucket(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestCPUClocks checks the property the timed metrics rest on: the CPU
// clocks advance while the thread works and stand still while it waits.
func TestCPUClocks(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, p0, w0 := threadCPU(), processCPU(), time.Now()
	x := 1
	for time.Since(w0) < 50*time.Millisecond {
		x = x*31 + 7
	}
	busy, proc, wall := threadCPU()-t0, processCPU()-p0, time.Since(w0)
	if busy < 10*time.Millisecond || busy > wall+time.Millisecond || proc < busy {
		t.Errorf("spinning %v: thread CPU %v, process CPU %v (x=%d)", wall, busy, proc, x)
	}
	t1 := threadCPU()
	time.Sleep(50 * time.Millisecond)
	if idle := threadCPU() - t1; idle > 10*time.Millisecond {
		t.Errorf("sleeping 50ms: thread CPU %v", idle)
	}
}
