package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/cost"
	"repro/internal/lab"
	"repro/internal/paperdata"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Echo iterations of one paper-sweep cell, as the paper's tables use.
const (
	echoIters  = 100
	echoWarmup = 2
)

// trialSpec is one job of a unit: a testbed shape and the operation run
// on it — an echo of size bytes when gen is nil, the generator otherwise.
type trialSpec struct {
	label string
	cfg   lab.Config
	hosts int
	size  int
	gen   workload.Generator
	want  int // measured operations the trial must complete
}

// workloadDef is one named benchmark workload. A unit is the fixed
// amount of work the measured loop repeats until its time is up; every
// unit draws its seeds from its own base seed.
type workloadDef struct {
	name    string
	workers int
	// shapes are the testbeds one cold set-up builds. A run times
	// setups batches of setupBatch cold set-ups for setup_s.
	shapes     []trialSpec
	setups     int
	setupBatch int
	unit       func(base uint64) []trialSpec
}

var workloads = []*workloadDef{
	{
		name:    "paper-sweep",
		workers: 2,
		shapes: []trialSpec{
			{cfg: lab.Config{Link: lab.LinkATM}, hosts: 2},
			{cfg: lab.Config{Link: lab.LinkEther}, hosts: 2},
		},
		setups:     41,
		setupBatch: 50,
		unit:       paperSweep,
	},
	{
		name:       "fanin-10k",
		workers:    1,
		shapes:     []trialSpec{{cfg: fanIn10kConfig, hosts: 10001}},
		setups:     7,
		setupBatch: 1,
		unit: func(base uint64) []trialSpec {
			cfg := fanIn10kConfig
			cfg.Seed = base
			return []trialSpec{{label: "fanin-10k", cfg: cfg, hosts: 10001, gen: workload.FanIn{
				Size:     200,
				Requests: 1,
				Warmup:   0,
				Stagger:  5000 * sim.Microsecond,
				Stats:    stats.Config{Streaming: true},
			}, want: 10000}}
		},
	},
	{
		name:       "loaded-mix",
		workers:    2,
		shapes:     []trialSpec{{cfg: loadedConfig, hosts: 17}},
		setups:     41,
		setupBatch: 10,
		unit:       loadedMix,
	},
}

var fanIn10kConfig = lab.Config{Link: lab.LinkATM, Fabric: lab.FabricFatTree, HashPCBs: true}

var loadedConfig = lab.Config{
	Link:      lab.LinkATM,
	Qdisc:     lab.QdiscConfig{Kind: lab.QdiscRED},
	BurstLoss: sim.GEParams{PGoodBad: 0.002, PBadGood: 0.2, LossBad: 0.5},
}

func lookup(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// paperSweep is the paper's 96-cell grid, each cell seeded exactly as
// runner.Options.BaseSeed would seed it.
func paperSweep(base uint64) []trialSpec {
	cells := runner.PaperGrid(paperdata.Sizes, echoIters, echoWarmup).Trials()
	specs := make([]trialSpec, len(cells))
	for i, c := range cells {
		specs[i] = trialSpec{
			label: c.Label,
			cfg:   runner.ApplySeed(c.Cfg, runner.SeedFor(base, i)),
			hosts: 2,
			size:  c.Size,
			want:  echoIters,
		}
	}
	return specs
}

// loadedMix is 100 seeds, each run once over TCP and once over rudp.
func loadedMix(base uint64) []trialSpec {
	var specs []trialSpec
	for k := 0; k < 100; k++ {
		cfg := loadedConfig
		cfg.Seed = runner.SeedFor(base, k)
		for _, tr := range []string{workload.TransportTCP, workload.TransportRUDP} {
			specs = append(specs, trialSpec{
				label: fmt.Sprintf("loaded/%s/%d", tr, k),
				cfg:   cfg,
				hosts: 17,
				gen: workload.FanIn{Size: 200, Requests: 8, Warmup: 1,
					Cross: &workload.CrossTraffic{Flows: 2}, Transport: tr},
				want: 16 * 8,
			})
		}
	}
	return specs
}

// trial is one finished job: its host-time spans, its outcome and the
// simulated counters its testbed holds afterwards.
type trial struct {
	worker *runner.Testbeds // identifies the worker that ran it
	lab    *lab.Lab
	start  time.Time
	end    time.Time
	cpu    time.Duration // CPU time of the worker thread, job start to job end
	// Spans around the public calls, in wall-clock time. run is Lab.RunEcho
	// or Generator.Run; exactly one of build and reset is nonzero.
	build, reset, run, sample time.Duration

	done, bad int // completed operations; corrupt echoes or Result.Errors
	counts    counts
	lats      []sim.Time // kept only when asked for
	q         stats.Quantiles
	err       error
}

func runTrial(tb *runner.Testbeds, t trialSpec, keepLats bool) trial {
	r := trial{worker: tb, start: time.Now()}
	built := tb.Built
	l := tb.Lab(t.cfg, t.hosts)
	t1 := time.Now()
	if tb.Built != built {
		r.build = t1.Sub(r.start)
	} else {
		r.reset = t1.Sub(r.start)
	}
	r.lab = l
	var lats []sim.Time
	var s *stats.Sample
	if t.gen == nil {
		res, err := l.RunEcho(t.size, echoIters, echoWarmup)
		t2 := time.Now()
		r.run = t2.Sub(t1)
		if err != nil {
			r.err, r.end = err, t2
			return r
		}
		s = &stats.Sample{}
		for _, rtt := range res.RTTs {
			s.Add(rtt.Micros())
		}
		r.done, r.bad, lats = len(res.RTTs), res.CorruptEchoes, res.RTTs
		for _, rtt := range res.RTTs {
			r.counts.simElapsed += rtt
		}
		r.counts.payload = int64(2 * t.size * len(res.RTTs))
	} else {
		res, err := t.gen.Run(l)
		t2 := time.Now()
		r.run = t2.Sub(t1)
		if err != nil {
			r.err, r.end = err, t2
			return r
		}
		s = res.Sample()
		r.done, r.bad, lats = res.Requests, res.Errors, res.Latencies
		r.counts.simElapsed = res.Elapsed
		r.counts.payload = res.Bytes
	}
	t3 := time.Now()
	r.q = s.Quantiles()
	r.end = time.Now()
	r.sample = r.end.Sub(t3)
	r.counts.exchanges = int64(r.done)
	r.counts.addLab(l)
	if keepLats {
		r.lats = lats
	}
	return r
}

// unit is one finished unit of work.
type unit struct {
	specs  []trialSpec
	trials []trial // zero where the job panicked (see errs)
	errs   []error
	wall   time.Duration
	cpu    time.Duration // CPU time of the whole process while the unit ran
}

func runUnit(w *workloadDef, base uint64, keepLats bool) unit {
	specs := w.unit(base)
	jobs := make([]runner.Job, len(specs))
	for i := range specs {
		t := specs[i]
		jobs[i] = runner.Job{Label: t.label,
			RunOn: func(_ context.Context, tb *runner.Testbeds, _ uint64) (any, error) {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				c0 := threadCPU()
				tr := runTrial(tb, t, keepLats)
				tr.cpu = threadCPU() - c0
				return tr, tr.err
			}}
	}
	start, c0 := time.Now(), processCPU()
	outs, _ := runner.Run(context.Background(), jobs, runner.Options{Workers: w.workers})
	u := unit{specs: specs, wall: time.Since(start), cpu: processCPU() - c0,
		trials: make([]trial, len(outs)), errs: make([]error, len(outs))}
	for i, o := range outs {
		if tr, ok := o.Value.(trial); ok {
			u.trials[i] = tr
		}
		u.errs[i] = o.Err
	}
	return u
}

// tally is a unit's operation accounting: attempted operations, failed
// ones (a failed or panicked trial fails all it attempted, a finished
// one its shortfall plus its bad operations), and the exact counters
// summed over the trials that finished.
func (u *unit) tally() (attempted, failed int64, c counts) {
	for i, s := range u.specs {
		attempted += int64(s.want)
		tr := u.trials[i]
		if u.errs[i] != nil {
			failed += int64(s.want)
			continue
		}
		f := s.want - tr.done + tr.bad
		if f > s.want {
			f = s.want
		}
		failed += int64(f)
		c.add(tr.counts)
	}
	return attempted, failed, c
}

// latQuantiles merges the retained latencies of every trial in job
// order; a single streaming trial reports its own aggregate.
func (u *unit) latQuantiles() stats.Quantiles {
	if len(u.trials) == 1 && u.trials[0].lats == nil {
		return u.trials[0].q
	}
	var s stats.Sample
	for _, tr := range u.trials {
		for _, v := range tr.lats {
			s.Add(v.Micros())
		}
	}
	return s.Quantiles()
}

// tailIdle is how long the first worker to run out of jobs sat idle
// while the others finished the unit's last trials.
func (u *unit) tailIdle() time.Duration {
	last := map[*runner.Testbeds]time.Time{}
	for _, tr := range u.trials {
		if tr.worker != nil && tr.end.After(last[tr.worker]) {
			last[tr.worker] = tr.end
		}
	}
	if len(last) < 2 {
		return 0
	}
	ends := make([]time.Time, 0, len(last))
	for _, t := range last {
		ends = append(ends, t)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	return ends[len(ends)-1].Sub(ends[0])
}

// paperErrPct runs the paper grid at base seed — the cells and seeds of
// runner.Options{BaseSeed: base} — and returns the mean absolute
// relative error, in percent, of the simulated mean RTT against every
// cell of Tables 1, 4, 6 and 7 that has a published value.
func paperErrPct(base uint64, workers int) (float64, error) {
	u := runUnit(&workloadDef{workers: workers, unit: paperSweep}, base, true)
	var sum float64
	n := 0
	for i, s := range u.specs {
		want, ok := published(s)
		if !ok {
			continue
		}
		if u.errs[i] != nil {
			return 0, fmt.Errorf("%s: %w", s.label, u.errs[i])
		}
		var mean float64
		for _, v := range u.trials[i].lats {
			mean += v.Micros()
		}
		mean /= float64(len(u.trials[i].lats))
		d := (mean - want) / want
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	if n != 40 {
		return 0, fmt.Errorf("compared %d cells with published values, want 40", n)
	}
	return 100 * sum / float64(n), nil
}

// published returns the paper's round-trip time for a grid cell, when
// one of Tables 1, 4, 6 and 7 gives it.
func published(s trialSpec) (float64, bool) {
	c := s.cfg
	var table map[int]float64
	switch {
	case c.Link == lab.LinkEther && c.Mode == cost.ChecksumStandard && !c.DisablePrediction:
		table = paperdata.Table1.Ethernet
	case c.Link != lab.LinkATM:
		return 0, false
	case c.Mode == cost.ChecksumStandard && c.DisablePrediction:
		table = paperdata.Table4.NoPrediction
	case c.DisablePrediction:
		return 0, false
	case c.Mode == cost.ChecksumStandard:
		table = paperdata.Table1.ATM
	case c.Mode == cost.ChecksumIntegrated:
		table = paperdata.Table6.Combined
	case c.Mode == cost.ChecksumNone:
		table = paperdata.Table7.NoChecksum
	}
	v, ok := table[s.size]
	return v, ok
}
