// Command load drives N-host topologies with the pluggable workload
// engine: request/response fan-in (M clients hammering one server),
// connection churn (open/close storms exercising real PCB insert and
// delete), one-way bulk transfer, and the paper's echo benchmark. Trials
// shard across the sweep-engine worker pool with grid-position-derived
// seeds, so output is bit-identical at any -parallel level.
//
// Examples:
//
//	load -workload fanin -hosts 17 -reqs 20       # 16 clients -> 1 server
//	load -workload fanin -hosts 17 -compare       # list vs hash PCBs
//	load -workload churn -hosts 9 -conns 25       # open/close storms
//	load -workload bulk -hosts 5 -bytes 262144    # concurrent bulk fan-in
//	load -workload fanin -trials 8 -loss 0.0005 -parallel 4  # repetitions under loss
//	load -workload fanin -transport rudp -qdisc red      # reliable-UDP rival transport
//	load -workload loaded -burstloss 0.002 -crosstraffic 2   # TCP vs rUDP under load
//	load -workload faults -hosts 65 -crashat 500 -downtime 1000  # crash-recovery study
//	load -workload fanin -faults 2                       # seeded link flaps
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// scaleHosts is where the harness flips from paper-scale to large-scale
// defaults: above it, -stream auto selects constant-memory streaming
// statistics and -stagger auto spaces client starts, because a 10,000-way
// simultaneous SYN storm against one listener mostly measures
// retransmission backoff, and retaining every latency mostly measures
// the host's RAM.
const scaleHosts = 1024

// fanInWarmup is the unmeasured per-client warmup requests cmd/load
// configures for the fan-in workload.
const fanInWarmup = 2

// autoStaggerFor is the per-client start spacing -stagger auto applies
// past scaleHosts. The spacing must exceed one client's total service
// time on the server's single simulated DECstation CPU — measured ~1ms
// to accept and close a connection plus ~1.5ms per request — or the
// server falls permanently behind, SYN retransmissions pile onto the
// queue, and the run collapses into an hours-long simulated
// retransmission storm. Spacing by the full per-client service time
// keeps the server below saturation at any -hosts; a 10,000-client
// single-request run holds a flat ~2ms per-request latency.
func autoStaggerFor(reqs int) sim.Time {
	return sim.Time(1000+1500*(reqs+fanInWarmup)) * sim.Microsecond
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "load:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	var (
		wl       = fs.String("workload", "fanin", "workload: fanin, churn, bulk, or echo")
		hosts    = fs.Int("hosts", 5, "topology size: one server plus hosts-1 clients")
		conns    = fs.Int("conns", 10, "churn: connection cycles per client")
		reqs     = fs.Int("reqs", 20, "fanin: requests per client; echo: iterations")
		size     = fs.Int("size", 0, "payload bytes per operation (0 = workload default)")
		bytesN   = fs.Int("bytes", 65536, "bulk: bytes streamed per client")
		link     = fs.String("link", "atm", "link type: atm or ether")
		loss     = fs.Float64("loss", 0, "ATM cell loss probability (what makes -trials vary)")
		hash     = fs.Bool("hashpcb", false, "use the hash-table PCB organization")
		compare  = fs.Bool("compare", false, "run every trial under both PCB organizations")
		trials   = fs.Int("trials", 1, "seeded repetitions of the workload")
		parallel = fs.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS, 1 = serial)")
		seed     = fs.Uint64("seed", 0, "base seed for per-trial RNG derivation (0 with -trials > 1 uses base 1)")
		jsonOut  = fs.Bool("json", false, "emit results as JSON instead of text")
		stream   = fs.String("stream", "auto", "fanin/churn latency statistics: on (constant-memory P²+reservoir), off (exact), or auto (on past -hosts 1024)")
		stagger  = fs.Int64("stagger", -1, "fanin: per-client start stagger in microseconds (-1 = auto: the per-client service estimate past -hosts 1024, else 0)")
		fabric   = fs.String("fabric", "hub", "ATM switch fabric: hub (one switch) or fattree (leaf switches trunked to a spine)")
		leaf     = fs.Int("leafports", 0, "fattree: hosts per leaf switch (0 = default 64)")
		transp   = fs.String("transport", "tcp", "fanin: transport under test, tcp or rudp (reliable UDP)")
		qdisc    = fs.String("qdisc", "none", "ATM egress queue discipline: none, droptail, red, or drr")
		burst    = fs.Float64("burstloss", 0, "Gilbert-Elliott burst loss: probability of entering the bad state per cell (0 = off)")
		crossN   = fs.Int("crosstraffic", 0, "fanin/loaded: background bounded-Pareto transfer flows contending with the workload")
		faultsN  = fs.Int("faults", 0, "fanin: seeded link flaps per client host during the run (0 = none)")
		crashAt  = fs.Int64("crashat", 0, "faults: server crash time in milliseconds (0 = default 500)")
		downtime = fs.Int64("downtime", 0, "faults: crash-to-restart gap in milliseconds (0 = default 1000)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}

	if *hosts < 2 {
		return fmt.Errorf("-hosts %d too small (need a server and at least one client)", *hosts)
	}
	if *trials < 1 {
		return fmt.Errorf("-trials must be >= 1")
	}
	if *loss < 0 || *loss >= 1 {
		return fmt.Errorf("-loss %g out of range [0, 1)", *loss)
	}
	if *reqs < 1 {
		return fmt.Errorf("-reqs %d must be >= 1", *reqs)
	}
	if *conns < 1 {
		return fmt.Errorf("-conns %d must be >= 1", *conns)
	}
	if *bytesN < 1 {
		return fmt.Errorf("-bytes %d must be >= 1", *bytesN)
	}
	if *size < 0 {
		return fmt.Errorf("-size %d must be >= 0 (0 = workload default)", *size)
	}
	if *leaf < 0 {
		return fmt.Errorf("-leafports %d must be >= 0 (0 = default 64)", *leaf)
	}
	if *burst < 0 || *burst >= 1 {
		return fmt.Errorf("-burstloss %g out of range [0, 1)", *burst)
	}
	if *crossN < 0 {
		return fmt.Errorf("-crosstraffic %d must be >= 0", *crossN)
	}
	if *faultsN < 0 {
		return fmt.Errorf("-faults %d must be >= 0", *faultsN)
	}
	if *crashAt < 0 || *downtime < 0 {
		return fmt.Errorf("-crashat/-downtime must be >= 0")
	}
	if (*crashAt > 0 || *downtime > 0) && *wl != "faults" {
		return fmt.Errorf("-crashat/-downtime apply to -workload faults only")
	}
	qk, err := lab.ParseQdiscKind(*qdisc)
	if err != nil {
		return err
	}
	if *transp != workload.TransportTCP && *transp != workload.TransportRUDP {
		return fmt.Errorf("unknown transport %q (want tcp or rudp)", *transp)
	}
	cfg := lab.Config{HashPCBs: *hash, CellLossRate: *loss, LeafPorts: *leaf,
		Qdisc: lab.QdiscConfig{Kind: qk}, BurstLoss: burstGE(*burst)}
	switch *link {
	case "atm":
		cfg.Link = lab.LinkATM
	case "ether":
		cfg.Link = lab.LinkEther
		// Config.CellLossRate only drives ATM adapters; accepting it
		// here would silently measure a loss-free segment.
		if *loss > 0 {
			return fmt.Errorf("-loss applies to the ATM link only")
		}
		// Queue disciplines hang off ATM switch egress ports; the
		// Ethernet segment has no switch to install one on.
		if qk != lab.QdiscNone {
			return fmt.Errorf("-qdisc applies to the ATM link only")
		}
	default:
		return fmt.Errorf("unknown link %q", *link)
	}
	switch *fabric {
	case "hub":
		cfg.Fabric = lab.FabricHub
		if *leaf != 0 {
			return fmt.Errorf("-leafports applies to -fabric fattree only")
		}
	case "fattree":
		cfg.Fabric = lab.FabricFatTree
		if cfg.Link != lab.LinkATM {
			return fmt.Errorf("-fabric fattree applies to the ATM link only")
		}
	default:
		return fmt.Errorf("unknown fabric %q (want hub or fattree)", *fabric)
	}

	if *wl == "loaded" {
		// The loaded study is self-contained: fan-in under the load
		// knobs, once per rival transport, rendered as a comparison.
		// Knobs it does not consume are rejected rather than silently
		// dropped, like the invalid combinations above.
		if cfg.Link != lab.LinkATM || cfg.Fabric != lab.FabricHub {
			return fmt.Errorf("-workload loaded runs on the hub ATM fabric")
		}
		if *transp != workload.TransportTCP {
			return fmt.Errorf("-transport does not apply to -workload loaded (it always runs both transports)")
		}
		if *loss > 0 {
			return fmt.Errorf("-loss does not apply to -workload loaded (use -burstloss)")
		}
		if *stream != "auto" {
			return fmt.Errorf("-stream does not apply to -workload loaded")
		}
		if *stagger >= 0 {
			return fmt.Errorf("-stagger does not apply to -workload loaded")
		}
		if *hash || *compare {
			return fmt.Errorf("-hashpcb/-compare do not apply to -workload loaded")
		}
		if *trials != 1 {
			return fmt.Errorf("-trials does not apply to -workload loaded")
		}
		if *faultsN > 0 {
			return fmt.Errorf("-faults applies to the fanin workload only")
		}
		res, err := core.RunLoadedStudy(core.LoadedOptions{
			Hosts: *hosts, Requests: *reqs, Size: *size,
			Qdisc:      cfg.Qdisc,
			BurstLoss:  cfg.BurstLoss,
			CrossFlows: *crossN,
			Parallel:   *parallel,
			BaseSeed:   *seed,
		})
		if err != nil {
			return err
		}
		if *jsonOut {
			b, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintln(w, string(b))
			return nil
		}
		fmt.Fprint(w, res.Render())
		return nil
	}

	if *wl == "faults" {
		// The fault study is self-contained like loaded: the paced
		// fan-in with a mid-run server crash, once per rival transport,
		// rendered as a recovery comparison. Knobs it does not consume
		// are rejected rather than silently dropped.
		if cfg.Link != lab.LinkATM || cfg.Fabric != lab.FabricHub {
			return fmt.Errorf("-workload faults runs on the hub ATM fabric")
		}
		if *transp != workload.TransportTCP {
			return fmt.Errorf("-transport does not apply to -workload faults (it always runs both transports)")
		}
		if *loss > 0 || *burst > 0 {
			return fmt.Errorf("-loss/-burstloss do not apply to -workload faults (the fault schedule is the impairment)")
		}
		if qk != lab.QdiscNone {
			return fmt.Errorf("-qdisc does not apply to -workload faults")
		}
		if *crossN > 0 {
			return fmt.Errorf("-crosstraffic does not apply to -workload faults")
		}
		if *faultsN > 0 {
			return fmt.Errorf("-faults applies to the fanin workload only (-workload faults schedules its own crash)")
		}
		if *stream != "auto" {
			return fmt.Errorf("-stream does not apply to -workload faults")
		}
		if *stagger >= 0 {
			return fmt.Errorf("-stagger does not apply to -workload faults")
		}
		if *hash || *compare {
			return fmt.Errorf("-hashpcb/-compare do not apply to -workload faults")
		}
		if *trials != 1 {
			return fmt.Errorf("-trials does not apply to -workload faults")
		}
		res, err := core.RunFaultStudy(core.FaultOptions{
			Hosts: *hosts, Requests: *reqs, Size: *size,
			CrashAt:  sim.Time(*crashAt) * sim.Millisecond,
			Downtime: sim.Time(*downtime) * sim.Millisecond,
			Parallel: *parallel,
			BaseSeed: *seed,
		})
		if err != nil {
			return err
		}
		if *jsonOut {
			b, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintln(w, string(b))
			return nil
		}
		fmt.Fprint(w, res.Render())
		return nil
	}

	// Knobs the chosen generator does not consume are rejected rather
	// than silently dropped, as for the two studies above.
	switch *wl {
	case "churn", "bulk", "echo":
		if *stagger >= 0 {
			return fmt.Errorf("-stagger applies to the fanin workload only")
		}
		if *wl != "churn" && *stream != "auto" {
			return fmt.Errorf("-stream applies to the fanin and churn workloads only")
		}
		if *wl == "bulk" && *size != 0 {
			return fmt.Errorf("-size does not apply to -workload bulk (use -bytes)")
		}
	}

	var stCfg stats.Config
	switch *stream {
	case "on":
		stCfg.Streaming = true
	case "off":
	case "auto":
		stCfg.Streaming = *hosts > scaleHosts
	default:
		return fmt.Errorf("unknown -stream %q (want on, off, or auto)", *stream)
	}
	stag := autoStaggerFor(*reqs)
	switch {
	case *stagger >= 0:
		stag = sim.Time(*stagger) * sim.Microsecond
	case *hosts <= scaleHosts:
		stag = 0
	}

	gen, err := makeGenerator(*wl, *size, *reqs, *conns, *bytesN, stCfg, stag, *transp, *crossN,
		*faultsN, *hosts, *seed)
	if err != nil {
		return err
	}

	orgs := []bool{*hash}
	if *compare {
		orgs = []bool{false, true}
	}
	var ts []runner.WorkloadTrial
	for t := 0; t < *trials; t++ {
		for _, h := range orgs {
			c := cfg
			c.HashPCBs = h
			org := "list"
			if h {
				org = "hash"
			}
			label := fmt.Sprintf("%s/%dc/%s", *wl, *hosts-1, org)
			if *trials > 1 {
				label += fmt.Sprintf("/t%d", t)
			}
			ts = append(ts, runner.WorkloadTrial{Label: label, Cfg: c, Hosts: *hosts, Gen: gen})
		}
	}

	// Without a base seed every trial's simulation would use the fixed
	// default seed and -trials would produce identical repetitions;
	// derive from base 1 so repetitions actually vary (still fully
	// deterministic).
	base := *seed
	if base == 0 && *trials > 1 {
		base = 1
	}
	outs, err := runner.RunWorkloadSweep(context.Background(), ts,
		runner.Options{Workers: *parallel, BaseSeed: base})
	if err != nil {
		return err
	}
	for _, o := range outs {
		if o.Error != "" {
			return fmt.Errorf("trial %s: %s", o.Label, o.Error)
		}
	}

	if *jsonOut {
		b, err := json.MarshalIndent(outs, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(b))
		return nil
	}
	title := fmt.Sprintf("Workload %s: %d host(s), %d trial(s)", *wl, *hosts, len(ts))
	fmt.Fprint(w, runner.RenderWorkloadOutcomes(title, outs))
	return nil
}

// burstGE expands the one-knob burst-loss flag into the Gilbert–Elliott
// chain it configures: entering the bad state with the given per-cell
// probability, leaving it with mean burst length 5 cells, and losing
// half the cells while bad.
func burstGE(pGoodBad float64) sim.GEParams {
	if pGoodBad <= 0 {
		return sim.GEParams{}
	}
	return sim.GEParams{PGoodBad: pGoodBad, PBadGood: 0.2, LossBad: 0.5}
}

// flapWindow and flapDowntime shape the -faults link flaps: each flap's
// start is drawn over the window from the host's own seeded stream, and
// each outage is short enough that TCP rides it out on retransmission
// backoff instead of giving up.
const (
	flapWindow   = 20 * sim.Millisecond
	flapDowntime = 500 * sim.Microsecond
)

// makeGenerator builds the named workload from the command-line knobs.
func makeGenerator(name string, size, reqs, conns, bytes int, st stats.Config, stagger sim.Time, transport string, crossFlows, faults, hosts int, seed uint64) (workload.Generator, error) {
	if name != "fanin" {
		if transport == workload.TransportRUDP {
			return nil, fmt.Errorf("-transport rudp applies to the fanin workload only")
		}
		if crossFlows > 0 {
			return nil, fmt.Errorf("-crosstraffic applies to the fanin and loaded workloads only")
		}
		if faults > 0 {
			return nil, fmt.Errorf("-faults applies to the fanin workload only")
		}
	}
	switch name {
	case "fanin":
		g := workload.FanIn{Size: size, Requests: reqs, Warmup: fanInWarmup,
			Stats: st, Stagger: stagger, Transport: transport}
		if crossFlows > 0 {
			g.Cross = &workload.CrossTraffic{Flows: crossFlows}
		}
		if faults > 0 {
			// The flap schedule derives from the base seed and host
			// indices alone (per-entity splitmix64 streams), so it is
			// identical at any -parallel level.
			clients := make([]int, 0, hosts-1)
			for i := 1; i < hosts; i++ {
				clients = append(clients, i)
			}
			g.Faults = sim.LinkFlaps(seed, clients, faults, flapWindow, flapDowntime)
		}
		return g, nil
	case "churn":
		return workload.Churn{Conns: conns, Size: size, Stats: st}, nil
	case "bulk":
		return workload.Bulk{Bytes: bytes}, nil
	case "echo":
		return workload.Echo{Size: size, Iterations: reqs}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fanin, churn, bulk, echo, loaded, or faults)", name)
}
