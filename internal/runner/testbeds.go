package runner

import (
	"errors"

	"repro/internal/lab"
)

// topoKey is the shape of a testbed: the parts of a trial configuration
// that name physical machines and wiring rather than trial knobs. Labs
// of the same shape are interchangeable through lab.Lab.Reset; labs of
// different shapes never are.
type topoKey struct {
	link      lab.LinkKind
	hosts     int
	fabric    lab.FabricKind
	leafPorts int
}

// maxWarmLabs bounds how many warm labs one worker keeps. Real sweeps
// use one to three shapes (two-host ATM, two-host Ethernet, one fan-in
// mesh); the bound only matters for a pathological grid that varies
// host count per cell, which simply stops caching past the bound.
const maxWarmLabs = 4

// Testbeds is one worker's cache of warm labs, the worker-affine half of
// testbed reuse: every worker owns its Testbeds outright (labs are
// single-threaded simulations), runs its share of the grid through
// them, and resets a warm lab to each new trial's configuration instead
// of rebuilding kernels, pools, and event heaps from scratch.
//
// Reuse cannot perturb results: lab.Reset rewinds every piece of
// per-trial state to what a fresh construction would hold (the
// bit-identity contract its tests pin against the golden outputs), and
// each trial's seed still derives from its grid position alone — so the
// outcome of a cell is independent of which worker ran it and of
// whatever that worker's labs ran before.
//
// The reset happens on acquisition, not on release: after a job
// finishes, its lab still holds that trial's trace records and counters,
// which study code reads after the run returns. The records stay valid
// until the worker starts its next trial of the same shape.
type Testbeds struct {
	labs map[topoKey]*lab.Lab

	// Built and Reused count cache misses and hits, for the reuse tests.
	Built  int
	Reused int
}

// Lab returns a testbed for cfg with nHosts hosts (values below 2 are
// raised to 2, the lab minimum): a warm lab reset to cfg when the
// worker holds one of the right shape, otherwise a freshly built lab
// that joins the cache. A nil *Testbeds always builds fresh, so code
// paths that opt out of reuse need no second call form.
func (tb *Testbeds) Lab(cfg lab.Config, nHosts int) *lab.Lab {
	if nHosts < 2 {
		nHosts = 2
	}
	if tb == nil {
		return lab.NewTopology(cfg, nHosts)
	}
	key := topoKey{link: cfg.Link, hosts: nHosts, fabric: cfg.Fabric, leafPorts: cfg.LeafPorts}
	if l := tb.labs[key]; l != nil {
		err := l.Reset(cfg, 0)
		if err == nil {
			tb.Reused++
			return l
		}
		if errors.Is(err, lab.ErrPoolLeak) {
			// The CheckLeaks gate tripped: the previous trial on this
			// worker leaked mbuf chains. That is a stack bug the gate
			// exists to surface — fail the trial loudly (runOne converts
			// the panic into a labeled job error) instead of quietly
			// building a fresh lab over it.
			panic(err)
		}
		// Any other failed reset (an undrained event loop from an
		// errored trial) just makes the warm lab unusable; drop it and
		// fall through to a fresh build.
		delete(tb.labs, key)
	}
	l := lab.NewTopology(cfg, nHosts)
	tb.Built++
	if tb.labs == nil {
		tb.labs = make(map[topoKey]*lab.Lab, maxWarmLabs)
	}
	if len(tb.labs) < maxWarmLabs {
		tb.labs[key] = l
	}
	return l
}
