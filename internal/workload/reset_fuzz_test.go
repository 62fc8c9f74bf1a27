package workload_test

import (
	"encoding/json"
	"testing"

	"repro/internal/lab"
	"repro/internal/workload"
)

// fuzzTrial derives a topology/workload configuration from raw
// fuzz bytes, clamped to shapes a trial can finish quickly, and returns
// the generator plus the lab config and host count.
func fuzzTrial(fabric, leafPorts, hosts, wl uint8, seed uint16) (workload.Generator, lab.Config, int) {
	cfg := lab.Config{Link: lab.LinkATM, PacketTrace: true, Seed: uint64(seed) + 1}
	n := 3 + int(hosts%7) // 3..9 hosts
	if fabric%2 == 1 {
		cfg.Fabric = lab.FabricFatTree
		cfg.LeafPorts = 1 + int(leafPorts%4)
	}
	var g workload.Generator
	switch wl % 4 {
	case 0:
		g = workload.Echo{Iterations: 4, Warmup: 1}
	case 1:
		g = workload.FanIn{Requests: 3, Size: 64}
	case 2:
		g = workload.Churn{Conns: 2, Size: 48}
	default:
		// Sub-MSS chunks included: they exercise the sbcompress path in
		// the socket buffer (the ROADMAP 3b livelock fix) on top of the
		// reset-identity property this harness is hunting.
		g = workload.Bulk{Bytes: 16384, Chunk: 1 + int(seed%8192)}
	}
	return g, cfg, n
}

// FuzzResetBitIdentity throws randomized topology and workload
// combinations at the testbed-reuse contract: a lab warmed by a
// different generator and then Reset must reproduce a freshly built
// lab's run byte-for-byte. The fifth argument picks the warm-up
// generator; it never equals the measured one.
func FuzzResetBitIdentity(f *testing.F) {
	// Seed corpus: one per workload, both fabrics, every warm-up choice.
	f.Add(uint8(0), uint8(0), uint8(6), uint8(0), uint8(2), uint16(1994))
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0), uint8(3), uint16(7))
	f.Add(uint8(0), uint8(0), uint8(4), uint8(1), uint8(4), uint16(21))
	f.Add(uint8(1), uint8(1), uint8(6), uint8(1), uint8(7), uint16(3))
	f.Add(uint8(0), uint8(0), uint8(3), uint8(2), uint8(5), uint16(12))
	f.Add(uint8(1), uint8(2), uint8(5), uint8(2), uint8(1), uint16(9))
	f.Add(uint8(0), uint8(0), uint8(2), uint8(3), uint8(8), uint16(40))
	f.Add(uint8(1), uint8(3), uint8(6), uint8(3), uint8(2), uint16(5))

	f.Fuzz(func(t *testing.T, fabric, leafPorts, hosts, wl, warm uint8, seed uint16) {
		g, cfg, n := fuzzTrial(fabric, leafPorts, hosts, wl, seed)
		want, err := g.Run(lab.NewTopology(cfg, n))
		if err != nil {
			t.Fatalf("fresh run failed: %v", err)
		}
		wantJSON, _ := json.Marshal(want)

		// The warm-up generator is always a different one (wl%4 + 1..3),
		// at a different seed, on a lab of the same shape.
		wg, warmCfg, _ := fuzzTrial(fabric, leafPorts, hosts, wl%4+1+warm%3, seed+1)
		l := lab.NewTopology(warmCfg, n)
		if _, err := wg.Run(l); err != nil {
			t.Fatalf("warm-up %s run failed: %v", wg.Name(), err)
		}
		if err := l.Reset(cfg, 0); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		got, err := g.Run(l)
		if err != nil {
			t.Fatalf("run after reset failed: %v", err)
		}
		gotJSON, _ := json.Marshal(got)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("%s on %d hosts (fabric %v, leaf %d) after a %s warm-up: diverged from a fresh lab\nfresh: %.200s\nreset: %.200s",
				g.Name(), n, cfg.Fabric, cfg.LeafPorts, wg.Name(), wantJSON, gotJSON)
		}
	})
}
