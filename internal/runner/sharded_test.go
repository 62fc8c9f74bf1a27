package runner

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/workload"
)

// trialJSON runs one workload trial alone on a freshly built testbed and
// returns the outcome's JSON encoding — the exact bytes a sweep would
// persist, including the per-packet timeline.
func trialJSON(t *testing.T, trial WorkloadTrial) []byte {
	t.Helper()
	out, err := runWorkloadTrial(nil, trial, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardedBitIdentityMatrix runs every workload × every fabric
// through sweeps sharded across 1 and 3 workers. Each sweep interleaves
// copies of the cell with warm-up trials of a different generator on
// the same topology shape, so copies land on cold and on reset testbeds
// of whichever worker picks them up. Every copy must be
// byte-identical to the cell run alone on a fresh lab — same latencies
// in the same order, same elapsed, same per-packet event stream.
func TestShardedBitIdentityMatrix(t *testing.T) {
	fabrics := []struct {
		name  string
		cfg   lab.Config
		hosts int
	}{
		{
			name:  "hub",
			cfg:   lab.Config{Link: lab.LinkATM, PacketTrace: true, Seed: 1994},
			hosts: 9,
		},
		{
			name: "fattree",
			cfg: lab.Config{Link: lab.LinkATM, PacketTrace: true, Seed: 1994,
				Fabric: lab.FabricFatTree, LeafPorts: 2},
			hosts: 9,
		},
		{
			// Every egress port behind a RED discipline: its EWMA and
			// drop draws are per-trial state that Reset must rewind.
			name: "hub-red",
			cfg: lab.Config{Link: lab.LinkATM, PacketTrace: true, Seed: 1994,
				Qdisc: lab.QdiscConfig{Kind: lab.QdiscRED}},
			hosts: 9,
		},
	}
	gens := []workload.Generator{
		workload.Echo{Iterations: 8, Warmup: 2},
		workload.FanIn{Requests: 4},
		workload.Churn{Conns: 3},
		workload.Bulk{Bytes: 16384},
		// Cross traffic rides the fan-in: background flows contend for
		// the server egress with the measured clients.
		workload.FanIn{Requests: 4, Cross: &workload.CrossTraffic{Flows: 2, Transfers: 2, MaxBytes: 32768}},
		// Link flaps ride the fan-in: mid-run adapter and port state
		// flips, retransmission recovery included, must not survive
		// into the next trial on the same testbed.
		workload.FanIn{Requests: 4,
			Faults: sim.LinkFlaps(1994, []int{1, 2, 3}, 2, 20*sim.Millisecond, 500*sim.Microsecond)},
	}
	for _, fab := range fabrics {
		for _, gen := range gens {
			t.Run(fab.name+"/"+gen.Name(), func(t *testing.T) {
				cell := WorkloadTrial{Cfg: fab.cfg, Hosts: fab.hosts, Gen: gen}
				fresh := trialJSON(t, cell)

				warm := cell
				warm.Cfg.Seed = 99
				warm.Gen = workload.Churn{Conns: 2}
				if gen.Name() == "churn" {
					warm.Gen = workload.Echo{Iterations: 4, Warmup: 1}
				}
				var trials []WorkloadTrial
				for i := 0; i < 2; i++ {
					trials = append(trials, warm, cell)
				}

				for _, workers := range []int{1, 3} {
					outs, err := RunWorkloadSweep(context.Background(), trials, Options{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					for i := 1; i < len(outs); i += 2 {
						out := outs[i]
						if out.Error != "" {
							t.Fatalf("workers=%d copy %d: %s", workers, i, out.Error)
						}
						out.Label, out.Index = "", 0
						got, _ := json.Marshal(out)
						if string(got) != string(fresh) {
							t.Errorf("workers=%d copy %d: outcome diverged from the fresh lab\nfresh: %.220s\nsweep: %.220s",
								workers, i, fresh, got)
						}
					}
				}
			})
		}
	}
}
