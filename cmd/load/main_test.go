package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunFanInText(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-workload", "fanin", "-hosts", "5", "-reqs", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fanin/4c/list") || !strings.Contains(out, "p99") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunCompareOrgs(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-workload", "churn", "-hosts", "3", "-conns", "4", "-compare"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "churn/2c/list") || !strings.Contains(out, "churn/2c/hash") {
		t.Fatalf("expected both organizations:\n%s", out)
	}
}

// TestFanIn16ParallelBitIdentical is the acceptance check: a 16-client
// fan-in run's JSON output is identical at any -parallel level for the
// same seed.
func TestFanIn16ParallelBitIdentical(t *testing.T) {
	jsonAt := func(workers string) string {
		var buf bytes.Buffer
		err := run([]string{"-workload", "fanin", "-hosts", "17", "-reqs", "3",
			"-trials", "4", "-seed", "1994", "-parallel", workers, "-json"}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := jsonAt("1")
	parallel := jsonAt("4")
	if serial != parallel {
		t.Fatal("16-client fan-in JSON differs between -parallel 1 and 4")
	}
	var outs []struct {
		Hosts    int     `json:"hosts"`
		Requests int     `json:"requests"`
		P99      float64 `json:"p99_us"`
	}
	if err := json.Unmarshal([]byte(serial), &outs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(outs) != 4 {
		t.Fatalf("got %d outcomes, want 4", len(outs))
	}
	for _, o := range outs {
		if o.Hosts != 17 || o.Requests != 16*3 || o.P99 <= 0 {
			t.Fatalf("implausible outcome: %+v", o)
		}
	}
}

func TestRunBulkAndEcho(t *testing.T) {
	for _, wl := range []string{"bulk", "echo"} {
		var buf bytes.Buffer
		if err := run([]string{"-workload", wl, "-hosts", "2", "-reqs", "4",
			"-bytes", "20000", "-json"}, &buf); err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		var outs []struct {
			Workload string `json:"workload"`
			Requests int    `json:"requests"`
		}
		if err := json.Unmarshal(buf.Bytes(), &outs); err != nil {
			t.Fatalf("%s: invalid JSON: %v", wl, err)
		}
		if len(outs) != 1 || outs[0].Workload != wl || outs[0].Requests == 0 {
			t.Fatalf("%s: unexpected outcome %+v", wl, outs)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "warp"},
		{"-hosts", "1"},
		{"-link", "token-ring"},
		{"-trials", "0"},
		{"-loss", "1.5"},
		{"-link", "ether", "-loss", "0.001"},
		{"-burstloss", "1.5"},
		{"-crosstraffic", "-1"},
		{"-qdisc", "codel"},
		{"-link", "ether", "-qdisc", "red"},
		{"-transport", "sctp"},
		{"-workload", "churn", "-transport", "rudp"},
		{"-workload", "bulk", "-crosstraffic", "2"},
		{"-workload", "loaded", "-link", "ether"},
		{"-workload", "loaded", "-fabric", "fattree"},
		{"-workload", "loaded", "-transport", "rudp"},
		{"-workload", "loaded", "-loss", "0.001"},
		{"-workload", "loaded", "-stream", "on"},
		{"-workload", "loaded", "-stagger", "100"},
		{"-workload", "loaded", "-compare"},
		{"-workload", "loaded", "-hashpcb"},
		{"-workload", "loaded", "-trials", "2"},
		// Fault flags in incompatible workloads, same convention: rejected
		// rather than silently dropped.
		{"-faults", "-1"},
		{"-crashat", "-1"},
		{"-downtime", "-1"},
		{"-workload", "fanin", "-crashat", "100"},
		{"-workload", "fanin", "-downtime", "100"},
		{"-workload", "loaded", "-faults", "2"},
		{"-workload", "bulk", "-faults", "1"},
		{"-workload", "churn", "-faults", "1"},
		{"-workload", "faults", "-link", "ether"},
		{"-workload", "faults", "-fabric", "fattree"},
		{"-workload", "faults", "-transport", "rudp"},
		{"-workload", "faults", "-loss", "0.001"},
		{"-workload", "faults", "-burstloss", "0.001"},
		{"-workload", "faults", "-qdisc", "red"},
		{"-workload", "faults", "-crosstraffic", "1"},
		{"-workload", "faults", "-faults", "2"},
		{"-workload", "faults", "-stream", "on"},
		{"-workload", "faults", "-stagger", "100"},
		{"-workload", "faults", "-compare"},
		{"-workload", "faults", "-hashpcb"},
		{"-workload", "faults", "-trials", "2"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestRunRejectsIgnoredFlags pins the no-silent-flags policy for the
// plain generators: a flag the chosen workload would ignore, or an out
// of range value that would quietly fall back to a default, is an error
// that names the flag.
func TestRunRejectsIgnoredFlags(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-size", []string{"-workload", "bulk", "-size", "100"}},
		{"-stagger", []string{"-workload", "churn", "-stagger", "100"}},
		{"-stagger", []string{"-workload", "bulk", "-stagger", "0"}},
		{"-stagger", []string{"-workload", "echo", "-stagger", "100"}},
		{"-stream", []string{"-workload", "bulk", "-stream", "on"}},
		{"-stream", []string{"-workload", "echo", "-stream", "off"}},
		{"-leafports", []string{"-leafports", "8"}},
		{"-leafports", []string{"-fabric", "hub", "-leafports", "2"}},
		{"-leafports", []string{"-fabric", "fattree", "-leafports", "-1"}},
		{"-size", []string{"-workload", "echo", "-size", "-5"}},
		{"-reqs", []string{"-reqs", "0"}},
		{"-conns", []string{"-workload", "churn", "-conns", "0"}},
		{"-bytes", []string{"-workload", "bulk", "-bytes", "-1"}},
	} {
		err := run(tc.args, &bytes.Buffer{})
		if err == nil {
			t.Errorf("args %v accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("args %v: error %q does not name %s", tc.args, err, tc.flag)
		}
	}
}

// TestRunLoadedText smokes the loaded study end to end through the CLI:
// both transports under RED, burst loss, and cross traffic.
func TestRunLoadedText(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-workload", "loaded", "-hosts", "4", "-reqs", "3",
		"-qdisc", "red", "-burstloss", "0.001", "-crosstraffic", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"loaded fan-in", "tcp", "rudp", "Server CPU attribution"} {
		if !strings.Contains(out, want) {
			t.Fatalf("loaded output missing %q:\n%s", want, out)
		}
	}
}

// TestRunFaultsText smokes the crash-recovery study end to end through
// the CLI: both transports under the same seeded crash schedule, with
// recovery quantiles in the rendered table.
func TestRunFaultsText(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-workload", "faults", "-hosts", "4", "-reqs", "4",
		"-crashat", "100", "-downtime", "400"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"crash recovery", "tcp", "rudp", "Rec mean", "Goodput"} {
		if !strings.Contains(out, want) {
			t.Fatalf("faults output missing %q:\n%s", want, out)
		}
	}
}

// TestFaultsParallelBitIdentical pins the fault study's determinism
// contract: same crash schedule, same seed, byte-identical JSON at any
// -parallel level.
func TestFaultsParallelBitIdentical(t *testing.T) {
	jsonAt := func(workers string) string {
		var buf bytes.Buffer
		err := run([]string{"-workload", "faults", "-hosts", "4", "-reqs", "4",
			"-crashat", "100", "-downtime", "400",
			"-seed", "7", "-parallel", workers, "-json"}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := jsonAt("1")
	parallel := jsonAt("2")
	if serial != parallel {
		t.Fatal("fault study JSON differs between -parallel 1 and 2")
	}
	var res struct {
		Rows []struct {
			Transport string
			Outages   int
			Errors    int
		}
	}
	if err := json.Unmarshal([]byte(serial), &res); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2 (tcp and rudp)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Outages == 0 {
			t.Fatalf("%s: no outages recorded; the crash should sever every client", row.Transport)
		}
		if row.Errors != 0 {
			t.Fatalf("%s: %d errors, want 0", row.Transport, row.Errors)
		}
	}
}

// TestFanInLinkFlapsBitIdentical pins the link-flap fault schedule's
// determinism: a fan-in under seeded flaps produces byte-identical JSON
// on a repeat run and at any -parallel level, because every flap time
// comes from the host's own splitmix64 stream and the base seed alone.
func TestFanInLinkFlapsBitIdentical(t *testing.T) {
	jsonAt := func(workers string) string {
		var buf bytes.Buffer
		err := run([]string{"-workload", "fanin", "-hosts", "9", "-reqs", "3",
			"-faults", "2", "-trials", "3", "-seed", "5", "-json", "-parallel", workers}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := jsonAt("1")
	if again := jsonAt("1"); again != serial {
		t.Fatal("link-flap fan-in JSON differs between two identical runs")
	}
	if parallel := jsonAt("4"); parallel != serial {
		t.Fatal("link-flap fan-in JSON differs between -parallel 1 and 4")
	}
}

// goldenLoadSHA256 is the SHA-256 of the 8-client fan-in JSON at seed
// 1994, captured on the pre-overhaul (PR 3) tree; see the matching
// golden tests in cmd/tables and cmd/pkttrace.
const goldenLoadSHA256 = "51d27d1a4df774f64a0dd433ed4a94ef553a299cace3dccdcf5c51200d143c85"

func TestGoldenJSONByteIdentical(t *testing.T) {
	for _, parallel := range []string{"1", "4"} {
		var buf bytes.Buffer
		args := []string{"-workload", "fanin", "-hosts", "9", "-reqs", "4",
			"-seed", "1994", "-json", "-parallel", parallel}
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != goldenLoadSHA256 {
			t.Errorf("-parallel %s: output hash %s, want golden %s (simulated results changed)",
				parallel, got, goldenLoadSHA256)
		}
	}
}

// goldenRUDPSHA256 is the SHA-256 of the same 8-client fan-in JSON over
// the reliable-UDP transport, captured when the transport landed and
// re-captured when the header gained the AckNone flag (packets sent
// before the first reception shrank to 3-byte headers).
const goldenRUDPSHA256 = "33907662ee75ec430eff746f8f583ce8d9e0c7ebc84639fddcdc85403aff6976"

// TestGoldenRUDPByteIdentical pins the rudp fan-in output byte for byte
// at any -parallel level: the rival transport is as deterministic as
// TCP.
func TestGoldenRUDPByteIdentical(t *testing.T) {
	for _, parallel := range []string{"1", "4"} {
		var buf bytes.Buffer
		args := []string{"-workload", "fanin", "-transport", "rudp",
			"-hosts", "9", "-reqs", "4", "-seed", "1994", "-json", "-parallel", parallel}
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != goldenRUDPSHA256 {
			t.Errorf("-parallel %s: rudp output hash %s, want golden %s", parallel, got, goldenRUDPSHA256)
		}
	}
}
