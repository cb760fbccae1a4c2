package chaos

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"salamander/internal/telemetry"
)

// TestChaosDeterministicAndClean is the harness's own acceptance gate: for a
// spread of seeds, a run must (a) finish with zero invariant violations and
// zero acknowledged data loss, and (b) be perfectly reproducible — running
// the same seed twice renders byte-identical reports, so any failing
// schedule is a repro case.
func TestChaosDeterministicAndClean(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Seed = seed
			cfg.Ops = 3000

			render := func() []byte {
				rep, err := Run(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Violations) != 0 {
					t.Fatalf("seed %d: %d violations, first: %s",
						seed, len(rep.Violations), rep.Violations[0])
				}
				if rep.LostChunks != 0 {
					t.Fatalf("seed %d: %d chunks lost", seed, rep.LostChunks)
				}
				var buf bytes.Buffer
				rep.Render(&buf)
				return buf.Bytes()
			}
			first, second := render(), render()
			if !bytes.Equal(first, second) {
				t.Errorf("seed %d not reproducible:\n--- first ---\n%s--- second ---\n%s",
					seed, first, second)
			}
		})
	}
}

// TestChaosShardedDeterministicAndClean replays the acceptance gate against
// a 16-shard cluster for 12 seeds: sharding the metadata plane must neither
// lose data nor smuggle nondeterminism (map iteration order, event fan-out
// timing, parallel recovery) into the report — two runs of one seed render
// byte-identical reports, and the header records the shard count so sharded
// and standalone baselines can never be confused.
func TestChaosShardedDeterministicAndClean(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Seed = seed
			cfg.Ops = 1500
			cfg.Shards = 16

			render := func() []byte {
				rep, err := Run(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Violations) != 0 {
					t.Fatalf("seed %d: %d violations, first: %s",
						seed, len(rep.Violations), rep.Violations[0])
				}
				if rep.LostChunks != 0 {
					t.Fatalf("seed %d: %d chunks lost", seed, rep.LostChunks)
				}
				var buf bytes.Buffer
				rep.Render(&buf)
				return buf.Bytes()
			}
			first, second := render(), render()
			if !bytes.Equal(first, second) {
				t.Errorf("seed %d not reproducible at 16 shards:\n--- first ---\n%s--- second ---\n%s",
					seed, first, second)
			}
			if !bytes.HasPrefix(first, []byte(fmt.Sprintf("chaos seed=%d ops=%d nodes=%d shards=16\n", seed, cfg.Ops, cfg.Nodes))) {
				t.Errorf("seed %d: report header missing shard stamp:\n%s", seed, first[:64])
			}
		})
	}
}

// TestChaosNetDeterministicAndClean runs the schedule through the loopback
// serving layer with the network failpoints armed: the run must stay clean
// (every injected drop/latency/truncation absorbed by the client's retry
// path, clean drain at the end) and stay byte-identical per seed — the
// network layer must not smuggle wall-clock nondeterminism into the report.
func TestChaosNetDeterministicAndClean(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Seed = seed
			cfg.Ops = 2000
			cfg.Net = true

			render := func() *Report {
				rep, err := Run(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Violations) != 0 {
					t.Fatalf("seed %d: %d violations, first: %s",
						seed, len(rep.Violations), rep.Violations[0])
				}
				return rep
			}
			first, second := render(), render()
			if first.NetOps == 0 {
				t.Fatal("net mode routed no ops through the serving layer")
			}
			if first.NetInjected == 0 {
				t.Fatalf("no network faults injected over %d net ops", first.NetOps)
			}
			if first.NetRecovered == 0 || first.NetRetries == 0 {
				t.Fatalf("client absorbed nothing: retries=%d recovered=%d (injected=%d)",
					first.NetRetries, first.NetRecovered, first.NetInjected)
			}
			var b1, b2 bytes.Buffer
			first.Render(&b1)
			second.Render(&b2)
			if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
				t.Errorf("seed %d net run not reproducible:\n--- first ---\n%s--- second ---\n%s",
					seed, b1.Bytes(), b2.Bytes())
			}
		})
	}
}

// TestChaosEmitsFaultEvents: the trace stream must carry the new event kinds
// so post-mortem tooling can reconstruct what was injected and when.
func TestChaosEmitsFaultEvents(t *testing.T) {
	tr := telemetry.NewTracer(1 << 16)
	cfg := DefaultConfig()
	cfg.Seed = 2
	cfg.Ops = 2000
	rep, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	kinds := map[telemetry.EventKind]int{}
	for _, ev := range tr.Events() {
		kinds[ev.Kind]++
	}
	for _, k := range []telemetry.EventKind{
		telemetry.KindFaultInjected, telemetry.KindNodeCrash,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %s events in a %d-op chaos trace", k, cfg.Ops)
		}
	}
}

// TestChaosRejectsTinyFleet: R=3 plus one crashed node needs at least 4.
func TestChaosRejectsTinyFleet(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	if _, err := Run(cfg, nil); err == nil {
		t.Fatal("3-node fleet accepted")
	}
}

// TestChaosReportDigestsPinned compares each rendered report against the
// SHA-256 checked in under testdata/ — the bytes `salchaos -seed S -ops 2000
// -shards N` prints. The determinism tests above only compare two runs of
// the same build; this pins the reports across commits, so a refactor of the
// cluster layer that shifts any placement, repair or event-ordering decision
// fails here. A deliberate behaviour change regenerates the file.
func TestChaosReportDigestsPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/report_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var seed uint64
		var shards int
		var want string
		if _, err := fmt.Sscanf(line, "%d %d %s", &seed, &shards, &want); err != nil {
			t.Fatalf("bad digest row %q: %v", line, err)
		}
		rows++
		t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Seed = seed
			cfg.Ops = 2000
			cfg.Shards = shards
			rep, err := Run(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			rep.Render(&buf)
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
				t.Errorf("report digest %s, pinned %s; report:\n%s", got, want, buf.Bytes())
			}
		})
	}
	if rows != 33 {
		t.Errorf("testdata holds %d digest rows, want 33 (12 seeds x shards 1 and 16, 3 seeds x shards 2, 4 and 8)", rows)
	}
}
