package ftl_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"salamander/internal/blockdev"
	"salamander/internal/core"
	"salamander/internal/faultinject"
	"salamander/internal/flash"
	"salamander/internal/rber"
	"salamander/internal/sim"
	"salamander/internal/ssd"
	"salamander/internal/stats"
	"salamander/internal/telemetry"
)

// pinnedDevice is what the digest run needs from a device beyond the host
// interface; both ssd.Device and core.Device provide it.
type pinnedDevice interface {
	blockdev.Device
	blockdev.WearReporter
	Flush() error
	Instrument(*telemetry.Registry, *telemetry.Tracer)
	InjectFaults(*faultinject.Registry)
}

// digestFlash is small and fast-wearing: 16 blocks x 8 fPages, a dozen
// P/E cycles of endurance, so every run reaches device death in a few
// thousand host operations. The real-ECC rows spend most of their life
// decoding near the correction ceiling, which costs real CPU, so they get
// an even smaller and shorter-lived array.
func digestFlash(realECC bool, seed uint64) flash.Config {
	fc := flash.DefaultConfig()
	fc.Geometry = flash.Geometry{
		Channels:      2,
		BlocksPerChan: 8,
		PagesPerBlock: 8,
		PageSize:      rber.FPageSize,
		SpareSize:     rber.SpareSize,
	}
	fc.Reliability.NominalPEC = 12
	fc.EnduranceCV = 0.1
	fc.PageCV = 0.05
	fc.ReadDisturbRBER = 1e-7
	// Blocks die physically (erase failure) late in a RegenS life, so the
	// dead-block arms run too.
	fc.EraseFailPEC = 1.65
	fc.StoreData = realECC
	if realECC {
		fc.Geometry.BlocksPerChan = 4
		fc.Reliability.NominalPEC = 5
		fc.StuckColumnsPerNominalPEC = 6
	}
	fc.Seed = seed
	return fc
}

type digestDevice struct {
	name  string
	build func(realECC bool, seed uint64, eng *sim.Engine) (dev pinnedDevice, counters func() any, dead func() bool, err error)
}

func coreRow(name string, maxLevel int, grace bool) digestDevice {
	return digestDevice{name: name, build: func(realECC bool, seed uint64, eng *sim.Engine) (pinnedDevice, func() any, func() bool, error) {
		cfg := core.DefaultConfig()
		cfg.Flash = digestFlash(realECC, seed)
		cfg.MSizeOPages = 16
		cfg.MaxLevel = maxLevel
		cfg.GraceDecommission = grace
		cfg.RealECC = realECC
		cfg.WearLevelSpread = 4
		cfg.Seed = seed*7 + 1
		d, err := core.New(cfg, eng)
		if err != nil {
			return nil, nil, nil, err
		}
		return d, func() any { return d.Counters() }, d.Retired, nil
	}}
}

var digestDevices = []digestDevice{
	{name: "ssd", build: func(realECC bool, seed uint64, eng *sim.Engine) (pinnedDevice, func() any, func() bool, error) {
		cfg := ssd.DefaultConfig()
		cfg.Flash = digestFlash(realECC, seed)
		cfg.RealECC = realECC
		// 2.5% of 16 blocks is less than one block; leave the bad-block remap
		// path room to run before the brick.
		cfg.BrickThreshold = 0.3
		cfg.WearLevelSpread = 4
		cfg.Seed = seed*7 + 1
		d, err := ssd.New(cfg, eng)
		if err != nil {
			return nil, nil, nil, err
		}
		return d, func() any { return d.Counters() }, func() bool { return d.Wear().Retired }, nil
	}},
	coreRow("shrinks", 0, false),
	coreRow("regens1", 1, false),
	coreRow("regens2", 2, false),
	coreRow("regens1-grace", 1, true),
}

// digestMaxOps bounds a run that fails to wear its device out (none of the
// pinned rows reaches it; the row records the op count).
const digestMaxOps = 200000

// runDigest drives one device through a seeded write/overwrite/trim/read/
// flush stream until it dies and returns the pinned row: a SHA-256 over
// every host-visible result, the ordered host events, the final virtual
// time, Counters(), Wear(), the rendered registry snapshot, the trace as
// JSONL and a full read-back — followed by a few plain figures so a
// regenerated file diffs readably.
func runDigest(dd digestDevice, realECC, faults bool, seed uint64) (string, error) {
	eng := sim.NewEngine()
	dev, counters, dead, err := dd.build(realECC, seed, eng)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(16)
	traceHash := sha256.New()
	tr.Subscribe(func(e telemetry.Event) {
		raw, _ := json.Marshal(e)
		traceHash.Write(raw)
		traceHash.Write([]byte{'\n'})
	})
	dev.Instrument(reg, tr)
	if faults {
		fr := faultinject.New(seed * 101)
		fr.Instrument(reg, tr)
		dev.InjectFaults(fr)
		for site, plan := range map[string]faultinject.Plan{
			"flash.program.fail":   {Prob: 0.01},
			"flash.read.transient": {Prob: 0.15},
			"core.event.drop":      {Prob: 0.1},
			"core.event.duplicate": {Prob: 0.1},
		} {
			if err := fr.Arm(site, plan); err != nil {
				return "", err
			}
		}
	}
	var draining []blockdev.MinidiskID
	dev.Notify(func(e blockdev.Event) {
		fmt.Fprintf(h, "event %v md=%d lbas=%d\n", e, e.Minidisk, e.Info.LBAs)
		if e.Kind == blockdev.EventDrain {
			draining = append(draining, e.Minidisk)
		}
	})

	rng := stats.NewRNG(seed*31 + 5)
	buf := make([]byte, blockdev.OPageSize)
	ops := 0
	for ; ops < digestMaxOps && !dead(); ops++ {
		mds := dev.Minidisks()
		if len(mds) == 0 {
			break
		}
		m := mds[rng.Intn(len(mds))]
		// Three quarters of each minidisk is hot so overwrites and GC churn
		// dominate; the rest fills once and turns into cold data.
		lba := rng.Intn(m.LBAs)
		if rng.Intn(4) > 0 {
			lba = rng.Intn(m.LBAs * 3 / 4)
		}
		switch p := rng.Intn(100); {
		case p < 70:
			for i := range buf {
				buf[i] = byte(ops>>8) ^ byte(ops) ^ byte(i*131)
			}
			hashResult(h, "w", m.ID, lba, nil, dev.Write(m.ID, lba, buf))
		case p < 88:
			err := dev.Read(m.ID, lba, buf)
			hashResult(h, "r", m.ID, lba, buf, err)
		case p < 96:
			hashResult(h, "t", m.ID, lba, nil, dev.Trim(m.ID, lba))
		default:
			hashResult(h, "f", 0, 0, nil, dev.Flush())
		}
		// A draining minidisk is released a little later, as a host that had
		// to re-replicate it first would.
		if len(draining) > 0 && rng.Intn(8) == 0 {
			md := draining[0]
			draining = draining[1:]
			hashResult(h, "release", md, 0, nil, dev.(blockdev.Drainer).Release(md))
		}
	}
	hashResult(h, "f", 0, 0, nil, dev.Flush())
	for _, m := range dev.Minidisks() {
		for lba := 0; lba < m.LBAs; lba++ {
			err := dev.Read(m.ID, lba, buf)
			hashResult(h, "rb", m.ID, lba, buf, err)
		}
	}

	fmt.Fprintf(h, "time %d\ncounters %+v\nwear %+v\n", eng.Now(), counters(), dev.Wear())
	telemetry.RenderSnapshot(h, reg.Snapshot())
	fmt.Fprintf(h, "trace %x\n", traceHash.Sum(nil))

	snap := reg.Snapshot()
	layer := dev.Wear().Kind
	return fmt.Sprintf("%x ops=%d host_writes=%d flash_writes=%d vtime_ns=%d",
		h.Sum(nil), ops, snap.Counters[layer+".host_writes"], snap.Counters[layer+".flash_writes"], eng.Now()), nil
}

// hashResult folds one host operation's outcome into the digest. Errors are
// recorded by text: the sentinel and its wrapping are both host-visible.
func hashResult(h hash.Hash, op string, md blockdev.MinidiskID, lba int, data []byte, err error) {
	if err != nil {
		fmt.Fprintf(h, "%s %d %d err %v\n", op, md, lba, err)
		return
	}
	fmt.Fprintf(h, "%s %d %d ok\n", op, md, lba)
	h.Write(data)
}

// TestDeviceDigestsPinned replays every row of testdata/device_digests.txt
// and fails on any drift. The file was generated before the ssd and core
// data paths were merged into one engine, and is the oracle that refactor —
// and any later change to the shared read or write path — is judged by. A
// deliberate behaviour change regenerates the affected rows from this
// test's failure output, in a commit that states the cause.
func TestDeviceDigestsPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/device_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, row, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad digest row %q", line)
		}
		pinned[name] = row
	}
	cases := 0
	for _, dd := range digestDevices {
		for _, realECC := range []bool{false, true} {
			for _, faults := range []bool{false, true} {
				for seed := uint64(1); seed <= 3; seed++ {
					dd, realECC, faults, seed := dd, realECC, faults, seed
					name := fmt.Sprintf("%s/ecc=%v/faults=%v/seed=%d", dd.name, realECC, faults, seed)
					cases++
					t.Run(name, func(t *testing.T) {
						if realECC && raceEnabled {
							t.Skip("single-goroutine replay; real-ECC rows run in the non-race pass")
						}
						t.Parallel()
						got, err := runDigest(dd, realECC, faults, seed)
						if err != nil {
							t.Fatal(err)
						}
						if got != pinned[name] {
							t.Errorf("device digest drifted\n got: %s %s\nwant: %s %s", name, got, name, pinned[name])
						}
					})
				}
			}
		}
	}
	if len(pinned) != cases {
		t.Errorf("testdata holds %d digest rows, want %d", len(pinned), cases)
	}
}
