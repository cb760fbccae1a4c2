package ssd

import (
	"bytes"
	"testing"

	"salamander/internal/blockdev"
	"salamander/internal/faultinject"
	"salamander/internal/stats"
	"salamander/internal/telemetry"
)

// Property (fault injection): under randomly injected program failures and
// transient read faults, the FTL must still be read-your-writes — a program
// fail consumes the page, remaps the writes to a fresh block, and marks the
// block suspect, but the host never observes stale or corrupt data, and
// recoveries are counted against injections.
func TestFTLReadYourWritesUnderProgramFailures(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := testConfig()
		cfg.Flash.StoreData = true
		cfg.RealECC = false
		cfg.MaxReadRetries = 2
		cfg.Flash.Reliability.NominalPEC = 2000 // wear stays negligible
		// The tiny 16-block test geometry would brick on the first bad block
		// at the paper's 2.5%; give the remap path room to work instead.
		cfg.BrickThreshold = 0.5
		cfg.Flash.Seed = seed
		cfg.Seed = seed * 7
		dev, _ := mustDevice(t, cfg)

		reg := telemetry.NewRegistry()
		fr := faultinject.New(seed * 101)
		fr.Instrument(reg, nil)
		dev.InjectFaults(fr)
		// Every program failure permanently retires a block, so cap the
		// schedule: 3 of 16 blocks lost is survivable, unbounded is not.
		if err := fr.Arm("flash.program.fail", faultinject.Plan{Prob: 0.02, MaxFires: 3}); err != nil {
			t.Fatal(err)
		}
		if err := fr.Arm("flash.read.transient", faultinject.Plan{Prob: 0.03}); err != nil {
			t.Fatal(err)
		}

		rng := stats.NewRNG(seed)
		lbas := dev.Minidisks()[0].LBAs
		model := map[int][]byte{}
		buf := make([]byte, blockdev.OPageSize)
		for round := 0; round < 3000; round++ {
			lba := rng.Intn(lbas / 2) // half the volume: forces GC churn
			if want, ok := model[lba]; ok && rng.Intn(2) == 0 {
				if err := dev.Read(0, lba, buf); err != nil {
					t.Fatalf("seed %d round %d read lba %d: %v", seed, round, lba, err)
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("seed %d round %d lba %d: read returned wrong bytes", seed, round, lba)
				}
				continue
			}
			data := make([]byte, blockdev.OPageSize)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			if err := dev.Write(0, lba, data); err != nil {
				t.Fatalf("seed %d round %d write lba %d: %v", seed, round, lba, err)
			}
			model[lba] = data
		}
		if err := dev.Flush(); err != nil {
			t.Fatal(err)
		}
		// Nothing written is ever lost, including across the GC relocations
		// and bad-block remaps the injected program failures caused.
		for lba, want := range model {
			if err := dev.Read(0, lba, buf); err != nil {
				t.Fatalf("seed %d final read lba %d: %v", seed, lba, err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("seed %d final read lba %d: content mismatch", seed, lba)
			}
		}

		injected := fr.Site("flash.program.fail").Fires()
		if injected == 0 {
			t.Fatalf("seed %d: no program failures injected in 3000 rounds", seed)
		}
		snap := reg.Snapshot()
		if snap.Counters["flash.faults_injected"] == 0 {
			t.Errorf("seed %d: flash.faults_injected counter not visible", seed)
		}
		if snap.Counters["ssd.faults_recovered"] == 0 {
			t.Errorf("seed %d: FTL recorded no recoveries against %d injected program failures", seed, injected)
		}
	}
}
