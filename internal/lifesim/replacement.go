package lifesim

import (
	"fmt"
	"math"
	"sort"

	"salamander/internal/rber"
	"salamander/internal/stats"
)

// ReplacementResult reports a constant-capacity deployment simulation: the
// operator adds new drives whenever fleet capacity sags below the floor
// (§4.1: "system operators may add new SSDs to offset missing capacity"),
// so the number of drives purchased over the horizon measures the upgrade
// rate Ru directly — the quantity Eq. 3's embodied-carbon term depends on.
type ReplacementResult struct {
	Config      Config
	HorizonDays float64
	// Purchased counts devices bought over the horizon, including the
	// initial fleet.
	Purchased int
	// MeanCapacityFrac is the time-averaged fleet capacity relative to the
	// target (should hover at or above the floor).
	MeanCapacityFrac float64
}

// replacementDevice wraps the statistical device state for the
// constant-capacity simulation.
type replacementDevice struct {
	pageScales []float64
	blockMins  []float64
	wear       float64
	capFrac    float64
	alive      bool
	levels     []int
}

// RunReplacement simulates a deployment that must sustain the capacity of
// cfg.Devices drives for horizonDays, purchasing replacements whenever
// capacity drops below floor (a fraction of the target, e.g. 0.95).
func RunReplacement(cfg Config, horizonDays, floor float64) (*ReplacementResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if horizonDays <= 0 || floor <= 0 || floor > 1 {
		return nil, fmt.Errorf("lifesim: invalid horizon %v / floor %v", horizonDays, floor)
	}
	model, err := rber.New(rber.DefaultParams())
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	maxLevel := 0
	if cfg.Mode == RegenS {
		maxLevel = cfg.MaxLevel
	}
	limits := make([]float64, maxLevel+1)
	for l := 0; l <= maxLevel; l++ {
		limits[l] = model.Level(l).PECLimit
	}
	pagesPer := cfg.BlocksPerDevice * pagesPerBlock

	newDevice := func() *replacementDevice {
		d := &replacementDevice{
			pageScales: make([]float64, 0, pagesPer),
			blockMins:  make([]float64, 0, cfg.BlocksPerDevice),
			capFrac:    1,
			alive:      true,
			levels:     make([]int, maxLevel+2),
		}
		r := rng.Split()
		for b := 0; b < cfg.BlocksPerDevice; b++ {
			bs := r.LogNormal(1, enduranceCV)
			minS := math.Inf(1)
			for p := 0; p < pagesPerBlock; p++ {
				s := bs * r.LogNormal(1, pageCV)
				d.pageScales = append(d.pageScales, s)
				if s < minS {
					minS = s
				}
			}
			d.blockMins = append(d.blockMins, minS)
		}
		sort.Float64s(d.pageScales)
		sort.Float64s(d.blockMins)
		d.levels[0] = pagesPer
		return d
	}

	target := float64(cfg.Devices)
	fleet := make([]*replacementDevice, 0, cfg.Devices*2)
	for i := 0; i < cfg.Devices; i++ {
		fleet = append(fleet, newDevice())
	}
	purchased := cfg.Devices
	capSum, steps := 0.0, 0

	for day := 0.0; day <= horizonDays; day += cfg.StepDays {
		capacity := 0.0
		aliveN := 0
		for _, d := range fleet {
			if !d.alive {
				continue
			}
			aliveN++
			// The deployment's byte load is shared across live capacity;
			// per-device wear rate follows its share (uniform spread).
			rate := cfg.DWPD * writeAmp / math.Max(d.capFrac, 0.05)
			d.wear += rate * cfg.StepDays

			switch cfg.Mode {
			case Baseline:
				bad := lowerBound(d.blockMins, d.wear/limits[0])
				if float64(bad)/float64(len(d.blockMins)) > brickThreshold {
					d.alive = false
					d.capFrac = 0
					continue
				}
				d.capFrac = 1
			default:
				counts := levelCounts(d.pageScales, d.wear, limits)
				slots := 0.0
				for l, n := range counts {
					if l <= maxLevel {
						slots += float64(n) * (float64(rber.OPagesPerFPage) - float64(l))
					}
				}
				d.capFrac = slots / (float64(rber.OPagesPerFPage) * float64(len(d.pageScales)))
				if d.capFrac < cfg.RetireCapacity {
					d.alive = false
					d.capFrac = 0
					continue
				}
			}
			capacity += d.capFrac
		}
		// Purchase until the floor is met again.
		for capacity < target*floor {
			fleet = append(fleet, newDevice())
			purchased++
			capacity++
		}
		capSum += capacity / target
		steps++
	}
	return &ReplacementResult{
		Config:           cfg,
		HorizonDays:      horizonDays,
		Purchased:        purchased,
		MeanCapacityFrac: capSum / float64(steps),
	}, nil
}

// MeasuredUpgradeRate runs constant-capacity deployments for mode and
// baseline over the same horizon and returns purchased(mode)/purchased(
// baseline) — the empirically measured Ru of §4.1.
func MeasuredUpgradeRate(cfg Config, mode Mode, horizonDays, floor float64) (float64, error) {
	base := cfg
	base.Mode = Baseline
	b, err := RunReplacement(base, horizonDays, floor)
	if err != nil {
		return 0, err
	}
	m := cfg
	m.Mode = mode
	r, err := RunReplacement(m, horizonDays, floor)
	if err != nil {
		return 0, err
	}
	if b.Purchased == 0 {
		return 0, fmt.Errorf("lifesim: baseline purchased nothing")
	}
	return float64(r.Purchased) / float64(b.Purchased), nil
}
