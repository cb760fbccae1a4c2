// Package lifesim is the fleet-level lifetime Monte-Carlo behind Fig. 3a/3b
// and the paper's headline lifetime numbers. A batch of devices absorbs a
// constant byte load (DWPD against original capacity, inflated by FTL write
// amplification); per-page endurance variance makes pages tire at different
// wear; and the three device policies react differently:
//
//   - Baseline bricks once the fraction of bad blocks (a block is bad when
//     its weakest page can no longer hold data at the L0 code rate) crosses
//     the 2.5% threshold (§2).
//   - ShrinkS keeps only L0-capable pages and retires the device when
//     usable capacity falls below an operator threshold.
//   - RegenS additionally counts tired pages at 4-L oPages each, up to
//     MaxLevel, flattening the capacity decline (§3.4, Fig. 3).
//
// The model is statistical — no data-path — so fleets of hundreds of
// devices simulate in milliseconds; the device-level packages (internal/ssd,
// internal/core) validate the same behaviours mechanically.
package lifesim

import (
	"fmt"
	"math"
	"sort"

	"salamander/internal/rber"
	"salamander/internal/stats"
	"salamander/internal/telemetry"
)

// Mode selects the device policy.
type Mode int

// Device policies.
const (
	Baseline Mode = iota
	ShrinkS
	RegenS
)

func (m Mode) String() string {
	switch m {
	case Baseline:
		return "baseline"
	case ShrinkS:
		return "shrinkS"
	case RegenS:
		return "regenS"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes a fleet run.
type Config struct {
	Devices         int
	BlocksPerDevice int
	// DWPD is drive writes per day against the original capacity;
	// writeAmp multiplies it into flash wear.
	DWPD float64
	Mode Mode
	// MaxLevel bounds RegenS (the paper recommends 1).
	MaxLevel int
	// RetireCapacity is the operator policy for ShrinkS/RegenS: the device
	// is retired once usable capacity drops below this fraction of the
	// original. Production SLAs keep headroom; 0.8 is the default and the
	// benches sweep it as an ablation.
	RetireCapacity float64
	// AFR is an optional annual rate of random (non-wear) device failures.
	AFR float64
	// StepDays is the simulation step.
	StepDays float64
	Seed     uint64
	// Telemetry, when non-nil, receives fleet counters and lifetime
	// histograms under the "lifesim." prefix; Tracer, when non-nil,
	// receives a minidisk_retire event per device death (N carries the
	// death day — the statistical model has no virtual clock).
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
}

// The fleet's fixed device model: 64-page blocks on the default RBER(PEC)
// model, lognormal endurance variance per block and per page, the
// baseline's 2.5% bad-block brick threshold, a write amplification of 2,
// and a bound on the run.
const (
	pagesPerBlock  = 64
	enduranceCV    = 0.15
	pageCV         = 0.05
	brickThreshold = 0.025
	writeAmp       = 2
	maxDays        = 20000
)

// DefaultConfig returns a 64-device fleet at 1 DWPD.
func DefaultConfig() Config {
	return Config{
		Devices:         64,
		BlocksPerDevice: 256,
		DWPD:            1,
		Mode:            Baseline,
		MaxLevel:        1,
		RetireCapacity:  0.8,
		StepDays:        5,
		Seed:            1,
	}
}

func (c Config) validate() error {
	switch {
	case c.Devices <= 0 || c.BlocksPerDevice <= 0:
		return fmt.Errorf("lifesim: non-positive fleet dimension")
	case c.DWPD <= 0:
		return fmt.Errorf("lifesim: non-positive load")
	case c.RetireCapacity <= 0 || c.RetireCapacity > 1:
		return fmt.Errorf("lifesim: retire capacity %v out of (0,1]", c.RetireCapacity)
	case c.StepDays <= 0:
		return fmt.Errorf("lifesim: non-positive time parameters")
	case c.MaxLevel < 0 || c.MaxLevel > rber.MaxUsableLevel:
		return fmt.Errorf("lifesim: MaxLevel %d out of range", c.MaxLevel)
	}
	return nil
}

// device is the statistical state of one SSD.
type device struct {
	pageScales  []float64 // sorted ascending
	blockMins   []float64 // sorted ascending (weakest page per block)
	wear        float64   // program/erase cycles (uniform wear leveling)
	alive       bool
	deathDay    float64
	randomDeath float64 // AFR-drawn death day (+Inf if disabled)
	capFrac     float64
	// shrink bookkeeping
	firstShrinkDay float64
	shrinkCapSum   float64 // integral of capFrac during the shrink phase
	shrinkSteps    int
	lifeCapSum     float64
	lifeSteps      int
	failedSlots    float64 // cumulative failed capacity (for §4.3)
	levelCounts    []int
}

// Result aggregates a fleet run.
type Result struct {
	Config Config
	// Days is the time grid; Alive and CapacityFrac are the Fig. 3a/3b
	// series (capacity as a fraction of the fleet's original capacity).
	Days         []float64
	Alive        []int
	CapacityFrac []float64
	// MeanLifetimeDays averages device death times.
	MeanLifetimeDays float64
	// MeanShrinkCapacity is the average capacity fraction between a
	// device's first shrink and its death (§4.1's "average SSD capacity").
	MeanShrinkCapacity float64
	// MeanLifetimeCapacity is the capacity fraction averaged over the whole
	// device life.
	MeanLifetimeCapacity float64
	// RecoveryVolumeRel is total failed capacity over the device life
	// relative to its original capacity; the baseline fails everything
	// exactly once (1.0), RegenS re-fails regenerated capacity (§4.3).
	RecoveryVolumeRel float64
}

// Run simulates the fleet to extinction (or MaxDays).
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
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

	devs := make([]*device, cfg.Devices)
	pagesPer := cfg.BlocksPerDevice * pagesPerBlock
	for i := range devs {
		d := &device{
			pageScales:  make([]float64, 0, pagesPer),
			blockMins:   make([]float64, 0, cfg.BlocksPerDevice),
			alive:       true,
			capFrac:     1,
			randomDeath: math.Inf(1),
			levelCounts: make([]int, maxLevel+2),
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
		if cfg.AFR > 0 {
			d.randomDeath = -math.Log(1-r.Float64()) / cfg.AFR * 365
		}
		d.levelCounts[0] = pagesPer
		devs[i] = d
	}

	res := &Result{Config: cfg}
	var deaths, bricks, retires, afrDeaths *telemetry.Counter
	var lifeHist *telemetry.Histogram
	if cfg.Telemetry != nil {
		deaths = cfg.Telemetry.Counter("lifesim.device_deaths")
		bricks = cfg.Telemetry.Counter("lifesim.bricks")
		retires = cfg.Telemetry.Counter("lifesim.capacity_retires")
		afrDeaths = cfg.Telemetry.Counter("lifesim.afr_deaths")
		lifeHist = cfg.Telemetry.Histogram("lifesim.lifetime_days")
	}
	die := func(day float64, why string, c *telemetry.Counter) {
		if cfg.Telemetry != nil {
			deaths.Inc()
			c.Inc()
			lifeHist.Observe(day)
		}
		cfg.Tracer.Emit(telemetry.Event{
			Kind: telemetry.KindMinidiskRetire, Layer: "lifesim",
			N: int64(day), Detail: why,
		})
	}
	slotsPerPage := float64(rber.OPagesPerFPage)
	for day := 0.0; day <= maxDays; day += cfg.StepDays {
		aliveN := 0
		capSum := 0.0
		for _, d := range devs {
			if !d.alive {
				continue
			}
			if day >= d.randomDeath {
				d.kill(day, d.capFrac)
				die(day, "afr", afrDeaths)
				continue
			}
			// Wear advances with the absolute byte load concentrated on
			// the current capacity.
			rate := cfg.DWPD * writeAmp / math.Max(d.capFrac, 0.05)
			d.wear += rate * cfg.StepDays

			switch cfg.Mode {
			case Baseline:
				// Block is bad when its weakest page leaves L0.
				bad := lowerBound(d.blockMins, d.wear/limits[0])
				if float64(bad)/float64(len(d.blockMins)) > brickThreshold {
					d.failedSlots += d.capFrac // everything fails at once
					d.kill(day, 0)
					die(day, "brick", bricks)
					continue
				}
				d.capFrac = 1
			default:
				counts := levelCounts(d.pageScales, d.wear, limits)
				// Account capacity that failed this step (pages leaving
				// each level lose their slots; §4.3 recovery volume).
				out := 0
				for l := 0; l <= maxLevel; l++ {
					out += d.levelCounts[l] - counts[l]
					if out > 0 {
						d.failedSlots += float64(out) * (slotsPerPage - float64(l)) /
							(slotsPerPage * float64(len(d.pageScales)))
					}
				}
				copy(d.levelCounts, counts)
				slots := 0.0
				for l, n := range counts {
					if l <= maxLevel {
						slots += float64(n) * (slotsPerPage - float64(l))
					}
				}
				d.capFrac = slots / (slotsPerPage * float64(len(d.pageScales)))
				if d.capFrac < 1 && d.firstShrinkDay == 0 {
					d.firstShrinkDay = day
				}
				if d.capFrac < 1 {
					d.shrinkCapSum += d.capFrac
					d.shrinkSteps++
				}
				if d.capFrac < cfg.RetireCapacity {
					// Remaining capacity fails when the device is pulled.
					d.failedSlots += d.capFrac
					d.kill(day, 0)
					die(day, "capacity_retire", retires)
					continue
				}
			}
			d.lifeCapSum += d.capFrac
			d.lifeSteps++
			aliveN++
			capSum += d.capFrac
		}
		res.Days = append(res.Days, day)
		res.Alive = append(res.Alive, aliveN)
		res.CapacityFrac = append(res.CapacityFrac, capSum/float64(cfg.Devices))
		if aliveN == 0 {
			break
		}
	}

	// Aggregate per-device metrics.
	var lifeSum, shrinkCap, lifeCap, recVol float64
	shrinkDevs := 0
	for _, d := range devs {
		if d.alive {
			// Survived MaxDays; count the horizon as a lower bound.
			d.deathDay = maxDays
		}
		lifeSum += d.deathDay
		if d.shrinkSteps > 0 {
			shrinkCap += d.shrinkCapSum / float64(d.shrinkSteps)
			shrinkDevs++
		}
		if d.lifeSteps > 0 {
			lifeCap += d.lifeCapSum / float64(d.lifeSteps)
		}
		recVol += d.failedSlots
	}
	res.MeanLifetimeDays = lifeSum / float64(cfg.Devices)
	if shrinkDevs > 0 {
		res.MeanShrinkCapacity = shrinkCap / float64(shrinkDevs)
	}
	res.MeanLifetimeCapacity = lifeCap / float64(cfg.Devices)
	res.RecoveryVolumeRel = recVol / float64(cfg.Devices)
	return res, nil
}

func (d *device) kill(day, capLeft float64) {
	d.alive = false
	d.deathDay = day
	d.capFrac = capLeft
}

// lowerBound returns the number of elements in sorted xs strictly below v.
func lowerBound(xs []float64, v float64) int {
	return sort.SearchFloat64s(xs, v)
}

// levelCounts returns, for each level l in [0, len(limits)) plus a final
// dead bucket, how many pages currently sit at that tiredness: a page with
// endurance scale s is at the smallest l with wear <= limits[l]*s.
func levelCounts(sorted []float64, wear float64, limits []float64) []int {
	n := len(sorted)
	counts := make([]int, len(limits)+1)
	prevAtOrBelow := 0
	for l, lim := range limits {
		// Pages with level <= l: scale >= wear/lim.
		atOrBelow := n - lowerBound(sorted, wear/lim)
		counts[l] = atOrBelow - prevAtOrBelow
		prevAtOrBelow = atOrBelow
	}
	counts[len(limits)] = n - prevAtOrBelow // dead
	return counts
}

// LifetimeFactor runs mode against a baseline with identical parameters and
// returns the mean-lifetime ratio — the paper's headline metric.
func LifetimeFactor(cfg Config, mode Mode) (float64, error) {
	base := cfg
	base.Mode = Baseline
	b, err := Run(base)
	if err != nil {
		return 0, err
	}
	m := cfg
	m.Mode = mode
	r, err := Run(m)
	if err != nil {
		return 0, err
	}
	if b.MeanLifetimeDays == 0 {
		return 0, fmt.Errorf("lifesim: baseline fleet never died")
	}
	return r.MeanLifetimeDays / b.MeanLifetimeDays, nil
}
