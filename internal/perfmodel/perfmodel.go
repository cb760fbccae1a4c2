// Package perfmodel reproduces the paper's performance analysis (§4.2,
// Fig. 3c/3d): RegenS pages at tiredness level L hold only 4-L oPages, so
// accessing the same amount of data takes more flash IO — sequential
// throughput and large-access latency degrade by 4/(4-L).
//
// The package provides both the paper's closed-form model and a measurement
// harness that lays data out on the simulated flash array with a given
// fraction of L1 pages and times real reads on the virtual clock. The two
// agree for amortized (sequential) access; for single large random accesses
// the measured serial-device penalty is steeper than the amortized model
// (a 16KB access spanning two physical pages pays two full reads), which
// EXPERIMENTS.md discusses.
package perfmodel

import (
	"fmt"

	"salamander/internal/flash"
	"salamander/internal/rber"
	"salamander/internal/sim"
	"salamander/internal/stats"
	"salamander/internal/telemetry"
)

// DegradationFactor returns the paper's 4/(4-L) factor for a uniform
// tiredness level L.
func DegradationFactor(level int) float64 {
	if level < 0 || level >= rber.OPagesPerFPage {
		panic(fmt.Sprintf("perfmodel: level %d out of range", level))
	}
	return float64(rber.OPagesPerFPage) / float64(rber.OPagesPerFPage-level)
}

// AnalyticSeqThroughput returns relative sequential throughput when a
// fraction f of fPages run at level L (the rest at L0): page reads deliver
// (4-L)/4 of the data, so throughput scales with delivered bytes per page
// read.
func AnalyticSeqThroughput(f float64, level int) float64 {
	perPage := (1-f)*1 + f*float64(rber.OPagesPerFPage-level)/float64(rber.OPagesPerFPage)
	return perPage
}

// AnalyticLargeAccessLatency returns the paper's amortized relative latency
// for 16KB accesses: expected page IOs per access, (1-f) + f·4/(4-L).
func AnalyticLargeAccessLatency(f float64, level int) float64 {
	return (1 - f) + f*DegradationFactor(level)
}

// AnalyticSmallAccessLatency returns relative 4KB latency: one page read
// regardless of level (§4.2 expects parity).
func AnalyticSmallAccessLatency(f float64, level int) float64 { return 1 }

// Result is one measured point of Fig. 3c/3d.
type Result struct {
	Fraction float64 // fraction of L1 fPages
	// SeqThroughputRel is sequential throughput relative to an all-L0
	// layout (Fig. 3c's y-axis).
	SeqThroughputRel float64
	// Rand16KLatencyRel is mean 16KB random-read latency relative to all-L0
	// (Fig. 3d), measured on a serial (single-queue) device.
	Rand16KLatencyRel float64
	// Rand4KLatencyRel is mean 4KB random-read latency relative to all-L0.
	Rand4KLatencyRel float64

	seqThroughput float64 // bytes per virtual second (absolute)
	lat16K        sim.Time
	lat4K         sim.Time
}

// Config parameterizes a measurement run.
type Config struct {
	// DataMB is the dataset size laid out on flash.
	DataMB int
	// Level is the tired level mixed with L0 (1 for the paper's figures).
	Level int
	// RandomReads is the number of random accesses sampled per point.
	RandomReads int
	// Channels > 1 schedules the page reads of one access on a multi-
	// channel bus (consecutive layout pages stripe across channels), the
	// §4.2 mitigation that overlaps RegenS's extra page reads. 0 or 1
	// measures a serial device.
	Channels int
	// Telemetry/Tracer, when non-nil, instrument the measurement's flash
	// array: flash.* op counters, latency histograms, and page_program
	// events flow into them.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
}

// seed fixes the flash array's variance draws and the sampled accesses, so
// every sweep point measures the same device.
const seed = 9

// DefaultConfig measures 32MB datasets with 2000 random reads per point.
func DefaultConfig() Config {
	return Config{DataMB: 32, Level: 1, RandomReads: 2000}
}

// layout describes where each oPage of the dataset lives.
type layout struct {
	pagePPA   []flash.PPA // per fPage in layout order
	pageLevel []int
	// oPageHome[i] = index into pagePPA for dataset oPage i.
	oPageHome []int
}

// Measure lays out a dataset with fraction f of level-L fPages and times
// sequential and random reads on the simulated array.
func Measure(cfg Config, f float64) (*Result, error) {
	if f < 0 || f > 1 {
		return nil, fmt.Errorf("perfmodel: fraction %v out of [0,1]", f)
	}
	if cfg.Level < 1 || cfg.Level > rber.MaxUsableLevel {
		return nil, fmt.Errorf("perfmodel: level %d out of [1,%d]", cfg.Level, rber.MaxUsableLevel)
	}
	totalOPages := cfg.DataMB * 1024 * 1024 / rber.OPageSize
	// Build a flash array big enough for the worst case (all pages tired).
	worstPages := totalOPages/(rber.OPagesPerFPage-cfg.Level) + 2
	geo := flash.Geometry{
		Channels:      1,
		BlocksPerChan: worstPages/64 + 1,
		PagesPerBlock: 64,
		PageSize:      rber.FPageSize,
		SpareSize:     rber.SpareSize,
	}
	fcfg := flash.Config{
		Geometry:    geo,
		Timing:      flash.DefaultTiming(),
		Reliability: rber.DefaultParams(),
		StoreData:   false,
		Seed:        seed,
	}
	arr, err := flash.New(fcfg)
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry != nil || cfg.Tracer != nil {
		arr.Instrument(cfg.Telemetry, cfg.Tracer)
	}
	rng := stats.NewRNG(seed)

	// Lay the dataset out page by page; every (1/f)-th page is tired.
	lay := &layout{}
	placed := 0
	nextBlock, nextPage := 0, 0
	acc := 0.0
	for placed < totalOPages {
		level := 0
		acc += f
		if acc >= 1 {
			acc -= 1
			level = cfg.Level
		}
		ppa := flash.PPA{Block: nextBlock, Page: nextPage}
		if _, err := arr.Program(ppa, nil); err != nil {
			return nil, err
		}
		slots := rber.OPagesPerFPage - level
		idx := len(lay.pagePPA)
		lay.pagePPA = append(lay.pagePPA, ppa)
		lay.pageLevel = append(lay.pageLevel, level)
		for s := 0; s < slots && placed < totalOPages; s++ {
			lay.oPageHome = append(lay.oPageHome, idx)
			placed++
		}
		nextPage++
		if nextPage == geo.PagesPerBlock {
			nextPage = 0
			nextBlock++
		}
	}

	res := &Result{Fraction: f}

	// Sequential scan: read every layout page once, full transfer.
	eng := sim.NewEngine()
	for _, ppa := range lay.pagePPA {
		r, err := arr.Read(ppa, 0)
		if err != nil {
			return nil, err
		}
		eng.Advance(r.Duration)
	}
	res.seqThroughput = float64(totalOPages*rber.OPageSize) / eng.Now().Seconds()

	// Random 16KB reads: four consecutive 16KB-aligned oPages. On a serial
	// device the distinct home pages read back to back; with Channels > 1
	// they stripe across a bus and overlap (§4.2's mitigation). Alignment
	// matters: on an all-L0 layout an aligned 16KB access is one fPage read.
	bus := flash.NewBus(max(cfg.Channels, 1))
	var total16 sim.Time
	for i := 0; i < cfg.RandomReads; i++ {
		start := rber.OPagesPerFPage * rng.Intn((totalOPages-rber.OPagesPerFPage)/rber.OPagesPerFPage)
		seen := map[int]bool{}
		bus.Reset() // each measured access hits an otherwise idle device
		var done sim.Time
		for o := start; o < start+rber.OPagesPerFPage; o++ {
			home := lay.oPageHome[o]
			if seen[home] {
				continue
			}
			seen[home] = true
			r, err := arr.Read(lay.pagePPA[home], rber.OPageSize)
			if err != nil {
				return nil, err
			}
			_, end := bus.Reserve(home, 0, r.Duration)
			if end > done {
				done = end
			}
		}
		total16 += done
	}
	res.lat16K = total16 / sim.Time(cfg.RandomReads)

	// Random 4KB reads: always one page read.
	var total4 sim.Time
	for i := 0; i < cfg.RandomReads; i++ {
		o := rng.Intn(totalOPages)
		r, err := arr.Read(lay.pagePPA[lay.oPageHome[o]], rber.OPageSize)
		if err != nil {
			return nil, err
		}
		total4 += r.Duration
	}
	res.lat4K = total4 / sim.Time(cfg.RandomReads)
	return res, nil
}

// Sweep measures every fraction in fs and normalizes against the first
// point (which should be 0 for the Fig. 3c/3d baselines).
func Sweep(cfg Config, fs []float64) ([]*Result, error) {
	var out []*Result
	for _, f := range fs {
		r, err := Measure(cfg, f)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return out, nil
	}
	base := out[0]
	for _, r := range out {
		r.SeqThroughputRel = r.seqThroughput / base.seqThroughput
		r.Rand16KLatencyRel = float64(r.lat16K) / float64(base.lat16K)
		r.Rand4KLatencyRel = float64(r.lat4K) / float64(base.lat4K)
	}
	return out, nil
}
