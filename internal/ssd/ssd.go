// Package ssd implements the baseline SSD the paper compares against: one
// monolithic volume (a single minidisk, in blockdev terms) on the shared FTL
// engine of internal/ftl. What makes it the baseline is its Lifecycle, §2's:
// flash retires at *block* granularity — a block is bad as soon as its
// weakest page can no longer be stored at the L0 code rate, or once it takes
// a program failure — and the whole device bricks once bad blocks exceed a
// small threshold (2.5% by default). Every page serves at level 0 for as
// long as its block lives.
package ssd

import (
	"errors"
	"fmt"

	"salamander/internal/blockdev"
	"salamander/internal/faultinject"
	"salamander/internal/flash"
	"salamander/internal/ftl"
	"salamander/internal/rber"
	"salamander/internal/sim"
	"salamander/internal/telemetry"
)

// Config parameterizes a baseline device.
type Config struct {
	Flash flash.Config
	// OverProvision is the fraction of raw capacity hidden from the host
	// (spare blocks for GC and bad-block replacement).
	OverProvision float64
	// BrickThreshold is the bad-block fraction at which the device fails
	// (paper: 2.5%).
	BrickThreshold float64
	// GCLowWater triggers garbage collection when the free pool drops to
	// this many blocks.
	GCLowWater int
	// RealECC enables the real BCH data path; otherwise uncorrectable
	// events are sampled analytically from the page RBER.
	RealECC bool
	// MaxReadRetries re-reads a failed page up to this many times (§2's
	// iterative voltage adjustment), each retry costing a full read. Zero
	// means a single attempt with no retries; negative is rejected at
	// construction.
	MaxReadRetries int
	// WearLevelSpread triggers static wear leveling: when the P/E spread
	// between hottest and coldest sealed blocks exceeds this many cycles,
	// the coldest block is recycled even if fully valid. Zero disables.
	WearLevelSpread uint32
	Seed            uint64
}

// DefaultConfig returns a data-path baseline device.
func DefaultConfig() Config {
	return Config{
		Flash:           flash.DefaultConfig(),
		OverProvision:   0.07,
		BrickThreshold:  0.025,
		GCLowWater:      3,
		RealECC:         true,
		MaxReadRetries:  2,
		WearLevelSpread: 64,
		Seed:            42,
	}
}

// Counters is a snapshot of device activity.
type Counters struct {
	HostReads, HostWrites   uint64
	FlashReads, FlashWrites uint64 // fPage programs (incl. GC) and reads
	GCRelocations           uint64 // oPages moved by GC
	Uncorrectable           uint64
	BadBlocks               int
	LostOPages              uint64
	ReadRetries             uint64
	RetrySaves              uint64 // reads rescued by a retry
	WearLevelMoves          uint64 // cold blocks recycled by static WL
}

// Device is a baseline SSD: the single-minidisk address check, the
// block-granular Lifecycle and read-only views over an ftl.Engine. All
// entry points are safe for concurrent use; the engine's device lock
// serializes them (lock order: device -> flash channel).
type Device struct {
	cfg  Config
	e    *ftl.Engine
	lbas int // exported capacity in oPages

	// suspect marks blocks that took a program failure: they are sealed so GC
	// relocates their live data, then retired (not recycled) at erase time —
	// the baseline's bad-block remap path for transient program faults.
	suspect map[int]bool
	notify  func(blockdev.Event)
}

// New builds a baseline device on a fresh flash array, attached to the
// given simulation engine (all operation latencies advance its clock).
func New(cfg Config, eng *sim.Engine) (*Device, error) {
	if cfg.OverProvision <= 0 || cfg.OverProvision >= 1 {
		return nil, fmt.Errorf("ssd: over-provisioning %v out of (0,1)", cfg.OverProvision)
	}
	if cfg.BrickThreshold <= 0 {
		return nil, fmt.Errorf("ssd: brick threshold must be positive")
	}
	d := &Device{cfg: cfg, suspect: map[int]bool{}}
	e, err := ftl.New(ftl.Config{
		Layer: "ssd", Flash: cfg.Flash, GCLowWater: cfg.GCLowWater, RealECC: cfg.RealECC,
		MaxReadRetries: cfg.MaxReadRetries, WearLevelSpread: cfg.WearLevelSpread, Seed: cfg.Seed,
	}, eng, (*baseline)(d))
	if err != nil {
		return nil, err
	}
	d.e = e
	// The reserve must cover GC's block-granular working set (active block,
	// GC block, allocation headroom) even on tiny devices where a
	// percentage would round down to less than a block or two.
	g := e.Array().Geometry()
	totalOPages := e.ServingSlots()
	reserve := int(float64(totalOPages) * cfg.OverProvision)
	if minRes := 4 * g.PagesPerBlock * rber.OPagesPerFPage; reserve < minRes {
		reserve = minRes
	}
	d.lbas = totalOPages - reserve
	if d.lbas <= 0 {
		return nil, errors.New("ssd: device too small for its over-provisioning reserve")
	}
	return d, nil
}

// Engine returns the simulation engine the device advances.
func (d *Device) Engine() *sim.Engine { return d.e.Clock() }

// Delay advances the device clock by dt under the device lock.
func (d *Device) Delay(dt sim.Time) { d.e.Delay(dt) }

// Array exposes the underlying flash for inspection in tests and benches.
func (d *Device) Array() *flash.Array { return d.e.Array() }

// Counters returns an activity snapshot. The struct is a thin view built
// from the device's registry-backed telemetry handles at call time;
// mutating the returned value has no effect on the live device.
func (d *Device) Counters() Counters {
	d.e.Lock()
	defer d.e.Unlock()
	c := d.e.Counters()
	return Counters{
		HostReads:      c.HostReads,
		HostWrites:     c.HostWrites,
		FlashReads:     c.FlashReads,
		FlashWrites:    c.FlashWrites,
		GCRelocations:  c.GCRelocations,
		Uncorrectable:  c.Uncorrectable,
		BadBlocks:      d.e.BadBlocks(),
		LostOPages:     c.LostOPages,
		ReadRetries:    c.ReadRetries,
		RetrySaves:     c.RetrySaves,
		WearLevelMoves: c.WearLevelMoves,
	}
}

// Instrument rebinds the device's counters to the given shared registry and
// attaches a tracer, and instruments the underlying flash array with the
// same pair. Accumulated counter values carry over; histograms start empty,
// so instrument at startup for complete latency distributions. A nil
// registry detaches back onto a private one.
func (d *Device) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	d.e.Lock()
	defer d.e.Unlock()
	d.e.Instrument(reg, tr)
}

// InjectFaults attaches a failpoint registry: the registry's clock is bound
// to the device engine and its flash sites are threaded into the array. Pass
// nil to detach. One registry per device (clocks are per-device); instrument
// the registry into a shared telemetry registry for the fleet view.
func (d *Device) InjectFaults(fr *faultinject.Registry) {
	d.e.Lock()
	defer d.e.Unlock()
	d.e.InjectFaults(fr)
}

// Wear implements blockdev.WearReporter: the baseline device's media-wear
// self-report for the fleet ops surface. The baseline has no tiredness
// levels, so corrections report as a single level-0 entry, and its
// retired-block count is the bad-block remap population.
func (d *Device) Wear() blockdev.WearInfo {
	d.e.Lock()
	defer d.e.Unlock()
	w := d.e.Wear()
	w.CorrectionsByLevel = w.CorrectionsByLevel[:1]
	w.SuspectBlocks = len(d.suspect)
	w.RetiredBlocks = d.e.BadBlocks()
	totalBlocks := d.e.Array().Geometry().TotalBlocks()
	w.CapacityFrac = float64(totalBlocks-w.RetiredBlocks) / float64(totalBlocks)
	if !w.Retired {
		w.LiveMinidisks = 1
	}
	return w
}

// Notify implements blockdev.Device.
func (d *Device) Notify(fn func(blockdev.Event)) {
	d.e.Lock()
	defer d.e.Unlock()
	d.notify = fn
}

// Minidisks implements blockdev.Device: one disk spanning the volume.
func (d *Device) Minidisks() []blockdev.MinidiskInfo {
	d.e.Lock()
	defer d.e.Unlock()
	if d.e.Dead() {
		return nil
	}
	return []blockdev.MinidiskInfo{{ID: 0, LBAs: d.lbas, Tiredness: 0}}
}

func (d *Device) checkAddr(md blockdev.MinidiskID, lba int, buf []byte) error {
	if d.e.Dead() {
		return blockdev.ErrBricked
	}
	if md != 0 {
		return fmt.Errorf("%w: %d", blockdev.ErrNoSuchMinidisk, md)
	}
	if lba < 0 || lba >= d.lbas {
		return fmt.Errorf("%w: %d", blockdev.ErrBadLBA, lba)
	}
	if buf != nil && len(buf) != blockdev.OPageSize {
		return blockdev.ErrBufSize
	}
	return nil
}

// Write implements blockdev.Device. The oPage lands in the NV buffer and is
// flushed to flash once a full fPage's worth is pending.
func (d *Device) Write(md blockdev.MinidiskID, lba int, buf []byte) error {
	d.e.Lock()
	defer d.e.Unlock()
	if err := d.checkAddr(md, lba, buf); err != nil {
		return err
	}
	return d.e.Write(int64(lba), buf)
}

// Flush programs any partially filled buffer to flash, padding unused slots.
func (d *Device) Flush() error {
	d.e.Lock()
	defer d.e.Unlock()
	return d.e.Flush()
}

// Trim implements blockdev.Device.
func (d *Device) Trim(md blockdev.MinidiskID, lba int) error {
	d.e.Lock()
	defer d.e.Unlock()
	if err := d.checkAddr(md, lba, nil); err != nil {
		return err
	}
	d.e.Trim(int64(lba))
	return nil
}

// Read implements blockdev.Device. Unwritten LBAs read zeros.
func (d *Device) Read(md blockdev.MinidiskID, lba int, buf []byte) error {
	d.e.Lock()
	defer d.e.Unlock()
	if err := d.checkAddr(md, lba, buf); err != nil {
		return err
	}
	return d.e.Read(int64(lba), buf)
}

// --- the baseline Lifecycle (§2) ---------------------------------------------

// baseline is the Device as the engine's ftl.Lifecycle. It is a separate
// type so the policy's methods stay out of the device's exported surface.
type baseline Device

// AdmitBlock: a block whose weakest page no longer holds data at the L0 code
// rate is retired on its way out of the free pool.
func (d *baseline) AdmitBlock(block int) bool {
	if d.blockIsBad(block) {
		d.e.RetireBlock(block)
		d.maybeBrick()
		return false
	}
	return true
}

// ProgramFailed: the block is suspect and abandoned. Sealed, its
// already-written live data is relocated by GC; it retires at erase time.
func (d *baseline) ProgramFailed(ppa flash.PPA, _ []ftl.BufEntry) bool {
	d.suspect[ppa.Block] = true
	return true
}

// Erased: bad-block remap. Suspect blocks and blocks that died of wear
// retire instead of rejoining the free pool; their live data was relocated
// before the erase.
func (d *baseline) Erased(block int, err error) {
	if err != nil || d.suspect[block] || d.blockIsBad(block) {
		delete(d.suspect, block)
		d.e.RetireBlock(block)
		d.maybeBrick()
		return
	}
	d.e.FreeBlock(block)
}

// Exhausted: a full device with nothing left to reclaim has failed.
func (d *baseline) Exhausted() { d.brick() }

// blockIsBad applies the baseline block-granular health rule.
func (d *baseline) blockIsBad(id int) bool {
	arr := d.e.Array()
	if arr.BlockDead(id) {
		return true
	}
	for p := 0; p < arr.Geometry().PagesPerBlock; p++ {
		if arr.PageTiredness(flash.PPA{Block: id, Page: p}) > 0 {
			return true
		}
	}
	return false
}

func (d *baseline) maybeBrick() {
	frac := float64(d.e.BadBlocks()) / float64(d.e.Array().Geometry().TotalBlocks())
	if frac > d.cfg.BrickThreshold {
		d.brick()
	}
}

func (d *baseline) brick() {
	if d.e.Dead() {
		return
	}
	d.e.MarkDead()
	d.e.Trace(telemetry.Event{Kind: telemetry.KindMinidiskRetire, Detail: "brick"})
	if d.notify != nil {
		d.notify(blockdev.Event{Kind: blockdev.EventBrick})
	}
}

var _ blockdev.Device = (*Device)(nil)
