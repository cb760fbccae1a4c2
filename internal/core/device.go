// Package core implements the Salamander device — the paper's primary
// contribution. A Salamander SSD exposes its capacity as many small
// minidisks (§3.2) instead of one monolithic volume, tracks per-fPage
// tiredness (§3.1), decommissions a minidisk's worth of capacity when worn
// pages can no longer cover the logical space (§3.3, Eq. 2), and — in RegenS
// mode — regenerates brand-new minidisks from retired pages running at lower
// code rates (§3.4).
//
// # Page life cycle
//
// Every fPage is in one of three states:
//
//   - serving: available for programs at its service level L (it stores
//     4-L oPages; the remaining L oPages hold extra ECC),
//   - limbo: too worn for its previous service level; waiting either to be
//     regenerated at a higher level (RegenS) or forever retired (ShrinkS),
//   - dead: beyond the maximum usable level.
//
// Tiredness is re-evaluated when a block is erased — the only time NAND wear
// advances — so state transitions never require relocating live data: the
// garbage collector has already drained the block. The capacity check of
// Eq. 2 runs after every transition; when serving capacity no longer covers
// the live LBAs plus reserve, a victim minidisk is decommissioned and the
// host notified so the distributed layer can re-replicate (the paper's
// ShrinkS flow). When enough limbo capacity accumulates at a usable level,
// a new minidisk is created from it (the RegenS flow, Fig. 1 b3–b4).
//
// One deliberate simplification, documented in DESIGN.md: each fPage is
// programmed at its own service level, so a minidisk's data may span levels;
// the minidisk's Tiredness field is the capacity class it was created at
// (0 for original disks, j for disks regenerated from level-j pages). The
// paper makes the same uniformity assumption "for simplicity" in §3.4.
//
// The data path — mapping, write buffer, GC, the level-aware ECC read path
// and the per-page state table — is the shared engine of internal/ftl; this
// package is the Salamander Lifecycle on top of it (lifecycle.go) plus the
// minidisk directory, Eq. 2, scrubbing, invariants and persistence.
package core

import (
	"fmt"

	"salamander/internal/blockdev"
	"salamander/internal/faultinject"
	"salamander/internal/flash"
	"salamander/internal/ftl"
	"salamander/internal/rber"
	"salamander/internal/sim"
	"salamander/internal/telemetry"
)

// Config parameterizes a Salamander device.
type Config struct {
	Flash flash.Config
	// MSizeOPages is the minidisk size in 4KB oPages (§3.2 suggests 1MB,
	// i.e. 256 oPages).
	MSizeOPages int
	// OverProvision is the fraction of raw capacity reserved for GC
	// headroom and never exported as minidisks.
	OverProvision float64
	// GCLowWater triggers garbage collection when the free pool drops to
	// this many blocks.
	GCLowWater int
	// MaxLevel is the highest tiredness level pages may serve at:
	// 0 selects ShrinkS (worn pages retire outright), 1..3 select RegenS
	// limited to that level. The paper recommends L < 2 (§4), so RegenS
	// defaults to 1.
	MaxLevel int
	// GraceDecommission enables §4.3's future-work flow: a decommissioned
	// minidisk first drains — writes are rejected but its data stays
	// readable — until the host confirms re-replication by calling
	// Release. Requires the reserve to cover at least two minidisks of
	// transiently retained data.
	GraceDecommission bool
	// RealECC enables the real BCH data path.
	RealECC bool
	// MaxReadRetries is how many times a failed page read is retried
	// (modeling §2's iterative voltage adjustment: each retry re-senses
	// the cells and pays another full read latency). Zero means a single
	// attempt with no retries; negative is rejected at construction.
	MaxReadRetries int
	// WearLevelSpread triggers static wear leveling: when the P/E spread
	// between the hottest and coldest sealed blocks exceeds this many
	// cycles, the coldest block is recycled even if fully valid, putting
	// its cold data on hot blocks. Zero disables.
	WearLevelSpread uint32
	Seed            uint64
}

// DefaultConfig returns a RegenS data-path device with 1MB minidisks.
func DefaultConfig() Config {
	return Config{
		Flash:           flash.DefaultConfig(),
		MSizeOPages:     256,
		OverProvision:   0.07,
		GCLowWater:      3,
		MaxLevel:        1,
		RealECC:         true,
		MaxReadRetries:  2,
		WearLevelSpread: 64,
		Seed:            17,
	}
}

type mdState uint8

const (
	mdLive mdState = iota
	mdDraining
	mdDead
)

type minidisk struct {
	info  blockdev.MinidiskInfo
	state mdState
}

// Counters snapshots device activity.
type Counters struct {
	HostReads, HostWrites   uint64
	FlashReads, FlashWrites uint64
	GCRelocations           uint64
	Uncorrectable           uint64
	LostOPages              uint64
	Decommissions           uint64
	Regenerations           uint64
	Drains, Releases        uint64
	ReadRetries             uint64
	RetrySaves              uint64 // reads rescued by a retry
	WearLevelMoves          uint64 // cold blocks recycled by static WL
}

// devTele holds the registry-backed handles of the instruments only a
// Salamander device has; the engine owns the ones every device counts.
type devTele struct {
	decommissions, regenerations *telemetry.Counter
	drains, releases             *telemetry.Counter
	servingSlots, capacityFr     *telemetry.Gauge
}

func bindTele(reg *telemetry.Registry) devTele {
	return devTele{
		decommissions: reg.Counter("core.decommissions"),
		regenerations: reg.Counter("core.regenerations"),
		drains:        reg.Counter("core.drains"),
		releases:      reg.Counter("core.releases"),
		servingSlots:  reg.Gauge("core.serving_slots"),
		capacityFr:    reg.Gauge("core.capacity_frac"),
	}
}

func (t *devTele) counters() []*telemetry.Counter {
	return []*telemetry.Counter{t.decommissions, t.regenerations, t.drains, t.releases}
}

// Device is a Salamander SSD: the minidisk directory and the Salamander
// Lifecycle over an ftl.Engine. All exported entry points are safe for
// concurrent use: the engine's device lock serializes host I/O, GC,
// tiredness transitions, and lifecycle events (ShrinkS/RegenS), so their
// compound invariants hold without fine-grained ordering rules. Lock order
// is device -> flash channel. Notify handlers run with the device lock held
// and must not call back into the device (the blockdev contract).
type Device struct {
	cfg Config
	e   *ftl.Engine

	mdisks   []*minidisk // index = MinidiskID; never reused
	liveLBAs int
	reserve  int
	barren   []int // erased blocks with zero serving capacity, parked

	notify func(blockdev.Event)

	// Host-event failpoints (nil = no fault injection).
	fiEvDrop *faultinject.Site // "core.event.drop"
	fiEvDup  *faultinject.Site // "core.event.duplicate"

	tele devTele
}

// New builds a Salamander device on a fresh flash array.
func New(cfg Config, eng *sim.Engine) (*Device, error) {
	switch {
	case cfg.MSizeOPages <= 0:
		return nil, fmt.Errorf("core: minidisk size %d must be positive", cfg.MSizeOPages)
	case cfg.OverProvision <= 0 || cfg.OverProvision >= 1:
		return nil, fmt.Errorf("core: over-provisioning %v out of (0,1)", cfg.OverProvision)
	case cfg.MaxLevel < 0 || cfg.MaxLevel > rber.MaxUsableLevel:
		return nil, fmt.Errorf("core: MaxLevel %d out of [0,%d]", cfg.MaxLevel, rber.MaxUsableLevel)
	}
	d := &Device{cfg: cfg, tele: bindTele(telemetry.NewRegistry())}
	e, err := ftl.New(ftl.Config{
		Layer: "core", Flash: cfg.Flash, GCLowWater: cfg.GCLowWater, RealECC: cfg.RealECC,
		MaxReadRetries: cfg.MaxReadRetries, WearLevelSpread: cfg.WearLevelSpread, Seed: cfg.Seed,
	}, eng, (*salamander)(d))
	if err != nil {
		return nil, err
	}
	d.e = e
	total := e.ServingSlots()
	// Like the baseline, the reserve covers both the percentage headroom
	// and GC's block-granular working set on small devices.
	d.reserve = int(float64(total)*cfg.OverProvision) + 1
	if minRes := 4 * e.Array().Geometry().PagesPerBlock * rber.OPagesPerFPage; d.reserve < minRes {
		d.reserve = minRes
	}
	n := (total - d.reserve) / cfg.MSizeOPages
	if n < 1 {
		return nil, fmt.Errorf("core: device too small for even one %d-oPage minidisk", cfg.MSizeOPages)
	}
	if cfg.GraceDecommission && d.reserve < 2*cfg.MSizeOPages {
		return nil, fmt.Errorf("core: grace decommissioning needs reserve >= 2 minidisks (%d < %d)",
			d.reserve, 2*cfg.MSizeOPages)
	}
	for i := 0; i < n; i++ {
		d.mdisks = append(d.mdisks, &minidisk{
			info: blockdev.MinidiskInfo{ID: blockdev.MinidiskID(i), LBAs: cfg.MSizeOPages, Tiredness: 0},
		})
	}
	d.liveLBAs = n * cfg.MSizeOPages
	return d, nil
}

func packKey(md blockdev.MinidiskID, lba int) int64 {
	return int64(md)<<24 | int64(lba)
}

// --- host interface --------------------------------------------------------

// Engine returns the simulation engine the device advances.
func (d *Device) Engine() *sim.Engine { return d.e.Clock() }

// Delay advances the device clock by dt under the device lock.
func (d *Device) Delay(dt sim.Time) { d.e.Delay(dt) }

// Array exposes the underlying flash for inspection.
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
		LostOPages:     c.LostOPages,
		Decommissions:  d.tele.decommissions.Value(),
		Regenerations:  d.tele.regenerations.Value(),
		Drains:         d.tele.drains.Value(),
		Releases:       d.tele.releases.Value(),
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
	old := d.tele
	d.tele = bindTele(d.e.Instrument(reg, tr))
	ftl.CarryCounters(d.tele.counters(), old.counters())
	d.updateGauges()
}

// updateGauges refreshes the capacity gauges from device state.
func (d *Device) updateGauges() {
	d.tele.servingSlots.Set(float64(d.e.ServingSlots()))
	d.tele.capacityFr.Set(d.e.CapacityFrac())
}

// InjectFaults attaches a failpoint registry: the registry clock is bound to
// the device engine, the flash sites are threaded into the array, and the
// host-event delivery sites "core.event.drop" and "core.event.duplicate" are
// resolved. Pass nil to detach. One registry per device (clocks are
// per-device); instrument each registry into a shared telemetry registry for
// the fleet view.
func (d *Device) InjectFaults(fr *faultinject.Registry) {
	d.e.Lock()
	defer d.e.Unlock()
	d.e.InjectFaults(fr)
	d.fiEvDrop, d.fiEvDup = nil, nil
	if fr != nil {
		d.fiEvDrop = fr.Site("core.event.drop")
		d.fiEvDup = fr.Site("core.event.duplicate")
	}
}

// Retired reports whether the device has shrunk to nothing (or failed).
func (d *Device) Retired() bool {
	d.e.Lock()
	defer d.e.Unlock()
	return d.e.Dead()
}

// Reserve returns the over-provisioning reserve in oPages.
func (d *Device) Reserve() int { return d.reserve }

// ServingSlots returns the current serving capacity in oPages (Eq. 1's
// total across levels).
func (d *Device) ServingSlots() int {
	d.e.Lock()
	defer d.e.Unlock()
	return d.e.ServingSlots()
}

// LiveLBAs returns the exported logical capacity in oPages.
func (d *Device) LiveLBAs() int {
	d.e.Lock()
	defer d.e.Unlock()
	return d.liveLBAs
}

// LimboPages returns the number of limbo fPages at each tiredness level.
func (d *Device) LimboPages() [rber.MaxUsableLevel + 1]int {
	d.e.Lock()
	defer d.e.Unlock()
	return d.e.Limbo()
}

// Wear implements blockdev.WearReporter: the Salamander device's media-wear
// self-report for the fleet ops surface. Correction tallies are per device
// (registry counters are fleet-shared once the device is instrumented).
func (d *Device) Wear() blockdev.WearInfo {
	d.e.Lock()
	defer d.e.Unlock()
	w := d.e.Wear()
	limbo := d.e.Limbo()
	w.LimboPages = append([]int(nil), limbo[:]...)
	for _, m := range d.mdisks {
		switch m.state {
		case mdLive:
			w.LiveMinidisks++
		case mdDraining:
			w.DrainingMinidisks++
		}
	}
	g := d.e.Array().Geometry()
	for b := 0; b < g.TotalBlocks(); b++ {
		for p := 0; p < g.PagesPerBlock; p++ {
			if d.e.Page(flash.PPA{Block: b, Page: p}).Status == ftl.PageDead {
				w.DeadPages++
			}
		}
	}
	// Barren blocks are this device's retired-block analogue: erased blocks
	// with zero serving capacity, parked out of the free pool.
	w.RetiredBlocks = len(d.barren)
	return w
}

// Notify implements blockdev.Device.
func (d *Device) Notify(fn func(blockdev.Event)) {
	d.e.Lock()
	defer d.e.Unlock()
	d.notify = fn
}

// emit delivers one host event through the (possibly faulty) notification
// channel: an armed "core.event.drop" site swallows the event, an armed
// "core.event.duplicate" site delivers it twice — the distributed layer must
// tolerate both (at-most-once loss, at-least-once duplication).
func (d *Device) emit(e blockdev.Event) {
	if d.fiEvDrop.Fire() {
		return
	}
	if d.notify != nil {
		d.notify(e)
	}
	if d.fiEvDup.Fire() && d.notify != nil {
		d.notify(e)
	}
}

// Minidisks implements blockdev.Device, listing live disks in ID order.
// Draining disks are excluded: they accept no writes and should receive no
// placements, though their data remains readable until Release.
func (d *Device) Minidisks() []blockdev.MinidiskInfo {
	d.e.Lock()
	defer d.e.Unlock()
	var out []blockdev.MinidiskInfo
	for _, m := range d.mdisks {
		if m.state == mdLive {
			out = append(out, m.info)
		}
	}
	return out
}

// lookupMD resolves a minidisk for an operation; forRead operations are
// also served by draining disks (the grace-period contract).
func (d *Device) lookupMD(md blockdev.MinidiskID, forRead bool) (*minidisk, error) {
	if d.e.Dead() {
		return nil, blockdev.ErrBricked
	}
	if md < 0 || int(md) >= len(d.mdisks) {
		return nil, fmt.Errorf("%w: %d", blockdev.ErrNoSuchMinidisk, md)
	}
	m := d.mdisks[md]
	switch m.state {
	case mdLive:
		return m, nil
	case mdDraining:
		if forRead {
			return m, nil
		}
		return nil, fmt.Errorf("%w: %d (draining)", blockdev.ErrNoSuchMinidisk, md)
	default:
		return nil, fmt.Errorf("%w: %d", blockdev.ErrNoSuchMinidisk, md)
	}
}

func (d *Device) checkAddr(md blockdev.MinidiskID, lba int, buf []byte, forRead bool) error {
	m, err := d.lookupMD(md, forRead)
	if err != nil {
		return err
	}
	if lba < 0 || lba >= m.info.LBAs {
		return fmt.Errorf("%w: %d (minidisk has %d)", blockdev.ErrBadLBA, lba, m.info.LBAs)
	}
	if buf != nil && len(buf) != blockdev.OPageSize {
		return blockdev.ErrBufSize
	}
	return nil
}

// Write implements blockdev.Device.
func (d *Device) Write(md blockdev.MinidiskID, lba int, buf []byte) error {
	d.e.Lock()
	defer d.e.Unlock()
	if err := d.checkAddr(md, lba, buf, false); err != nil {
		return err
	}
	return d.e.Write(packKey(md, lba), buf)
}

// Flush programs any partially filled buffer to flash.
func (d *Device) Flush() error {
	d.e.Lock()
	defer d.e.Unlock()
	return d.e.Flush()
}

// Trim implements blockdev.Device.
func (d *Device) Trim(md blockdev.MinidiskID, lba int) error {
	d.e.Lock()
	defer d.e.Unlock()
	if err := d.checkAddr(md, lba, nil, false); err != nil {
		return err
	}
	d.e.Trim(packKey(md, lba))
	return nil
}

// Read implements blockdev.Device; draining minidisks stay readable.
func (d *Device) Read(md blockdev.MinidiskID, lba int, buf []byte) error {
	d.e.Lock()
	defer d.e.Unlock()
	if err := d.checkAddr(md, lba, buf, true); err != nil {
		return err
	}
	return d.e.Read(packKey(md, lba), buf)
}

var _ blockdev.Device = (*Device)(nil)
