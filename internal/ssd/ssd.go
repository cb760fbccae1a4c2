// Package ssd implements the baseline SSD the paper compares against: a
// page-mapped FTL over the flash array, exposing one monolithic volume
// (a single minidisk, in blockdev terms). It retires flash at *block*
// granularity — a block is bad as soon as its weakest page can no longer be
// stored at the L0 code rate — and bricks the whole device once bad blocks
// exceed a small threshold (2.5% by default), exactly the life cycle §2
// describes.
package ssd

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"salamander/internal/blockdev"
	"salamander/internal/ecc"
	"salamander/internal/faultinject"
	"salamander/internal/flash"
	"salamander/internal/ftl"
	"salamander/internal/rber"
	"salamander/internal/sim"
	"salamander/internal/stats"
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
	// ParallelFlush stripes full-fPage programs across all flash channels
	// through a per-channel worker dispatcher: the write buffer accumulates
	// one fPage per channel before flushing, and the batch's virtual-time
	// cost is its cross-channel makespan instead of the serialized sum.
	// Read/GC paths are unchanged. Off by default so single-stream
	// simulations (and the chaos runner's byte-identical reports) keep the
	// serialized timing model.
	ParallelFlush bool
	Seed          uint64
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

type blockState uint8

const (
	stFree blockState = iota
	stActive
	stSealed
	stBad
)

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

// WriteAmplification returns flash oPage writes per host oPage write.
func (c Counters) WriteAmplification() float64 {
	if c.HostWrites == 0 {
		return 0
	}
	slots := c.FlashWrites * uint64(rber.OPagesPerFPage)
	return float64(slots) / float64(c.HostWrites)
}

// devTele holds the registry-backed handles behind Counters(). A fresh
// device binds them to a private registry; Instrument rebinds to a shared
// one, so Counters() is always a thin view over live telemetry values.
type devTele struct {
	hostReads, hostWrites   *telemetry.Counter
	flashReads, flashWrites *telemetry.Counter
	gcRelocations           *telemetry.Counter
	uncorrectable           *telemetry.Counter
	lostOPages              *telemetry.Counter
	readRetries, retrySaves *telemetry.Counter
	wearLevelMoves          *telemetry.Counter
	eccCorrections          *telemetry.Counter
	eccCorrectedBits        *telemetry.Counter
	eccErasureDecodes       *telemetry.Counter
	readLatency             *telemetry.Histogram
	writeLatency            *telemetry.Histogram
	tr                      *telemetry.Tracer
}

func bindTele(reg *telemetry.Registry, tr *telemetry.Tracer) devTele {
	return devTele{
		hostReads:         reg.Counter("ssd.host_reads"),
		hostWrites:        reg.Counter("ssd.host_writes"),
		flashReads:        reg.Counter("ssd.flash_reads"),
		flashWrites:       reg.Counter("ssd.flash_writes"),
		gcRelocations:     reg.Counter("ssd.gc_relocations"),
		uncorrectable:     reg.Counter("ssd.uncorrectable"),
		lostOPages:        reg.Counter("ssd.lost_opages"),
		readRetries:       reg.Counter("ssd.read_retries"),
		retrySaves:        reg.Counter("ssd.retry_saves"),
		wearLevelMoves:    reg.Counter("ssd.wear_level_moves"),
		eccCorrections:    reg.Counter("ssd.ecc_corrections"),
		eccCorrectedBits:  reg.Counter("ssd.ecc_corrected_bits"),
		eccErasureDecodes: reg.Counter("ssd.ecc_erasure_decodes"),
		readLatency:       reg.Histogram("ssd.host_read_latency_ns"),
		writeLatency:      reg.Histogram("ssd.host_write_latency_ns"),
		tr:                tr,
	}
}

// Device is a baseline SSD. All blockdev entry points are safe for
// concurrent use: a single device mutex serializes FTL state transitions
// (mapping, GC, allocation), while the flash array underneath does its own
// per-channel locking so dispatcher workers can program channels in
// parallel during a flush. Lock order is device -> flash channel; nothing
// holding a channel lock ever takes the device lock.
type Device struct {
	mu    sync.Mutex
	cfg   Config
	arr   *flash.Array
	eng   *sim.Engine
	model *rber.Model
	rng   *stats.RNG

	geom  ecc.SectorGeometry // L0 sector geometry
	codec *ecc.Code          // nil unless RealECC

	table  *ftl.Table
	valid  *ftl.ValidMap
	free   ftl.FreePool
	wbuf   *ftl.WriteBuffer
	state  []blockState
	active int // current host write block, -1 if none
	nextPg int // next page to program in active block
	gcBlk  int // dedicated GC relocation block, -1 if none
	gcPg   int // next page in the GC block

	lost map[int64]bool // LBAs whose data was lost during GC

	// suspect marks blocks that took a program failure: they are sealed so GC
	// relocates their live data, then retired (not recycled) at erase time —
	// the baseline's bad-block remap path for transient program faults.
	suspect map[int]bool
	fr      *faultinject.Registry // nil unless InjectFaults was called

	lbas    int // exported capacity in oPages
	slotsPP int // oPages per fPage
	spb     int // sectors per oPage
	bricked bool
	inGC    bool
	notify  func(blockdev.Event)
	tele    devTele

	// Device-local wear tallies for the /wear ops report (registry counters
	// are fleet-shared once instrumented). The baseline decodes everything at
	// level 0, so a single correction counter suffices.
	wearCorr atomic.Uint64
	wearBits atomic.Uint64

	// Data-path scratch, guarded by mu like the rest of the FTL state:
	// readBuf receives raw pages from flash.ReadInto and pageBuf is the
	// serial compose target (flash.Program copies, so one buffer serves
	// every program). Both are nil in metadata-only mode.
	readBuf []byte
	pageBuf []byte
	// eraPos is the per-sector erasure-candidate scratch: grown stuck-column
	// positions from flash, remapped to codeword bit indices for
	// DecodeWithErasures without allocating per read.
	eraPos []int

	// Channel-parallel flush state (nil/empty unless Config.ParallelFlush).
	disp       *flash.Dispatcher
	parActive  []int    // per-channel open write block, -1 if none
	parPg      []int    // next page within each channel's open block
	stripeBufs [][]byte // per-channel compose buffers for flushStripe
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
	if cfg.GCLowWater < 2 {
		return nil, fmt.Errorf("ssd: GC low water must be >= 2 (GC itself needs a free block)")
	}
	if cfg.MaxReadRetries < 0 {
		return nil, fmt.Errorf("ssd: MaxReadRetries %d is negative (0 means no retries)", cfg.MaxReadRetries)
	}
	if !cfg.RealECC {
		// Analytic ECC: a modeled decode success means the raw errors were
		// corrected, so reads must hand back pristine stored bytes.
		cfg.Flash.PristineReads = true
	}
	arr, err := flash.New(cfg.Flash)
	if err != nil {
		return nil, err
	}
	g := arr.Geometry()
	d := &Device{
		cfg:     cfg,
		arr:     arr,
		eng:     eng,
		model:   arr.Model(),
		rng:     stats.NewRNG(cfg.Seed),
		geom:    rber.LevelGeometry(0),
		table:   ftl.NewTable(),
		valid:   ftl.NewValidMap(g.TotalBlocks(), g.PagesPerBlock, g.PageSize/rber.OPageSize),
		wbuf:    ftl.NewWriteBuffer(),
		state:   make([]blockState, g.TotalBlocks()),
		active:  -1,
		gcBlk:   -1,
		lost:    map[int64]bool{},
		suspect: map[int]bool{},
		slotsPP: g.PageSize / rber.OPageSize,
		spb:     rber.OPageSize / rber.SectorSize,
		tele:    bindTele(telemetry.NewRegistry(), nil),
	}
	if cfg.RealECC {
		if !cfg.Flash.StoreData {
			return nil, errors.New("ssd: RealECC requires Flash.StoreData")
		}
		code, err := d.geom.Build()
		if err != nil {
			return nil, err
		}
		d.codec = code
		d.eraPos = make([]int, 0, 16)
	}
	totalOPages := g.TotalPages() * d.slotsPP
	// The reserve must cover GC's block-granular working set (active block,
	// GC block, allocation headroom) even on tiny devices where a
	// percentage would round down to less than a block or two.
	reserve := int(float64(totalOPages) * cfg.OverProvision)
	if minRes := 4 * g.PagesPerBlock * d.slotsPP; reserve < minRes {
		reserve = minRes
	}
	d.lbas = totalOPages - reserve
	if d.lbas <= 0 {
		return nil, errors.New("ssd: device too small for its over-provisioning reserve")
	}
	for b := 0; b < g.TotalBlocks(); b++ {
		d.free.Put(b, 0)
	}
	if cfg.Flash.StoreData {
		d.readBuf = make([]byte, g.RawPageBytes())
		d.pageBuf = make([]byte, g.RawPageBytes())
	}
	if cfg.ParallelFlush {
		d.disp = flash.NewDispatcher(arr, 0)
		d.parActive = make([]int, g.Channels)
		d.parPg = make([]int, g.Channels)
		for ch := range d.parActive {
			d.parActive[ch] = -1
		}
		if cfg.Flash.StoreData {
			// The dispatcher programs all channels of a stripe concurrently,
			// so each channel needs its own compose buffer.
			d.stripeBufs = make([][]byte, g.Channels)
			for ch := range d.stripeBufs {
				d.stripeBufs[ch] = make([]byte, g.RawPageBytes())
			}
		}
	}
	return d, nil
}

// Close stops the per-channel dispatcher workers, if any. The device must
// not be used afterwards. Safe to call on a serial-mode device.
func (d *Device) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.disp != nil {
		d.disp.Close()
		d.disp = nil
	}
}

// LBAs returns the exported logical capacity in oPages.
func (d *Device) LBAs() int { return d.lbas }

// Engine returns the simulation engine the device advances.
func (d *Device) Engine() *sim.Engine { return d.eng }

// Counters returns an activity snapshot. The struct is a thin view built
// from the device's registry-backed telemetry handles at call time;
// mutating the returned value has no effect on the live device.
func (d *Device) Counters() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Counters{
		HostReads:      d.tele.hostReads.Value(),
		HostWrites:     d.tele.hostWrites.Value(),
		FlashReads:     d.tele.flashReads.Value(),
		FlashWrites:    d.tele.flashWrites.Value(),
		GCRelocations:  d.tele.gcRelocations.Value(),
		Uncorrectable:  d.tele.uncorrectable.Value(),
		BadBlocks:      d.badBlocks(),
		LostOPages:     d.tele.lostOPages.Value(),
		ReadRetries:    d.tele.readRetries.Value(),
		RetrySaves:     d.tele.retrySaves.Value(),
		WearLevelMoves: d.tele.wearLevelMoves.Value(),
	}
}

// Instrument rebinds the device's counters to the given shared registry and
// attaches a tracer, and instruments the underlying flash array with the
// same pair. Accumulated counter values carry over; histograms start empty,
// so instrument at startup for complete latency distributions. A nil
// registry detaches back onto a private one.
func (d *Device) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	old := d.tele
	d.tele = bindTele(reg, tr)
	carry := func(dst, src *telemetry.Counter) {
		if dst != src {
			dst.Add(src.Value())
		}
	}
	carry(d.tele.hostReads, old.hostReads)
	carry(d.tele.hostWrites, old.hostWrites)
	carry(d.tele.flashReads, old.flashReads)
	carry(d.tele.flashWrites, old.flashWrites)
	carry(d.tele.gcRelocations, old.gcRelocations)
	carry(d.tele.uncorrectable, old.uncorrectable)
	carry(d.tele.lostOPages, old.lostOPages)
	carry(d.tele.readRetries, old.readRetries)
	carry(d.tele.retrySaves, old.retrySaves)
	carry(d.tele.wearLevelMoves, old.wearLevelMoves)
	carry(d.tele.eccCorrections, old.eccCorrections)
	carry(d.tele.eccCorrectedBits, old.eccCorrectedBits)
	carry(d.tele.eccErasureDecodes, old.eccErasureDecodes)
	d.arr.Instrument(reg, tr)
}

// InjectFaults attaches a failpoint registry: the registry's clock is bound
// to the device engine and its flash sites are threaded into the array. Pass
// nil to detach. One registry per device (clocks are per-device); instrument
// the registry into a shared telemetry registry for the fleet view.
func (d *Device) InjectFaults(fr *faultinject.Registry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fr = fr
	if fr != nil {
		fr.SetClock(func() sim.Time { return d.eng.Now() })
	}
	d.arr.InjectFaults(fr)
}

// Bricked reports whether the device has failed.
func (d *Device) Bricked() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bricked
}

// Wear implements blockdev.WearReporter: the baseline device's media-wear
// self-report for the fleet ops surface. The baseline has no tiredness
// levels, so corrections report as a single level-0 entry, and its
// retired-block count is the bad-block remap population.
func (d *Device) Wear() blockdev.WearInfo {
	d.mu.Lock()
	suspect := len(d.suspect)
	bad := d.badBlocks()
	bricked := d.bricked
	d.mu.Unlock()
	st := d.arr.Stats()
	totalBlocks := d.arr.Geometry().TotalBlocks()
	corr := d.wearCorr.Load()
	w := blockdev.WearInfo{
		Kind:               "ssd",
		MeanPEC:            st.MeanPEC,
		MaxPEC:             st.MaxPEC,
		RBEREstimate:       d.model.RBER(st.MeanPEC),
		Corrections:        corr,
		CorrectionsByLevel: []uint64{corr},
		CorrectedBits:      d.wearBits.Load(),
		DeadBlocks:         st.DeadBlocks,
		SuspectBlocks:      suspect,
		RetiredBlocks:      bad,
		CapacityFrac:       float64(totalBlocks-bad) / float64(totalBlocks),
		Retired:            bricked,
	}
	if !bricked {
		w.LiveMinidisks = 1
	}
	return w
}

// Array exposes the underlying flash for inspection in tests and benches.
func (d *Device) Array() *flash.Array { return d.arr }

// Notify implements blockdev.Device.
func (d *Device) Notify(fn func(blockdev.Event)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.notify = fn
}

// Minidisks implements blockdev.Device: one disk spanning the volume.
func (d *Device) Minidisks() []blockdev.MinidiskInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.bricked {
		return nil
	}
	return []blockdev.MinidiskInfo{{ID: 0, LBAs: d.lbas, Tiredness: 0}}
}

func (d *Device) badBlocks() int {
	n := 0
	for _, s := range d.state {
		if s == stBad {
			n++
		}
	}
	return n
}

func (d *Device) checkAddr(md blockdev.MinidiskID, lba int, buf []byte) error {
	if d.bricked {
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
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkAddr(md, lba, buf); err != nil {
		return err
	}
	d.tele.hostWrites.Inc()
	start := d.eng.Now()
	defer func() { d.tele.writeLatency.Observe(float64(d.eng.Now() - start)) }()
	delete(d.lost, int64(lba))
	var data []byte
	if d.cfg.Flash.StoreData {
		data = append([]byte(nil), buf...)
	}
	d.wbuf.Push(ftl.BufEntry{Key: int64(lba), Data: data})
	if d.disp != nil {
		return d.drainParallel(false)
	}
	return d.drainBuffer(false)
}

// drainBuffer programs buffered oPages while full fPages can be formed (or
// unconditionally when force is set, padding the final page). Like the
// Salamander device it makes sure a write block is open — running GC when
// the free pool is low — before it looks at how much is buffered.
func (d *Device) drainBuffer(force bool) error {
	for d.wbuf.Len() > 0 {
		if d.bricked {
			return blockdev.ErrBricked
		}
		if err := d.ensureActive(); err != nil {
			return err
		}
		if d.wbuf.Len() < d.slotsPP && !force {
			return nil
		}
		if err := d.programPage(d.wbuf.PopN(d.slotsPP)); err != nil {
			return err
		}
	}
	return nil
}

// Flush programs any partially filled buffer to flash, padding unused slots.
func (d *Device) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.disp != nil {
		if err := d.drainParallel(true); err != nil {
			return err
		}
	}
	return d.drainBuffer(true)
}

// Trim implements blockdev.Device.
func (d *Device) Trim(md blockdev.MinidiskID, lba int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkAddr(md, lba, nil); err != nil {
		return err
	}
	key := int64(lba)
	d.wbuf.Drop(key)
	delete(d.lost, key)
	if prev, had := d.table.Delete(key); had {
		d.valid.Clear(prev)
	}
	return nil
}

// Read implements blockdev.Device. Unwritten LBAs read zeros.
func (d *Device) Read(md blockdev.MinidiskID, lba int, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkAddr(md, lba, buf); err != nil {
		return err
	}
	d.tele.hostReads.Inc()
	start := d.eng.Now()
	defer func() { d.tele.readLatency.Observe(float64(d.eng.Now() - start)) }()
	key := int64(lba)
	if d.lost[key] {
		return blockdev.ErrUncorrectable
	}
	if data, ok := d.wbuf.Contains(key); ok {
		if data != nil {
			copy(buf, data)
		} else {
			zero(buf)
		}
		return nil
	}
	addr, ok := d.table.Lookup(key)
	if !ok {
		zero(buf)
		return nil
	}
	// Decode straight into the host buffer: the whole clean-read path —
	// flash ReadInto into the device's readBuf, per-sector Check/Decode from
	// the codec's scratch pool, corrected bytes into buf — allocates nothing.
	filled, err := d.readOPageInto(addr, buf)
	if err != nil {
		return err
	}
	if !filled {
		zero(buf)
	}
	return nil
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// readOPage fetches one oPage into a freshly allocated buffer the caller
// owns. GC relocation uses this: the moved entries retain their data until
// the relocated page programs, so they cannot share the device scratch.
func (d *Device) readOPage(addr ftl.OPageAddr) ([]byte, error) {
	var dst []byte
	if d.cfg.Flash.StoreData {
		dst = make([]byte, rber.OPageSize)
	}
	filled, err := d.readOPageInto(addr, dst)
	if err != nil {
		return nil, err
	}
	if !filled {
		return nil, nil
	}
	return dst, nil
}

// readOPageInto fetches and (if RealECC) decodes one oPage from flash into
// dst (len rber.OPageSize; ignored in metadata-only mode), counting the
// read toward the sim clock and retrying failed reads up to MaxReadRetries
// times (each retry re-senses the page and pays another full read latency —
// §2's iterative voltage adjustment). filled reports whether dst holds the
// oPage; it is false in metadata-only mode.
func (d *Device) readOPageInto(addr ftl.OPageAddr, dst []byte) (bool, error) {
	filled, injected, err := d.readOPageOnce(addr, dst)
	sawInjected := injected
	for attempt := 0; errors.Is(err, blockdev.ErrUncorrectable) && attempt < d.cfg.MaxReadRetries; attempt++ {
		d.tele.readRetries.Inc()
		filled, injected, err = d.readOPageOnce(addr, dst)
		sawInjected = sawInjected || injected
		if err == nil {
			d.tele.retrySaves.Inc()
			if sawInjected {
				d.fr.Recovered("ssd")
			}
		}
	}
	return filled, err
}

// readOPageOnce performs a single read attempt: the raw page lands in the
// device's readBuf, sectors are corrected there in place, and the corrected
// payload is copied into dst. injected reports whether the attempt hit an
// injected transient read failure.
func (d *Device) readOPageOnce(addr ftl.OPageAddr, dst []byte) (filled, injected bool, err error) {
	transfer := rber.OPageSize
	if d.codec != nil {
		transfer += d.spb * d.codec.ParityBytes()
	}
	res, err := d.arr.ReadInto(addr.PPA, transfer, d.readBuf)
	if err != nil {
		return false, false, fmt.Errorf("blockdev: %w", err)
	}
	d.tele.flashReads.Inc()
	d.eng.Advance(res.Duration)
	if d.codec == nil {
		// Analytic path: each of the oPage's sectors fails independently
		// with the model's uncorrectable probability at this RBER.
		pFail := d.geom.UncorrectableProb(res.RBER)
		for s := 0; s < d.spb; s++ {
			if d.rng.Float64() < pFail {
				d.tele.uncorrectable.Inc()
				return false, res.Injected, blockdev.ErrUncorrectable
			}
		}
		if res.Data == nil {
			return false, res.Injected, nil // metadata-only mode
		}
		off := addr.Slot * rber.OPageSize
		copy(dst, res.Data[off:off+rber.OPageSize])
		return true, res.Injected, nil
	}
	pb := d.codec.ParityBytes()
	for s := 0; s < d.spb; s++ {
		sectorGlobal := addr.Slot*d.spb + s
		dataOff := addr.Slot*rber.OPageSize + s*rber.SectorSize
		parityOff := d.arr.Geometry().PageSize + sectorGlobal*pb
		sector := res.Data[dataOff : dataOff+rber.SectorSize]
		parity := res.Data[parityOff : parityOff+pb]
		var bits int
		var err error
		if cand := d.sectorErasures(res.Stuck, dataOff, parityOff, pb); len(cand) > 0 {
			// Wear tracking knows this block's grown stuck bit-lines: hand
			// them to the codec as erasure candidates so a hit skips the
			// full Chien scan. A miss falls back inside the codec.
			bits, err = d.codec.DecodeWithErasures(sector, parity, cand)
			d.tele.eccErasureDecodes.Inc()
		} else {
			bits, err = d.codec.Decode(sector, parity)
		}
		if err != nil {
			d.tele.uncorrectable.Inc()
			return false, res.Injected, blockdev.ErrUncorrectable
		}
		if bits > 0 {
			d.tele.eccCorrections.Inc()
			d.tele.eccCorrectedBits.Add(uint64(bits))
			d.wearCorr.Add(1)
			d.wearBits.Add(uint64(bits))
			d.tele.tr.Emit(telemetry.Event{
				T: d.eng.Now(), Kind: telemetry.KindEccCorrection, Layer: "ssd",
				Block: addr.PPA.Block, Page: addr.PPA.Page, N: int64(bits),
			})
		}
		copy(dst[s*rber.SectorSize:], sector)
	}
	return true, res.Injected, nil
}

// sectorErasures remaps raw-page stuck bit offsets (LSB-first within each
// byte, flash's convention) into codeword bit indices (MSB-first, data bits
// then parity bits, the codec's convention) for the sector whose data bytes
// span [dataOff, dataOff+SectorSize) and parity bytes
// [parityOff, parityOff+pb) of the raw page. Offsets landing in other
// sectors are dropped; parity offsets past the code's R bits (padding in
// the final parity byte) are dropped too. The result reuses the device
// scratch and stays distinct because the stuck positions are distinct.
func (d *Device) sectorErasures(stuck []int, dataOff, parityOff, pb int) []int {
	if len(stuck) == 0 {
		return nil
	}
	cand := d.eraPos[:0]
	for _, bit := range stuck {
		byteOff, cwBit := bit/8, 7-bit%8
		switch {
		case byteOff >= dataOff && byteOff < dataOff+rber.SectorSize:
			cand = append(cand, (byteOff-dataOff)*8+cwBit)
		case byteOff >= parityOff && byteOff < parityOff+pb:
			if cw := d.codec.K + (byteOff-parityOff)*8 + cwBit; cw < d.codec.N {
				cand = append(cand, cw)
			}
		}
	}
	d.eraPos = cand
	return cand
}

// flushOne programs one fPage from the write buffer.
func (d *Device) flushOne() error {
	if err := d.ensureActive(); err != nil {
		return err
	}
	entries := d.wbuf.PopN(d.slotsPP)
	return d.programPage(entries)
}

// maxProgramRetries bounds how many fresh blocks one fPage program may burn
// through after program failures before the write is surfaced as an error.
const maxProgramRetries = 4

// programPage writes the entries into the next page of the active block. A
// program failure (transient, injected) consumes the page: the active block
// is abandoned as suspect — sealed so GC relocates its already-written live
// data, then retired at erase time — and the entries retry in a fresh block.
func (d *Device) programPage(entries []ftl.BufEntry) error {
	for attempt := 0; ; attempt++ {
		ppa := flash.PPA{Block: d.active, Page: d.nextPg}
		var raw []byte
		if d.cfg.Flash.StoreData {
			raw = d.composePageInto(d.pageBuf, entries)
		}
		dur, err := d.arr.Program(ppa, raw)
		if err != nil {
			if !errors.Is(err, flash.ErrProgramFailed) || attempt >= maxProgramRetries {
				return fmt.Errorf("blockdev: %w", err)
			}
			d.tele.flashWrites.Inc()
			d.eng.Advance(dur)
			d.suspect[d.active] = true
			d.state[d.active] = stSealed
			d.active = -1
			if err := d.ensureActive(); err != nil {
				return err
			}
			continue
		}
		d.tele.flashWrites.Inc()
		d.eng.Advance(dur)
		for slot, e := range entries {
			addr := ftl.OPageAddr{PPA: ppa, Slot: slot}
			if prev, had := d.table.Update(e.Key, addr); had {
				d.valid.Clear(prev)
			}
			d.valid.Set(addr, e.Key)
		}
		d.nextPg++
		if d.nextPg == d.arr.Geometry().PagesPerBlock {
			d.state[d.active] = stSealed
			d.active = -1
		}
		if attempt > 0 {
			d.fr.Recovered("ssd")
		}
		return nil
	}
}

// composePageInto lays out entries' data and per-sector BCH parity into dst
// (data area then spare area), returning the raw page slice. dst must hold
// RawPageBytes; serial callers pass the device's pageBuf scratch —
// flash.Program copies, so one buffer serves every program — and the
// parallel flush path passes per-channel stripe buffers. Parity generation
// goes through the codec's shared EncodeSectors helper (the same loop the
// core device's level-aware compose uses).
func (d *Device) composePageInto(dst []byte, entries []ftl.BufEntry) []byte {
	g := d.arr.Geometry()
	raw := dst[:g.RawPageBytes()]
	zero(raw)
	for slot, e := range entries {
		if e.Data != nil {
			copy(raw[slot*rber.OPageSize:], e.Data)
		}
	}
	if d.codec != nil {
		if err := d.codec.EncodeSectors(raw, g.PageSize, rber.SectorSize); err != nil {
			panic(err) // geometry is fixed at construction; cannot fail
		}
	}
	return raw
}

// allocBlock takes a healthy block from the free pool, retiring bad blocks
// it encounters on the way (baseline block-granular retirement: a block is
// bad the moment its weakest page can no longer hold data at the L0 code
// rate).
func (d *Device) allocBlock(forGC bool) (int, bool) {
	for {
		// The last free block is reserved for garbage collection: GC must
		// always have a destination, or a full device deadlocks with
		// reclaimable space it cannot reach.
		if !forGC && d.free.Len() < 2 {
			return -1, false
		}
		id, ok := d.free.Get()
		if !ok {
			return -1, false
		}
		if d.blockIsBad(id) {
			d.state[id] = stBad
			if d.maybeBrick() {
				return -1, false
			}
			continue
		}
		return id, true
	}
}

// maxGCPerAlloc bounds how many background collections a single allocation
// attempt may trigger, so one host write on a near-full device cannot sweep
// the whole array.
const maxGCPerAlloc = 4

// ensureActive guarantees an open host write block, running GC as needed to
// keep the free pool above the low-water mark.
func (d *Device) ensureActive() error {
	if d.bricked {
		return blockdev.ErrBricked
	}
	for i := 0; i < maxGCPerAlloc && d.free.Len() <= d.cfg.GCLowWater; i++ {
		if err := d.collect(); err != nil {
			if errors.Is(err, errNoVictim) {
				break // nothing reclaimable right now
			}
			return err
		}
		if d.bricked {
			return blockdev.ErrBricked
		}
	}
	if d.active >= 0 {
		return nil
	}
	id, ok := d.allocBlock(false)
	for !ok {
		if d.bricked {
			return blockdev.ErrBricked
		}
		// Desperate path: compact until a block frees up. Each collection
		// removes at least one invalid slot, so this terminates — either
		// with space or with a genuinely full device.
		if err := d.collect(); err != nil {
			d.brick()
			return blockdev.ErrDeviceFull
		}
		if d.free.Len() > 1 {
			id, ok = d.allocBlock(false)
		}
	}
	d.state[id] = stActive
	d.active = id
	d.nextPg = 0
	return nil
}

// blockIsBad applies the baseline block-granular health rule.
func (d *Device) blockIsBad(id int) bool {
	if d.arr.BlockDead(id) {
		return true
	}
	g := d.arr.Geometry()
	for p := 0; p < g.PagesPerBlock; p++ {
		if d.arr.PageTiredness(flash.PPA{Block: id, Page: p}) > 0 {
			return true
		}
	}
	return false
}

func (d *Device) maybeBrick() bool {
	frac := float64(d.badBlocks()) / float64(d.arr.Geometry().TotalBlocks())
	if frac > d.cfg.BrickThreshold {
		d.brick()
		return true
	}
	return false
}

func (d *Device) brick() {
	if d.bricked {
		return
	}
	d.bricked = true
	d.tele.tr.Emit(telemetry.Event{
		T: d.eng.Now(), Kind: telemetry.KindMinidiskRetire, Layer: "ssd",
		Detail: "brick",
	})
	if d.notify != nil {
		d.notify(blockdev.Event{Kind: blockdev.EventBrick})
	}
}

var errNoVictim = errors.New("ssd: no GC victim available")

// pickVictim chooses the next GC victim: greedily the minimum-valid sealed
// block with reclaimable (invalid) space — collecting a fully valid block
// would burn a P/E cycle for zero gain — unless the P/E spread between
// hottest and coldest sealed blocks exceeds the static wear-leveling
// threshold, in which case the coldest block is recycled regardless so cold
// data stops pinning young blocks.
func (d *Device) pickVictim() (int, bool) {
	if d.cfg.WearLevelSpread > 0 {
		coldest := -1
		var minPEC, maxPEC uint32
		first := true
		for b, st := range d.state {
			if st != stSealed {
				continue
			}
			pec := d.arr.BlockPEC(b)
			if first || pec < minPEC {
				coldest, minPEC = b, pec
			}
			if first || pec > maxPEC {
				maxPEC = pec
			}
			first = false
		}
		if coldest >= 0 && maxPEC-minPEC > d.cfg.WearLevelSpread {
			d.tele.wearLevelMoves.Inc()
			return coldest, true
		}
	}
	slotsPerBlock := d.arr.Geometry().PagesPerBlock * d.slotsPP
	return d.valid.Victim(func(b int) bool {
		return d.state[b] == stSealed && d.valid.ValidCount(b) < slotsPerBlock
	})
}

// collect reclaims one sealed block: its live oPages are packed into full
// fPages in the dedicated GC block, any sub-page remainder spills into the
// NV write buffer (so GC never programs padded pages, which would create
// more garbage than it reclaims), and the victim is erased back into the
// free pool — or retired if it has gone bad.
func (d *Device) collect() error {
	d.inGC = true
	defer func() { d.inGC = false }()

	g := d.arr.Geometry()
	victim, ok := d.pickVictim()
	if !ok {
		return errNoVictim
	}

	// Read all live data out of the victim first.
	var moved []ftl.BufEntry
	for _, se := range d.valid.LiveSlots(victim) {
		if _, pending := d.wbuf.Contains(se.Key); pending {
			// A newer write to this LBA is sitting in the NV buffer; the
			// flash copy is stale. Drop it instead of relocating it (and
			// never let it clobber the buffered data).
			d.valid.Clear(se.Addr)
			d.table.Delete(se.Key)
			continue
		}
		data, err := d.readOPage(se.Addr)
		if err != nil {
			// Data loss inside GC: the LBA's contents are gone; surface it
			// on the next host read.
			if errors.Is(err, blockdev.ErrUncorrectable) {
				d.valid.Clear(se.Addr)
				d.table.Delete(se.Key)
				d.lost[se.Key] = true
				d.tele.lostOPages.Inc()
				continue
			}
			return err
		}
		d.tele.gcRelocations.Inc()
		moved = append(moved, ftl.BufEntry{Key: se.Key, Data: data})
	}
	d.tele.tr.Emit(telemetry.Event{
		T: d.eng.Now(), Kind: telemetry.KindGcVictim, Layer: "ftl",
		Block: victim, N: int64(len(moved)),
	})

	// Pack full fPages into the GC stream page by page, opening a new GC
	// block only when the current one is full; the remainder rides in the NV
	// buffer until host traffic (or a later GC) fills a page.
	for len(moved) > 0 {
		if d.gcBlk >= 0 && d.gcPg == g.PagesPerBlock {
			d.state[d.gcBlk] = stSealed
			d.gcBlk = -1
		}
		if d.gcBlk < 0 {
			id, ok := d.allocBlock(true)
			if !ok {
				break
			}
			d.state[id] = stActive
			d.gcBlk = id
			d.gcPg = 0
		}
		if len(moved) < d.slotsPP {
			break
		}
		entries := moved[:d.slotsPP]
		ppa := flash.PPA{Block: d.gcBlk, Page: d.gcPg}
		var raw []byte
		if d.cfg.Flash.StoreData {
			raw = d.composePageInto(d.pageBuf, entries)
		}
		dur, err := d.arr.Program(ppa, raw)
		if err != nil {
			if !errors.Is(err, flash.ErrProgramFailed) {
				return fmt.Errorf("blockdev: %w", err)
			}
			// Program failure mid-relocation: abandon the GC block as suspect
			// and spill the unprogrammed remainder (including this page's
			// entries) into the NV buffer — the data relocates through the
			// normal flush path instead of being lost.
			d.tele.flashWrites.Inc()
			d.eng.Advance(dur)
			d.suspect[d.gcBlk] = true
			d.state[d.gcBlk] = stSealed
			d.gcBlk = -1
			d.fr.Recovered("ssd")
			break
		}
		d.tele.flashWrites.Inc()
		d.eng.Advance(dur)
		for slot, e := range entries {
			a := ftl.OPageAddr{PPA: ppa, Slot: slot}
			if prev, had := d.table.Update(e.Key, a); had {
				d.valid.Clear(prev)
			}
			d.valid.Set(a, e.Key)
		}
		d.gcPg++
		moved = moved[d.slotsPP:]
	}
	for _, e := range moved {
		// The data now lives only in the NV buffer; drop the stale mapping
		// so nothing points into the block we are about to erase.
		if prev, had := d.table.Delete(e.Key); had {
			d.valid.Clear(prev)
		}
		d.wbuf.Push(e)
	}

	d.valid.ClearBlock(victim)
	dur, err := d.arr.Erase(victim)
	d.eng.Advance(dur)
	if err != nil || d.suspect[victim] || d.blockIsBad(victim) {
		// Bad-block remap: suspect blocks (program failures) retire here
		// instead of rejoining the free pool, alongside blocks that died of
		// wear. Their live data was already relocated above.
		delete(d.suspect, victim)
		d.state[victim] = stBad
		d.maybeBrick()
		return nil
	}
	d.state[victim] = stFree
	d.free.Put(victim, d.arr.BlockPEC(victim))
	return nil
}

var _ blockdev.Device = (*Device)(nil)
