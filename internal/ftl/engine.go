package ftl

import (
	"errors"
	"fmt"
	"sync"

	"salamander/internal/blockdev"
	"salamander/internal/ecc"
	"salamander/internal/faultinject"
	"salamander/internal/flash"
	"salamander/internal/rber"
	"salamander/internal/sim"
	"salamander/internal/stats"
	"salamander/internal/telemetry"
)

// Config parameterizes an Engine. Every field is relayed from the owning
// device's Config; the engine adds no knob of its own.
type Config struct {
	// Layer is the owning device's name ("ssd", "core"): the prefix of every
	// metric the engine registers, the Layer of its trace events, the site of
	// its faults_recovered counter and the Kind of its wear report.
	Layer string
	Flash flash.Config
	// GCLowWater triggers garbage collection when the free pool drops to
	// this many blocks.
	GCLowWater int
	// RealECC runs the BCH data path; otherwise uncorrectable events are
	// sampled analytically from the page RBER.
	RealECC bool
	// MaxReadRetries re-reads a failed page up to this many times.
	MaxReadRetries int
	// WearLevelSpread is the sealed-block P/E spread past which the coldest
	// block is recycled regardless of its valid count. Zero disables.
	WearLevelSpread uint32
	Seed            uint64
}

// Lifecycle is the part of an SSD that the paper changes: what happens to
// flash as it tires. The engine calls it with the device lock held, only
// from block allocation, program failure, erase and space exhaustion —
// never from a host read.
type Lifecycle interface {
	// AdmitBlock is asked about a block just taken from the free pool.
	// True opens it for writing; false means the policy has disposed of it
	// (RetireBlock, or set aside for later) and the engine takes another.
	AdmitBlock(block int) bool
	// ProgramFailed charges a failed program of ppa (already counted and
	// timed) to the policy's unit of retirement. host carries the buffered
	// writes the page was to hold, which a page-granular policy returns to
	// the buffer with Requeue; it is nil during garbage collection, where
	// the collector re-homes its own entries. True reports the whole block
	// abandoned: the engine seals it and continues in a fresh block (host
	// writes) or spills what is left of the move to the buffer (GC). False
	// reports only the page lost: the write cursor moves on.
	ProgramFailed(ppa flash.PPA, host []BufEntry) (blockAbandoned bool)
	// Erased hands over a collected victim after its erase (err non-nil if
	// the erase failed). The policy returns it to the pool with FreeBlock,
	// sets it aside, or retires it.
	Erased(block int, err error)
	// Exhausted reports that nothing more can be reclaimed: the policy
	// ends the device's life (MarkDead, after notifying the host).
	Exhausted()
}

// PageStatus is an fPage's place in the life cycle of §3.1.
type PageStatus uint8

const (
	// PageServing pages accept programs at their service level.
	PageServing PageStatus = iota
	// PageLimbo pages are too worn for their last service level and wait
	// to be regenerated at a higher one, or to die.
	PageLimbo
	// PageDead pages never store data again.
	PageDead
)

// PageInfo is one fPage's life-cycle state.
type PageInfo struct {
	Status PageStatus
	// Level is the service level while serving (a program stores 4-Level
	// oPages) or the tiredness while in limbo.
	Level uint8
	// ProgLevel is the level of the last program; reads decode with that
	// level's geometry.
	ProgLevel uint8
}

// Counters is a snapshot of the activity every device kind counts.
type Counters struct {
	HostReads, HostWrites   uint64
	FlashReads, FlashWrites uint64 // fPage reads, and programs incl. GC
	GCRelocations           uint64 // oPages moved by GC
	Uncorrectable           uint64
	LostOPages              uint64
	ReadRetries             uint64
	RetrySaves              uint64 // reads rescued by a retry
	WearLevelMoves          uint64 // cold blocks recycled by static WL
}

type blockState uint8

const (
	stFree blockState = iota
	stActive
	stSealed
	stBad
)

// cursor is a write stream's position: the open block and its next page.
type cursor struct{ blk, pg int }

// tele holds the registry-backed handles behind Counters(). A fresh engine
// binds them to a private registry; Instrument rebinds to a shared one.
type tele struct {
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

func bindTele(layer string, reg *telemetry.Registry, tr *telemetry.Tracer) tele {
	return tele{
		hostReads:         reg.Counter(layer + ".host_reads"),
		hostWrites:        reg.Counter(layer + ".host_writes"),
		flashReads:        reg.Counter(layer + ".flash_reads"),
		flashWrites:       reg.Counter(layer + ".flash_writes"),
		gcRelocations:     reg.Counter(layer + ".gc_relocations"),
		uncorrectable:     reg.Counter(layer + ".uncorrectable"),
		lostOPages:        reg.Counter(layer + ".lost_opages"),
		readRetries:       reg.Counter(layer + ".read_retries"),
		retrySaves:        reg.Counter(layer + ".retry_saves"),
		wearLevelMoves:    reg.Counter(layer + ".wear_level_moves"),
		eccCorrections:    reg.Counter(layer + ".ecc_corrections"),
		eccCorrectedBits:  reg.Counter(layer + ".ecc_corrected_bits"),
		eccErasureDecodes: reg.Counter(layer + ".ecc_erasure_decodes"),
		readLatency:       reg.Histogram(layer + ".host_read_latency_ns"),
		writeLatency:      reg.Histogram(layer + ".host_write_latency_ns"),
		tr:                tr,
	}
}

func (t *tele) counters() []*telemetry.Counter {
	return []*telemetry.Counter{
		t.hostReads, t.hostWrites, t.flashReads, t.flashWrites, t.gcRelocations,
		t.uncorrectable, t.lostOPages, t.readRetries, t.retrySaves, t.wearLevelMoves,
		t.eccCorrections, t.eccCorrectedBits, t.eccErasureDecodes,
	}
}

// CarryCounters adds each old counter's value onto the counter that
// replaced it, so totals survive a rebind to another registry.
func CarryCounters(now, old []*telemetry.Counter) {
	for i, dst := range now {
		if dst != old[i] {
			dst.Add(old[i].Value())
		}
	}
}

// Engine is the FTL-backed data path both device kinds run on: a page-mapped
// translation layer over the flash array with an NV write buffer, greedy GC
// with static wear levelling, per-page service levels and a level-aware ECC
// read path. The owning device supplies addressing (it checks the host's
// minidisk/LBA and packs them into a key) and a Lifecycle.
//
// One mutex — the device lock — serializes everything. Every method other
// than Lock, Unlock and Delay must be called with it held; the flash array
// underneath does its own per-channel locking, so the order is device lock
// then flash channel, and nothing holding a channel lock takes the device
// lock. Lifecycle methods and the host's event handler run under the device
// lock and must not call back into a locking entry point.
type Engine struct {
	mu    sync.Mutex
	cfg   Config
	life  Lifecycle
	arr   *flash.Array
	clk   *sim.Engine
	model *rber.Model
	rng   *stats.RNG

	geoms  [rber.MaxUsableLevel + 1]ecc.SectorGeometry
	codecs [rber.MaxUsableLevel + 1]*ecc.Code // built lazily per level

	pages        []PageInfo
	blockServing []int // per-block serving capacity in oPages
	servingSlots int   // device-wide serving capacity in oPages
	limbo        [rber.MaxUsableLevel + 1]int

	table *Table
	valid *ValidMap
	free  FreePool
	wbuf  *WriteBuffer
	state []blockState
	host  cursor // host write stream
	gc    cursor // GC relocation stream

	lost map[int64]bool // keys whose data was lost on flash
	dead bool

	fr   *faultinject.Registry // nil unless InjectFaults was called
	tele tele

	// Per-device wear tallies for the /wear report (registry counters are
	// fleet-shared once instrumented).
	wearCorr [rber.MaxUsableLevel + 1]uint64
	wearBits uint64

	// Data-path scratch: readBuf receives raw pages from flash.ReadInto and
	// pageBuf is the compose target for programs (flash.Program copies, so
	// one buffer serves every program). Both are nil in metadata-only mode.
	// eraPos holds one sector's erasure candidates.
	readBuf []byte
	pageBuf []byte
	eraPos  []int
}

// New builds an engine over a fresh flash array. Every page starts serving
// at level 0 and every block in the free pool.
func New(cfg Config, clk *sim.Engine, life Lifecycle) (*Engine, error) {
	switch {
	case cfg.GCLowWater < 2:
		return nil, fmt.Errorf("%s: GC low water must be >= 2 (GC itself needs a free block)", cfg.Layer)
	case cfg.MaxReadRetries < 0:
		return nil, fmt.Errorf("%s: MaxReadRetries %d is negative (0 means no retries)", cfg.Layer, cfg.MaxReadRetries)
	case cfg.RealECC && !cfg.Flash.StoreData:
		return nil, fmt.Errorf("%s: RealECC requires Flash.StoreData", cfg.Layer)
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
	if g.PageSize != rber.FPageSize {
		return nil, fmt.Errorf("%s: fPage size %d unsupported (want %d)", cfg.Layer, g.PageSize, rber.FPageSize)
	}
	e := &Engine{
		cfg:          cfg,
		life:         life,
		arr:          arr,
		clk:          clk,
		model:        arr.Model(),
		rng:          stats.NewRNG(cfg.Seed),
		pages:        make([]PageInfo, g.TotalPages()),
		blockServing: make([]int, g.TotalBlocks()),
		servingSlots: g.TotalPages() * rber.OPagesPerFPage,
		table:        NewTable(),
		valid:        NewValidMap(g.TotalBlocks(), g.PagesPerBlock, rber.OPagesPerFPage),
		wbuf:         NewWriteBuffer(),
		state:        make([]blockState, g.TotalBlocks()),
		host:         cursor{blk: -1},
		gc:           cursor{blk: -1},
		lost:         map[int64]bool{},
		tele:         bindTele(cfg.Layer, telemetry.NewRegistry(), nil),
	}
	for l := range e.geoms {
		e.geoms[l] = rber.LevelGeometry(l)
	}
	if cfg.Flash.StoreData {
		e.readBuf = make([]byte, g.RawPageBytes())
		e.pageBuf = make([]byte, g.RawPageBytes())
	}
	if cfg.RealECC {
		e.eraPos = make([]int, 0, 16)
	}
	for b := range e.blockServing {
		e.blockServing[b] = g.PagesPerBlock * rber.OPagesPerFPage
		e.free.Put(b, 0)
	}
	return e, nil
}

// Lock takes the device lock.
func (e *Engine) Lock() { e.mu.Lock() }

// Unlock releases the device lock.
func (e *Engine) Unlock() { e.mu.Unlock() }

// Array exposes the underlying flash; it is safe without the device lock.
func (e *Engine) Array() *flash.Array { return e.arr }

// Clock returns the simulation engine every operation's latency advances;
// it is safe without the device lock.
func (e *Engine) Clock() *sim.Engine { return e.clk }

// Delay takes the device lock and advances the device clock by d: idle
// time a host imposes between operations, such as a cluster's retry
// backoff.
func (e *Engine) Delay(d sim.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.clk.Advance(d)
}

// Dead reports whether the device's life has ended.
func (e *Engine) Dead() bool { return e.dead }

// MarkDead ends the device's life: every later write path fails with
// blockdev.ErrBricked.
func (e *Engine) MarkDead() { e.dead = true }

// Counters snapshots the activity counters from their live telemetry handles.
func (e *Engine) Counters() Counters {
	return Counters{
		HostReads:      e.tele.hostReads.Value(),
		HostWrites:     e.tele.hostWrites.Value(),
		FlashReads:     e.tele.flashReads.Value(),
		FlashWrites:    e.tele.flashWrites.Value(),
		GCRelocations:  e.tele.gcRelocations.Value(),
		Uncorrectable:  e.tele.uncorrectable.Value(),
		LostOPages:     e.tele.lostOPages.Value(),
		ReadRetries:    e.tele.readRetries.Value(),
		RetrySaves:     e.tele.retrySaves.Value(),
		WearLevelMoves: e.tele.wearLevelMoves.Value(),
	}
}

// Instrument rebinds the engine's counters under its layer name in the given
// registry, attaches a tracer and instruments the flash array with the same
// pair. Accumulated counts carry over; histograms start empty. A nil
// registry detaches onto a private one. The registry actually bound is
// returned so the owning device can bind its own instruments next to it.
func (e *Engine) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) *telemetry.Registry {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	old := e.tele
	e.tele = bindTele(e.cfg.Layer, reg, tr)
	CarryCounters(e.tele.counters(), old.counters())
	e.arr.Instrument(reg, tr)
	return reg
}

// Trace emits a device event stamped with the virtual time and, unless the
// event names another, the engine's layer.
func (e *Engine) Trace(ev telemetry.Event) {
	ev.T = e.clk.Now()
	if ev.Layer == "" {
		ev.Layer = e.cfg.Layer
	}
	e.tele.tr.Emit(ev)
}

// InjectFaults attaches a failpoint registry (nil detaches): its clock is
// bound to the device clock and its flash sites are threaded into the array.
func (e *Engine) InjectFaults(fr *faultinject.Registry) {
	e.fr = fr
	if fr != nil {
		fr.SetClock(func() sim.Time { return e.clk.Now() })
	}
	e.arr.InjectFaults(fr)
}

// Wear fills the device-independent part of the media-wear self-report.
func (e *Engine) Wear() blockdev.WearInfo {
	st := e.arr.Stats()
	w := blockdev.WearInfo{
		Kind:               e.cfg.Layer,
		MeanPEC:            st.MeanPEC,
		MaxPEC:             st.MaxPEC,
		RBEREstimate:       e.model.RBER(st.MeanPEC),
		CorrectionsByLevel: append([]uint64(nil), e.wearCorr[:]...),
		CorrectedBits:      e.wearBits,
		DeadBlocks:         st.DeadBlocks,
		CapacityFrac:       e.CapacityFrac(),
		Retired:            e.dead,
	}
	for _, n := range e.wearCorr {
		w.Corrections += n
	}
	return w
}

// --- page and block state ------------------------------------------------------

func (e *Engine) page(ppa flash.PPA) *PageInfo {
	return &e.pages[ppa.Block*e.arr.Geometry().PagesPerBlock+ppa.Page]
}

// Page returns one fPage's life-cycle state.
func (e *Engine) Page(ppa flash.PPA) PageInfo { return *e.page(ppa) }

// SetPage moves a page to a new status and level, keeping the serving
// capacity (device-wide and per block) and the limbo tallies in step. A
// program in flight on the page keeps its ProgLevel.
func (e *Engine) SetPage(ppa flash.PPA, status PageStatus, level int) {
	pi := e.page(ppa)
	e.tally(ppa.Block, *pi, -1)
	pi.Status, pi.Level = status, uint8(level)
	e.tally(ppa.Block, *pi, +1)
}

func (e *Engine) tally(block int, pi PageInfo, sign int) {
	switch pi.Status {
	case PageServing:
		slots := sign * (rber.OPagesPerFPage - int(pi.Level))
		e.servingSlots += slots
		e.blockServing[block] += slots
	case PageLimbo:
		e.limbo[pi.Level] += sign
	}
}

// KillPage takes a page out of service for good.
func (e *Engine) KillPage(ppa flash.PPA) {
	e.SetPage(ppa, PageDead, int(e.page(ppa).Level))
}

// ServingSlots returns the serving capacity in oPages (Eq. 1's total across
// levels).
func (e *Engine) ServingSlots() int { return e.servingSlots }

// CapacityFrac is the serving capacity relative to the pristine device.
func (e *Engine) CapacityFrac() float64 {
	return float64(e.servingSlots) / float64(len(e.pages)*rber.OPagesPerFPage)
}

// BlockServing returns one block's serving capacity in oPages.
func (e *Engine) BlockServing(block int) int { return e.blockServing[block] }

// Limbo returns the number of limbo fPages at each tiredness level.
func (e *Engine) Limbo() [rber.MaxUsableLevel + 1]int { return e.limbo }

// FreeBlocks lists the blocks in the free pool (heap order, not sorted).
func (e *Engine) FreeBlocks() []int { return e.free.Blocks() }

// FreeBlock returns an erased block to the free pool.
func (e *Engine) FreeBlock(block int) { e.free.Put(block, e.arr.BlockPEC(block)) }

// RetireBlock takes a block out of service for good.
func (e *Engine) RetireBlock(block int) { e.state[block] = stBad }

// BadBlocks counts retired blocks.
func (e *Engine) BadBlocks() int {
	n := 0
	for _, s := range e.state {
		if s == stBad {
			n++
		}
	}
	return n
}

// CheckInvariants verifies the engine's own accounting: every page has a
// known status, the per-block and device-wide serving sums and the limbo
// tallies match the per-page states, and the mapping table and the valid
// slots are one bijection. It is a pure read; the result lists every
// violation.
func (e *Engine) CheckInvariants() []string {
	var bad []string
	g := e.arr.Geometry()
	var limbo [rber.MaxUsableLevel + 1]int
	servingSum, validSum := 0, 0
	for b := 0; b < g.TotalBlocks(); b++ {
		blockSum := 0
		for p := 0; p < g.PagesPerBlock; p++ {
			pi := e.pages[b*g.PagesPerBlock+p]
			switch pi.Status {
			case PageServing:
				blockSum += rber.OPagesPerFPage - int(pi.Level)
			case PageLimbo:
				if int(pi.Level) <= rber.MaxUsableLevel {
					limbo[pi.Level]++
				}
			case PageDead:
			default:
				bad = append(bad, fmt.Sprintf("page %d/%d has unknown status %d", b, p, pi.Status))
			}
			for slot := 0; slot < rber.OPagesPerFPage; slot++ {
				at := OPageAddr{PPA: flash.PPA{Block: b, Page: p}, Slot: slot}
				key, live := e.valid.Key(at)
				if !live {
					continue
				}
				if addr, ok := e.table.Lookup(key); !ok || addr != at {
					bad = append(bad, fmt.Sprintf("valid slot %v holds key %d but the table maps it to %v (%v)", at, key, addr, ok))
				}
			}
		}
		if blockSum != e.blockServing[b] {
			bad = append(bad, fmt.Sprintf("block %d serving sum %d != tracked %d", b, blockSum, e.blockServing[b]))
		}
		servingSum += blockSum
		validSum += e.valid.ValidCount(b)
	}
	if servingSum != e.servingSlots {
		bad = append(bad, fmt.Sprintf("serving slots %d != per-page sum %d", e.servingSlots, servingSum))
	}
	if e.table.Len() != validSum {
		bad = append(bad, fmt.Sprintf("table maps %d keys but %d slots are valid", e.table.Len(), validSum))
	}
	for l, n := range limbo {
		if n != e.limbo[l] {
			bad = append(bad, fmt.Sprintf("limbo[%d] tally %d != per-page count %d (limbo conservation)", l, e.limbo[l], n))
		}
	}
	return bad
}

// --- host interface ------------------------------------------------------------

// Write buffers one oPage for key (the owning device has checked the address)
// and programs full fPages as they form.
func (e *Engine) Write(key int64, buf []byte) error {
	e.tele.hostWrites.Inc()
	start := e.clk.Now()
	defer func() { e.tele.writeLatency.Observe(float64(e.clk.Now() - start)) }()
	delete(e.lost, key)
	var data []byte
	if e.cfg.Flash.StoreData {
		data = append([]byte(nil), buf...)
	}
	e.wbuf.Push(BufEntry{Key: key, Data: data})
	return e.drain(false)
}

// Flush programs any partially filled buffer to flash, padding unused slots.
func (e *Engine) Flush() error { return e.drain(true) }

// Trim forgets key: its buffered write, its loss mark and its mapping.
func (e *Engine) Trim(key int64) {
	e.wbuf.Drop(key)
	delete(e.lost, key)
	if prev, had := e.table.Delete(key); had {
		e.valid.Clear(prev)
	}
}

// Read fills buf with key's oPage; unwritten keys read zeros.
func (e *Engine) Read(key int64, buf []byte) error {
	e.tele.hostReads.Inc()
	start := e.clk.Now()
	defer func() { e.tele.readLatency.Observe(float64(e.clk.Now() - start)) }()
	if e.lost[key] {
		return blockdev.ErrUncorrectable
	}
	if data, ok := e.wbuf.Contains(key); ok {
		if data != nil {
			copy(buf, data)
		} else {
			zero(buf)
		}
		return nil
	}
	addr, ok := e.table.Lookup(key)
	if !ok {
		zero(buf)
		return nil
	}
	// Decode straight into the host buffer: the whole clean-read path —
	// flash ReadInto into readBuf, per-sector Check/Decode from the codec's
	// scratch pool, corrected bytes into buf — allocates nothing.
	filled, err := e.readOPageInto(addr, buf)
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

// --- read path -------------------------------------------------------------------

// codec returns the (lazily built) BCH code for a service level.
func (e *Engine) codec(level int) *ecc.Code {
	if e.codecs[level] == nil {
		c, err := e.geoms[level].Build()
		if err != nil {
			panic(fmt.Sprintf("%s: level %d codec: %v", e.cfg.Layer, level, err)) // geometries are static
		}
		e.codecs[level] = c
	}
	return e.codecs[level]
}

// readOPage fetches one oPage into a freshly allocated buffer the caller
// owns. GC relocation and the scrubber use this: their entries retain the
// data past the next read, so they cannot share the engine scratch.
func (e *Engine) readOPage(addr OPageAddr) ([]byte, error) {
	var dst []byte
	if e.cfg.Flash.StoreData {
		dst = make([]byte, rber.OPageSize)
	}
	filled, err := e.readOPageInto(addr, dst)
	if err != nil || !filled {
		return nil, err
	}
	return dst, nil
}

// readOPageInto fetches one oPage into dst (len rber.OPageSize; ignored in
// metadata-only mode), decoding at the page's programmed level. Failed
// reads are retried up to MaxReadRetries times — the iterative
// voltage-adjustment mechanism of §2: each attempt re-senses the page (an
// independent error sample) at the cost of a full additional read. filled
// reports whether dst holds the oPage; it is false in metadata-only mode.
func (e *Engine) readOPageInto(addr OPageAddr, dst []byte) (bool, error) {
	filled, injected, err := e.readOPageOnce(addr, dst)
	sawInjected := injected
	for attempt := 0; errors.Is(err, blockdev.ErrUncorrectable) && attempt < e.cfg.MaxReadRetries; attempt++ {
		e.tele.readRetries.Inc()
		filled, injected, err = e.readOPageOnce(addr, dst)
		sawInjected = sawInjected || injected
		if err == nil {
			e.tele.retrySaves.Inc()
			if sawInjected {
				e.fr.Recovered(e.cfg.Layer)
			}
		}
	}
	return filled, err
}

// readOPageOnce performs a single read attempt: the raw page lands in
// readBuf, sectors are corrected there in place at the page's programmed
// level, and the corrected payload is copied into dst. injected reports
// whether the attempt hit an injected transient read failure.
func (e *Engine) readOPageOnce(addr OPageAddr, dst []byte) (filled, injected bool, err error) {
	level := int(e.page(addr.PPA).ProgLevel)
	const spb = rber.OPageSize / rber.SectorSize

	transfer := rber.OPageSize
	var code *ecc.Code
	if e.cfg.RealECC {
		code = e.codec(level)
		transfer += spb * code.ParityBytes()
	}
	res, err := e.arr.ReadInto(addr.PPA, transfer, e.readBuf)
	if err != nil {
		return false, false, fmt.Errorf("blockdev: %w", err)
	}
	e.tele.flashReads.Inc()
	e.clk.Advance(res.Duration)
	if code == nil {
		// Analytic path: each of the oPage's sectors fails independently
		// with the model's uncorrectable probability at this RBER.
		pFail := e.geoms[level].UncorrectableProb(res.RBER)
		for s := 0; s < spb; s++ {
			if e.rng.Float64() < pFail {
				e.tele.uncorrectable.Inc()
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
	dataBytes := rber.LevelDataBytes(level)
	pb := code.ParityBytes()
	for s := 0; s < spb; s++ {
		sectorGlobal := addr.Slot*spb + s
		dataOff := addr.Slot*rber.OPageSize + s*rber.SectorSize
		parityOff := dataBytes + sectorGlobal*pb
		sector := res.Data[dataOff : dataOff+rber.SectorSize]
		parity := res.Data[parityOff : parityOff+pb]
		var bits int
		var err error
		if cand := e.sectorErasures(code, res.Stuck, dataOff, parityOff, pb); len(cand) > 0 {
			// Wear tracking knows this block's grown stuck bit-lines: hand
			// them to the codec as erasure candidates so a hit skips the
			// full Chien scan. A miss falls back inside the codec.
			bits, err = code.DecodeWithErasures(sector, parity, cand)
			e.tele.eccErasureDecodes.Inc()
		} else {
			bits, err = code.Decode(sector, parity)
		}
		if err != nil {
			e.tele.uncorrectable.Inc()
			return false, res.Injected, blockdev.ErrUncorrectable
		}
		if bits > 0 {
			e.tele.eccCorrections.Inc()
			e.tele.eccCorrectedBits.Add(uint64(bits))
			e.wearCorr[level]++
			e.wearBits += uint64(bits)
			e.Trace(telemetry.Event{
				Kind:  telemetry.KindEccCorrection,
				Block: addr.PPA.Block, Page: addr.PPA.Page, Level: level, N: int64(bits),
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
// the final parity byte) are dropped too. The result reuses the engine
// scratch and stays distinct because the stuck positions are distinct.
func (e *Engine) sectorErasures(code *ecc.Code, stuck []int, dataOff, parityOff, pb int) []int {
	if len(stuck) == 0 {
		return nil
	}
	cand := e.eraPos[:0]
	for _, bit := range stuck {
		byteOff, cwBit := bit/8, 7-bit%8
		switch {
		case byteOff >= dataOff && byteOff < dataOff+rber.SectorSize:
			cand = append(cand, (byteOff-dataOff)*8+cwBit)
		case byteOff >= parityOff && byteOff < parityOff+pb:
			if cw := code.K + (byteOff-parityOff)*8 + cwBit; cw < code.N {
				cand = append(cand, cw)
			}
		}
	}
	e.eraPos = cand
	return cand
}

// loseOPage records that key's flash copy can no longer be read: the
// mapping is dropped and host reads fail until the key is rewritten.
func (e *Engine) loseOPage(key int64, addr OPageAddr) {
	e.valid.Clear(addr)
	e.table.Delete(key)
	e.lost[key] = true
	e.tele.lostOPages.Inc()
}

// scrubRefreshFraction: refresh data once its page's RBER passes this
// fraction of the level ceiling.
const scrubRefreshFraction = 0.8

// Scrub patrol-reads every mapped key of keys through ECC: data on pages
// drifting toward their correction ceiling is rewritten to fresh pages, and
// unreadable oPages are marked lost. It costs real device time on the
// virtual clock.
func (e *Engine) Scrub(keys []int64) (scanned, refreshed, lost int, err error) {
	// Snapshot the mappings first: refreshing mutates the table.
	type mapping struct {
		key  int64
		addr OPageAddr
	}
	var items []mapping
	for _, key := range keys {
		if addr, ok := e.table.Lookup(key); ok {
			items = append(items, mapping{key, addr})
		}
	}
	for _, it := range items {
		// The mapping may have moved since the snapshot (GC, overwrites).
		key, addr := it.key, it.addr
		if now, ok := e.table.Lookup(key); !ok || now != addr {
			continue
		}
		data, err := e.readOPage(addr)
		if err != nil {
			if errors.Is(err, blockdev.ErrUncorrectable) {
				e.loseOPage(key, addr)
				lost++
				continue
			}
			return scanned, refreshed, lost, err
		}
		scanned++
		ceiling := e.model.Level(int(e.page(addr.PPA).ProgLevel)).MaxRBER
		if e.arr.EffectiveRBER(addr.PPA) >= scrubRefreshFraction*ceiling {
			// Refresh: push the data back through the write path so it
			// lands on a healthier page.
			e.wbuf.Push(BufEntry{Key: key, Data: data})
			if err := e.drain(false); err != nil {
				return scanned, refreshed, lost, err
			}
			refreshed++
		}
	}
	// Flush any refresh tail so scrubbed data is durable on flash.
	return scanned, refreshed, lost, e.drain(true)
}

// --- write path ------------------------------------------------------------------

// Requeue returns entries to the NV write buffer.
func (e *Engine) Requeue(entries []BufEntry) {
	for _, en := range entries {
		e.wbuf.Push(en)
	}
}

// drain programs buffered oPages while full fPages can be formed (or
// unconditionally when force is set, padding the final page).
func (e *Engine) drain(force bool) error {
	for e.wbuf.Len() > 0 {
		if e.dead {
			return blockdev.ErrBricked
		}
		if err := e.ensureActive(); err != nil {
			return err
		}
		need := rber.OPagesPerFPage - int(e.page(flash.PPA{Block: e.host.blk, Page: e.host.pg}).Level)
		if e.wbuf.Len() < need && !force {
			return nil
		}
		if err := e.programPage(e.wbuf.PopN(need)); err != nil {
			return err
		}
	}
	return nil
}

// maxProgramRetries bounds how many fresh blocks one fPage program may burn
// through after program failures before the write is surfaced as an error.
const maxProgramRetries = 4

// program composes entries at ppa's service level and programs the page,
// counting and timing the attempt whether or not it sticks. failed reports
// a program failure the Lifecycle must absorb; any other error is final.
func (e *Engine) program(ppa flash.PPA, entries []BufEntry) (failed bool, err error) {
	pi := e.page(ppa)
	level := int(pi.Level)
	var raw []byte
	if e.cfg.Flash.StoreData {
		raw = e.composePageInto(e.pageBuf, entries, level)
	}
	dur, err := e.arr.Program(ppa, raw)
	if err != nil && !errors.Is(err, flash.ErrProgramFailed) {
		return false, fmt.Errorf("blockdev: %w", err)
	}
	e.tele.flashWrites.Inc()
	e.clk.Advance(dur)
	if err != nil {
		return true, nil
	}
	pi.ProgLevel = uint8(level)
	for slot, en := range entries {
		addr := OPageAddr{PPA: ppa, Slot: slot}
		if prev, had := e.table.Update(en.Key, addr); had {
			e.valid.Clear(prev)
		}
		e.valid.Set(addr, en.Key)
	}
	return false, nil
}

// programPage writes entries into the host stream's next serving page. What
// a program failure costs is the Lifecycle's call: a block-granular policy
// abandons the block and the entries retry in a fresh one; a page-granular
// policy loses the page, takes the entries back into the buffer, and the
// stream moves on.
func (e *Engine) programPage(entries []BufEntry) error {
	for attempt := 0; ; attempt++ {
		ppa := flash.PPA{Block: e.host.blk, Page: e.host.pg}
		failed, err := e.program(ppa, entries)
		if err != nil {
			return err
		}
		if !failed {
			e.host.pg++
			e.position(&e.host)
			if attempt > 0 {
				e.fr.Recovered(e.cfg.Layer)
			}
			return nil
		}
		if attempt >= maxProgramRetries {
			return fmt.Errorf("blockdev: %w", flash.ErrProgramFailed)
		}
		if !e.life.ProgramFailed(ppa, entries) {
			e.position(&e.host)
			e.fr.Recovered(e.cfg.Layer)
			return nil
		}
		e.state[e.host.blk] = stSealed
		e.host.blk = -1
		if err := e.ensureActive(); err != nil {
			return err
		}
	}
}

// composePageInto lays out up to (4-level) oPages and their per-sector BCH
// parity for a level-coded fPage into dst (at least RawPageBytes),
// returning the raw page slice.
func (e *Engine) composePageInto(dst []byte, entries []BufEntry, level int) []byte {
	raw := dst[:e.arr.Geometry().RawPageBytes()]
	zero(raw)
	for slot, en := range entries {
		if en.Data != nil {
			copy(raw[slot*rber.OPageSize:], en.Data)
		}
	}
	if e.cfg.RealECC {
		if err := e.codec(level).EncodeSectors(raw, rber.LevelDataBytes(level), rber.SectorSize); err != nil {
			panic(err) // level geometries are fixed; cannot fail
		}
	}
	return raw
}

// --- block allocation ------------------------------------------------------------

// position moves a write stream onto its block's next serving page, sealing
// the block when none is left.
func (e *Engine) position(c *cursor) {
	ppb := e.arr.Geometry().PagesPerBlock
	for c.pg < ppb && e.pages[c.blk*ppb+c.pg].Status != PageServing {
		c.pg++
	}
	if c.pg >= ppb {
		e.state[c.blk] = stSealed
		c.blk = -1
	}
}

// allocBlock takes a block the Lifecycle admits from the free pool.
func (e *Engine) allocBlock(forGC bool) (int, bool) {
	for {
		// The last free block is reserved for garbage collection: GC must
		// always have a destination, or a full device deadlocks with
		// reclaimable space it cannot reach.
		if !forGC && e.free.Len() < 2 {
			return -1, false
		}
		id, ok := e.free.Get()
		if !ok {
			return -1, false
		}
		if e.life.AdmitBlock(id) {
			return id, true
		}
		if e.dead {
			return -1, false
		}
	}
}

// maxGCPerAlloc bounds how many background collections a single allocation
// attempt may trigger, so one host write on a near-full device cannot sweep
// the whole array.
const maxGCPerAlloc = 4

// ensureActive guarantees an open host write block positioned on a serving
// page, running GC as needed to keep the free pool above the low-water mark.
func (e *Engine) ensureActive() error {
	if e.dead {
		return blockdev.ErrBricked
	}
	for i := 0; i < maxGCPerAlloc && e.free.Len() <= e.cfg.GCLowWater; i++ {
		if err := e.collect(); err != nil {
			if errors.Is(err, errNoVictim) {
				break // nothing reclaimable right now
			}
			return err
		}
		if e.dead {
			return blockdev.ErrBricked
		}
	}
	if e.host.blk >= 0 {
		return nil
	}
	id, ok := e.allocBlock(false)
	for !ok {
		if e.dead {
			return blockdev.ErrBricked
		}
		// Desperate path: compact until a block frees up. Each collection
		// removes at least one invalid slot, so this terminates — either
		// with space or with a genuinely full device.
		if err := e.collect(); err != nil {
			e.life.Exhausted()
			return blockdev.ErrDeviceFull
		}
		if e.free.Len() > 1 {
			id, ok = e.allocBlock(false)
		}
	}
	e.state[id] = stActive
	e.host = cursor{blk: id}
	e.position(&e.host)
	if e.host.blk < 0 {
		// The block sealed immediately (no serving page left in it); try
		// again.
		return e.ensureActive()
	}
	return nil
}

// --- garbage collection ----------------------------------------------------------

var errNoVictim = errors.New("ftl: no GC victim available")

// nextGCPage positions the GC stream on a serving page, sealing and
// allocating GC blocks as needed.
func (e *Engine) nextGCPage() (flash.PPA, error) {
	for {
		if e.gc.blk >= 0 {
			e.position(&e.gc)
		}
		if e.gc.blk >= 0 {
			return flash.PPA{Block: e.gc.blk, Page: e.gc.pg}, nil
		}
		id, ok := e.allocBlock(true)
		if !ok {
			return flash.PPA{}, errNoVictim
		}
		e.state[id] = stActive
		e.gc = cursor{blk: id}
	}
}

// pickVictim chooses the next block to collect: normally the greedy
// minimum-valid sealed block with reclaimable space — collecting a fully
// valid block would burn a P/E cycle for zero gain — but when the P/E spread
// between the hottest and coldest sealed blocks exceeds the static
// wear-leveling threshold, the coldest block is recycled instead so cold
// data stops pinning young blocks (§2's wear leveling).
func (e *Engine) pickVictim() (int, bool) {
	if e.cfg.WearLevelSpread > 0 {
		coldest := -1
		var minPEC, maxPEC uint32
		for b, st := range e.state {
			if st != stSealed {
				continue
			}
			pec := e.arr.BlockPEC(b)
			if coldest < 0 || pec < minPEC {
				coldest, minPEC = b, pec
			}
			if pec > maxPEC {
				maxPEC = pec
			}
		}
		if coldest >= 0 && maxPEC-minPEC > e.cfg.WearLevelSpread {
			e.tele.wearLevelMoves.Inc()
			return coldest, true
		}
	}
	return e.valid.Victim(func(b int) bool {
		return e.state[b] == stSealed && e.valid.ValidCount(b) < e.blockServing[b]
	})
}

// collect reclaims one sealed block: its live oPages are packed page by
// page into the GC stream, any sub-page remainder spills into the NV write
// buffer (so GC never programs padded pages, which would create more garbage
// than it reclaims), and the victim is erased and handed to the Lifecycle —
// erasing is where NAND wear advances, so that is where blocks and pages
// change state.
func (e *Engine) collect() error {
	victim, ok := e.pickVictim()
	if !ok {
		return errNoVictim
	}

	// Read all live data out of the victim first.
	var moved []BufEntry
	for _, se := range e.valid.LiveSlots(victim) {
		if _, pending := e.wbuf.Contains(se.Key); pending {
			// A newer write to this key is sitting in the NV buffer; the
			// flash copy is stale. Drop it instead of relocating it (and
			// never let it clobber the buffered data).
			e.valid.Clear(se.Addr)
			e.table.Delete(se.Key)
			continue
		}
		data, err := e.readOPage(se.Addr)
		if err != nil {
			// Data loss inside GC: the key's contents are gone; surface it
			// on the next host read.
			if errors.Is(err, blockdev.ErrUncorrectable) {
				e.loseOPage(se.Key, se.Addr)
				continue
			}
			return err
		}
		e.tele.gcRelocations.Inc()
		moved = append(moved, BufEntry{Key: se.Key, Data: data})
	}
	e.Trace(telemetry.Event{Kind: telemetry.KindGcVictim, Layer: "ftl", Block: victim, N: int64(len(moved))})

	// Pack full fPages; the remainder rides in the NV buffer until host
	// traffic (or a later GC) fills a page.
	for len(moved) > 0 {
		ppa, err := e.nextGCPage()
		if err != nil {
			break // no GC destination; spill everything
		}
		slots := rber.OPagesPerFPage - int(e.page(ppa).Level)
		if len(moved) < slots {
			break
		}
		failed, err := e.program(ppa, moved[:slots])
		if err != nil {
			return err
		}
		if failed {
			// The entries stay in moved: after a lost page they retry on the
			// next serving page; after an abandoned block they spill.
			abandoned := e.life.ProgramFailed(ppa, nil)
			e.fr.Recovered(e.cfg.Layer)
			if abandoned {
				e.state[e.gc.blk] = stSealed
				e.gc.blk = -1
				break
			}
			continue
		}
		moved = moved[slots:]
		e.gc.pg++
	}
	for _, en := range moved {
		// The data now lives only in the NV buffer; drop the stale mapping
		// so nothing points into the block we are about to erase.
		if prev, had := e.table.Delete(en.Key); had {
			e.valid.Clear(prev)
		}
		e.wbuf.Push(en)
	}

	e.valid.ClearBlock(victim)
	dur, err := e.arr.Erase(victim)
	e.clk.Advance(dur)
	e.state[victim] = stFree
	e.life.Erased(victim, err)
	return nil
}
