package flash

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"salamander/internal/faultinject"
	"salamander/internal/rber"
	"salamander/internal/sim"
	"salamander/internal/stats"
	"salamander/internal/telemetry"
)

// Operation errors. Programming out of order or re-programming without an
// erase are NAND protocol violations: the FTL above must never do them, so
// they surface as errors rather than silent corruption.
var (
	ErrBadAddress   = errors.New("flash: address out of range")
	ErrNotErased    = errors.New("flash: programming a page that is not erased")
	ErrOutOfOrder   = errors.New("flash: pages within a block must be programmed in increasing order")
	ErrNotWritten   = errors.New("flash: reading an unwritten page")
	ErrEraseFailed  = errors.New("flash: erase verify failed — block is physically dead")
	ErrWrongPageLen = errors.New("flash: page buffer has wrong length")
	// ErrProgramFailed is an injected transient program failure: the program
	// pulse did not verify, the page is consumed (NAND cannot retry a page
	// without erasing the block) and holds partial garbage. Unlike
	// ErrEraseFailed the block is not dead — the FTL must relocate the data
	// elsewhere and treat the block as suspect.
	ErrProgramFailed = errors.New("flash: program verify failed — page consumed, data not stored")
)

// Config assembles everything an Array needs.
type Config struct {
	Geometry    Geometry
	Timing      Timing
	Reliability rber.Params
	// EnduranceCV is the coefficient of variation of per-block endurance
	// (lognormal); PageCV adds per-page variance within a block. Together
	// they model the layer-to-layer and page-to-page variance of 3D NAND
	// that makes page-granular retirement worthwhile (§3, [41,42]).
	EnduranceCV float64
	PageCV      float64
	// ReadDisturbRBER is the additive RBER contribution per read since the
	// containing block's last erase.
	ReadDisturbRBER float64
	// EraseFailPEC: beyond this multiple of the nominal PEC limit, erases
	// start failing permanently (physical death of the block). Zero means
	// 10x nominal.
	EraseFailPEC float64
	// StuckColumnsPerNominalPEC models grown bad bit-lines: the number of
	// stuck bit positions per block grows linearly with wear, reaching this
	// many at the nominal PEC rating. A stuck column fails the same raw-page
	// bit offset on every page of the block (column defects short a whole
	// bit-line), which is exactly the failure shape wear tracking can learn
	// and hand to DecodeWithErasures as erasure hints. Positions and stuck
	// values are a pure function of (Seed, block, index) — no RNG stream is
	// consumed, so enabling this never perturbs the deterministic flip
	// sequence chaos runs pin. Zero (the default) disables the model.
	StuckColumnsPerNominalPEC float64
	// PreWornPEC starts every block at this many program/erase cycles
	// instead of zero, as if the array had already served that much life.
	// It exists to stand up degraded fleets cheaply — elevated RBER (and,
	// with the stuck-column model on, grown bad bit-lines) from the first
	// read, without simulating the cycles — so benchmarks and smokes can
	// measure tired-flash behavior directly.
	PreWornPEC uint32
	// StoreData retains page payloads so reads return real (corrupted)
	// bytes. Disable for metadata-only bulk simulations.
	StoreData bool
	// PristineReads returns stored page content without applying the
	// sampled bit errors (the sampled count still feeds ReadResult.Flips
	// and telemetry). Devices that model ECC analytically instead of
	// running a real decoder set this: an analytic decode "success" means
	// the errors were corrected, so handing the host flipped bytes would be
	// inconsistent. Injected transient read faults corrupt the returned
	// copy regardless.
	PristineReads bool
	Seed          uint64
}

// DefaultConfig returns a data-path configuration with the default geometry.
func DefaultConfig() Config {
	return Config{
		Geometry:        DefaultGeometry(),
		Timing:          DefaultTiming(),
		Reliability:     rber.DefaultParams(),
		EnduranceCV:     0.15,
		PageCV:          0.05,
		ReadDisturbRBER: 1e-10,
		StoreData:       true,
		Seed:            1,
	}
}

type pageState uint8

const (
	pageErased pageState = iota
	pageWritten
)

type page struct {
	state      pageState
	wearAtProg float64 // block PEC when this page was programmed
	scale      float32 // page endurance scale (incl. block scale)
	data       []byte  // the page's slot in Array.arena while written; nil otherwise
}

type block struct {
	pec       uint32  // program/erase cycles completed
	nextPage  int     // NAND sequential-programming pointer
	reads     uint64  // reads since last erase (read disturb)
	scale     float32 // block endurance scale
	dead      bool    // erase failed permanently
	pages     []page
	pageScale []float32 // per-page scale factor (multiplied by block scale)
}

// Array is the simulated NAND device. Operations on different channels are
// safe to issue concurrently: each channel's blocks are guarded by that
// channel's mutex, bit-error sampling draws from a per-channel RNG stream,
// and SMART counters are atomic. Blocks are channel-major, so the lock for
// block b is chmu[b/BlocksPerChan]. Within one channel operations serialize,
// matching the hardware.
type Array struct {
	cfg    Config
	model  *rber.Model
	blocks []block

	// arena holds the payloads of written pages, RawPageBytes per page in
	// block-major order (StoreData only). It is mapped outside the Go heap
	// where the platform allows (mapArena) and unmapped when the Array is
	// collected; page data never escapes the Array, only copies of it.
	arena []byte

	// Per-channel state. readRNG streams are split deterministically from
	// the seed at construction, so the flip sequence on each channel is a
	// pure function of (seed, channel, op order on that channel) no matter
	// how operations interleave across channels.
	chmu    []sync.Mutex
	readRNG []*stats.RNG

	// Counters for SMART-style reporting.
	readOps, programOps, eraseOps atomic.Uint64
	injectedFlips                 atomic.Uint64

	tele *arrayTele // optional cross-layer telemetry (nil = uninstrumented)

	// Failpoints (nil = no fault injection; Fire on a nil site is free).
	fiRead    *faultinject.Site // "flash.read.transient"
	fiProgram *faultinject.Site // "flash.program.fail"
}

// arrayTele holds the flash layer's resolved registry handles and tracer.
type arrayTele struct {
	programs, reads, erases *telemetry.Counter
	flips, eraseFails       *telemetry.Counter
	rberHist                *telemetry.Histogram
	progLatency             *telemetry.Histogram
	readLatency             *telemetry.Histogram
	tr                      *telemetry.Tracer
}

// Instrument attaches the array to a shared telemetry registry and tracer
// (either may be nil). Counters aggregate across every array bound to the
// same registry, which is the fleet-level view the CLIs want. Programs emit
// KindPageProgram events; reads feed the flash.rber_frac histogram that PS-WL
// style wear analyses need. Call before issuing operations.
func (a *Array) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	if reg == nil && tr == nil {
		a.tele = nil
		return
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	a.tele = &arrayTele{
		programs:    reg.Counter("flash.program_ops"),
		reads:       reg.Counter("flash.read_ops"),
		erases:      reg.Counter("flash.erase_ops"),
		flips:       reg.Counter("flash.injected_bit_flips"),
		eraseFails:  reg.Counter("flash.erase_failures"),
		rberHist:    reg.Histogram("flash.rber_frac"),
		progLatency: reg.Histogram("flash.program_latency_ns"),
		readLatency: reg.Histogram("flash.read_latency_ns"),
		tr:          tr,
	}
}

// InjectFaults attaches failpoint sites for transient read failures
// ("flash.read.transient") and program failures ("flash.program.fail"). A nil
// registry detaches. Sites stay disarmed until the chaos driver arms them, so
// attaching costs nothing on the hot path beyond one nil check.
func (a *Array) InjectFaults(fr *faultinject.Registry) {
	if fr == nil {
		a.fiRead, a.fiProgram = nil, nil
		return
	}
	a.fiRead = fr.Site("flash.read.transient")
	a.fiProgram = fr.Site("flash.program.fail")
}

// corruptPage applies a dense deterministic error pattern — one flipped bit
// per byte, far past any level's ECC correction budget — so injected failures
// are uncorrectable by construction on the real-ECC path.
func corruptPage(data []byte) int {
	for i := range data {
		data[i] ^= 0x01
	}
	return len(data)
}

// New builds an array. All blocks start erased.
func New(cfg Config) (*Array, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	model, err := rber.New(cfg.Reliability)
	if err != nil {
		return nil, err
	}
	if cfg.EraseFailPEC == 0 {
		cfg.EraseFailPEC = 10
	}
	a := &Array{
		cfg:     cfg,
		model:   model,
		blocks:  make([]block, cfg.Geometry.TotalBlocks()),
		chmu:    make([]sync.Mutex, cfg.Geometry.Channels),
		readRNG: make([]*stats.RNG, cfg.Geometry.Channels),
	}
	rng := stats.NewRNG(cfg.Seed)
	for b := range a.blocks {
		blk := &a.blocks[b]
		blk.pec = cfg.PreWornPEC
		blk.scale = float32(rng.LogNormal(1, cfg.EnduranceCV))
		blk.pages = make([]page, cfg.Geometry.PagesPerBlock)
		blk.pageScale = make([]float32, cfg.Geometry.PagesPerBlock)
		for p := range blk.pageScale {
			blk.pageScale[p] = float32(rng.LogNormal(1, cfg.PageCV)) * blk.scale
		}
	}
	for ch := range a.readRNG {
		a.readRNG[ch] = rng.Split()
	}
	if cfg.StoreData {
		var unmap func()
		a.arena, unmap = mapArena(cfg.Geometry.TotalPages() * cfg.Geometry.RawPageBytes())
		if unmap != nil {
			runtime.AddCleanup(a, func(unmap func()) { unmap() }, unmap)
		}
	}
	return a, nil
}

// blockArena returns the arena bytes behind a block's pages.
func (a *Array) blockArena(blockID int) []byte {
	size := a.cfg.Geometry.PagesPerBlock * a.cfg.Geometry.RawPageBytes()
	return a.arena[blockID*size : (blockID+1)*size]
}

// Geometry returns the array's layout.
func (a *Array) Geometry() Geometry { return a.cfg.Geometry }

// Model returns the calibrated reliability model the array injects errors
// from; device layers share it for retirement decisions.
func (a *Array) Model() *rber.Model { return a.model }

func (a *Array) check(ppa PPA) error {
	if ppa.Block < 0 || ppa.Block >= len(a.blocks) ||
		ppa.Page < 0 || ppa.Page >= a.cfg.Geometry.PagesPerBlock {
		return fmt.Errorf("%w: %v", ErrBadAddress, ppa)
	}
	return nil
}

// Program writes one full fPage (data+spare = RawPageBytes) to ppa. In
// metadata-only mode data may be nil. Pages within a block must be written
// in order, and only after an erase.
func (a *Array) Program(ppa PPA, data []byte) (sim.Time, error) {
	if err := a.check(ppa); err != nil {
		return 0, err
	}
	mu := a.channelMu(ppa.Block)
	mu.Lock()
	defer mu.Unlock()
	blk := &a.blocks[ppa.Block]
	if blk.dead {
		return 0, fmt.Errorf("%w: block %d", ErrEraseFailed, ppa.Block)
	}
	pg := &blk.pages[ppa.Page]
	if pg.state != pageErased {
		return 0, fmt.Errorf("%w: %v", ErrNotErased, ppa)
	}
	if ppa.Page < blk.nextPage {
		return 0, fmt.Errorf("%w: %v (next programmable is page %d)", ErrOutOfOrder, ppa, blk.nextPage)
	}
	if a.cfg.StoreData {
		if len(data) != a.cfg.Geometry.RawPageBytes() {
			return 0, fmt.Errorf("%w: got %d, want %d", ErrWrongPageLen, len(data), a.cfg.Geometry.RawPageBytes())
		}
		raw := len(data)
		pg.data = a.blockArena(ppa.Block)[ppa.Page*raw : (ppa.Page+1)*raw : (ppa.Page+1)*raw]
		copy(pg.data, data)
	}
	if a.fiProgram.Fire() {
		// Program failure: the pulse consumed the page but did not verify.
		// The page counts as written (holding corrupted data) and the
		// sequential-program pointer advances past it — the FTL cannot retry
		// in place, only relocate.
		if a.cfg.StoreData {
			corruptPage(pg.data)
		}
		pg.state = pageWritten
		pg.wearAtProg = float64(blk.pec)
		pg.scale = blk.pageScale[ppa.Page]
		blk.nextPage = ppa.Page + 1
		a.programOps.Add(1)
		dur := a.cfg.Timing.ProgramTime(a.cfg.Geometry.RawPageBytes())
		if t := a.tele; t != nil {
			t.programs.Inc()
			t.progLatency.Observe(float64(dur))
		}
		return dur, fmt.Errorf("%w: %v", ErrProgramFailed, ppa)
	}
	pg.state = pageWritten
	pg.wearAtProg = float64(blk.pec)
	pg.scale = blk.pageScale[ppa.Page]
	blk.nextPage = ppa.Page + 1
	a.programOps.Add(1)
	dur := a.cfg.Timing.ProgramTime(a.cfg.Geometry.RawPageBytes())
	if t := a.tele; t != nil {
		t.programs.Inc()
		t.progLatency.Observe(float64(dur))
		t.tr.Emit(telemetry.Event{
			Kind: telemetry.KindPageProgram, Layer: "flash",
			Block: ppa.Block, Page: ppa.Page,
		})
	}
	return dur, nil
}

// ReadResult reports one page read.
type ReadResult struct {
	// Data is the page content (data+spare) with bit errors applied; nil in
	// metadata-only mode.
	Data []byte
	// Flips is the number of injected bit errors across the whole raw page.
	Flips int
	// RBER is the effective raw bit-error rate used for the injection.
	RBER float64
	// Duration is the operation latency including transferring n bytes.
	Duration sim.Time
	// Injected marks an injected transient read failure: RBER is pinned near
	// 0.5 and Data (when stored) is corrupted past correction, so the decode
	// above fails this attempt but a re-read senses cleanly. Device layers use
	// it to credit faults_recovered when a retry rescues the read.
	Injected bool
	// Stuck lists the block's grown stuck bit-line positions as raw-page bit
	// offsets (LSB-first within each byte, matching the flip injection
	// convention). These are the positions the media *may* have corrupted —
	// a stuck column only produces an error when the written bit disagrees
	// with the stuck value — so device layers pass them to the codec as
	// erasure candidates, not as known errors. Nil unless the stuck-column
	// model is enabled and the block has accumulated wear.
	Stuck []int
}

// Read reads a programmed page, injecting bit errors according to the
// page's effective wear. transferBytes bounds the channel-transfer cost
// (e.g. an oPage-sized host read moves only 4KB+its spare share); the error
// injection always covers the full raw page, since ECC decoding happens on
// the full sector set that was fetched. Read allocates a fresh page buffer
// per call; hot paths that can reuse storage call ReadInto instead.
func (a *Array) Read(ppa PPA, transferBytes int) (*ReadResult, error) {
	var dst []byte
	if a.cfg.StoreData {
		dst = make([]byte, a.cfg.Geometry.RawPageBytes())
	}
	res, err := a.ReadInto(ppa, transferBytes, dst)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// ReadInto is Read with caller-owned storage: when the array stores data,
// the raw page bytes (with bit errors applied) are written into dst, which
// must be at least RawPageBytes long, and ReadResult.Data aliases dst. In
// metadata-only mode dst is unused and may be nil. The device layers above
// pass a per-device scratch buffer here, making clean reads allocation-free
// end to end; callers that retain the data (GC relocation) pass an owned
// buffer instead.
func (a *Array) ReadInto(ppa PPA, transferBytes int, dst []byte) (ReadResult, error) {
	if err := a.check(ppa); err != nil {
		return ReadResult{}, err
	}
	mu := a.channelMu(ppa.Block)
	mu.Lock()
	defer mu.Unlock()
	blk := &a.blocks[ppa.Block]
	pg := &blk.pages[ppa.Page]
	if pg.state != pageWritten {
		return ReadResult{}, fmt.Errorf("%w: %v", ErrNotWritten, ppa)
	}
	if a.cfg.StoreData && len(dst) < len(pg.data) {
		return ReadResult{}, fmt.Errorf("%w: read buffer %d bytes, want %d", ErrWrongPageLen, len(dst), len(pg.data))
	}
	if transferBytes <= 0 || transferBytes > a.cfg.Geometry.RawPageBytes() {
		transferBytes = a.cfg.Geometry.RawPageBytes()
	}
	blk.reads++
	a.readOps.Add(1)

	if a.fiRead.Fire() {
		// Transient read failure: this sensing pass returns garbage (RBER
		// ~0.5), guaranteed uncorrectable on both the analytic and real-ECC
		// decode paths. The page itself is fine — a retry re-senses it.
		res := ReadResult{
			RBER:     0.5,
			Duration: a.cfg.Timing.ReadTime(transferBytes),
			Injected: true,
		}
		if a.cfg.StoreData {
			res.Data = dst[:len(pg.data):len(pg.data)]
			copy(res.Data, pg.data)
			res.Flips = corruptPage(res.Data)
			a.injectedFlips.Add(uint64(res.Flips))
		}
		if t := a.tele; t != nil {
			t.reads.Inc()
			t.flips.Add(uint64(res.Flips))
			t.rberHist.Observe(res.RBER)
			t.readLatency.Observe(float64(res.Duration))
		}
		return res, nil
	}

	rng := a.readRNG[a.cfg.Geometry.ChannelOf(ppa.Block)]
	rberEff := a.effectiveRBERLocked(ppa)
	bits := int64(a.cfg.Geometry.RawPageBytes()) * 8
	flips := int(rng.Binomial(bits, rberEff))
	res := ReadResult{
		Flips:    flips,
		RBER:     rberEff,
		Duration: a.cfg.Timing.ReadTime(transferBytes),
		Stuck:    a.stuckColumnsLocked(ppa.Block, blk),
	}
	if a.cfg.StoreData {
		res.Data = dst[:len(pg.data):len(pg.data)]
		copy(res.Data, pg.data)
		if !a.cfg.PristineReads {
			for i := 0; i < flips; i++ {
				bit := rng.Intn(int(bits))
				res.Data[bit/8] ^= 1 << uint(bit%8)
			}
			a.injectedFlips.Add(uint64(flips))
			for _, bit := range res.Stuck {
				// Force the bit-line to its stuck value; an error results
				// only where the written bit disagrees.
				mask := byte(1) << uint(bit%8)
				if a.stuckValue(ppa.Block, bit) {
					res.Data[bit/8] |= mask
				} else {
					res.Data[bit/8] &^= mask
				}
			}
		}
	}
	if t := a.tele; t != nil {
		t.reads.Inc()
		t.flips.Add(uint64(flips))
		t.rberHist.Observe(rberEff)
		t.readLatency.Observe(float64(res.Duration))
	}
	return res, nil
}

// --- grown stuck columns ---------------------------------------------------

// mix64 is a splitmix64-style finalizer used to derive stuck-column
// positions and values. It is a pure function — the stuck-column model must
// never consume from the readRNG streams, or enabling it would perturb the
// deterministic flip sequences chaos runs pin byte-for-byte.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// stuckColumnCountLocked returns how many bit-lines of the block have grown
// stuck at its current wear: linear in PEC, reaching the configured count at
// the nominal rating.
func (a *Array) stuckColumnCountLocked(blk *block) int {
	rate := a.cfg.StuckColumnsPerNominalPEC
	if rate <= 0 || blk.pec == 0 {
		return 0
	}
	n := int(rate * float64(blk.pec) / a.model.NominalPEC)
	if max := a.cfg.Geometry.RawPageBytes() * 4; n > max {
		n = max // never saturate the page: at most half the bit-lines
	}
	return n
}

// stuckColumnsLocked returns the block's distinct stuck bit positions (raw-
// page bit offsets, LSB-first per byte) in growth order, or nil when the
// model is off or the block is young. Positions derive from (Seed, block,
// ordinal) only, so the i-th column to fail is stable across reads, erases,
// restarts, and RestoreWear.
func (a *Array) stuckColumnsLocked(blockID int, blk *block) []int {
	n := a.stuckColumnCountLocked(blk)
	if n == 0 {
		return nil
	}
	rawBits := uint64(a.cfg.Geometry.RawPageBytes()) * 8
	out := make([]int, 0, n)
	for salt := uint64(0); len(out) < n; salt++ {
		pos := int(mix64(a.cfg.Seed^uint64(blockID)*0x9e3779b97f4a7c15^salt*0xd6e8feb86659fd93) % rawBits)
		dup := false
		for _, p := range out {
			if p == pos {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, pos)
		}
	}
	return out
}

// stuckValue reports the value bit position pos is stuck at in blockID —
// a pure function of (Seed, block, position), independent of wear.
func (a *Array) stuckValue(blockID, pos int) bool {
	return mix64(a.cfg.Seed^uint64(blockID)*0xff51afd7ed558ccd^uint64(pos)*0xc4ceb9fe1a85ec53)&1 == 1
}

// BlockStuckColumns returns the block's current grown stuck bit positions —
// what wear tracking exports to the layers above so their reads can hand the
// codec erasure candidates even before the first degraded read.
func (a *Array) BlockStuckColumns(blockID int) []int {
	if blockID < 0 || blockID >= len(a.blocks) {
		return nil
	}
	mu := a.channelMu(blockID)
	mu.Lock()
	defer mu.Unlock()
	return a.stuckColumnsLocked(blockID, &a.blocks[blockID])
}

// EffectiveRBER returns the page's current raw bit-error rate: wear at
// program time scaled by the page's endurance factor, plus read disturb.
func (a *Array) EffectiveRBER(ppa PPA) float64 {
	mu := a.channelMu(ppa.Block)
	mu.Lock()
	defer mu.Unlock()
	return a.effectiveRBERLocked(ppa)
}

func (a *Array) effectiveRBERLocked(ppa PPA) float64 {
	blk := &a.blocks[ppa.Block]
	pg := &blk.pages[ppa.Page]
	wear := pg.wearAtProg / float64(pg.scale)
	return a.model.RBER(wear) + a.cfg.ReadDisturbRBER*float64(blk.reads)
}

// channelMu returns the mutex guarding the channel containing block b.
func (a *Array) channelMu(b int) *sync.Mutex {
	return &a.chmu[a.cfg.Geometry.ChannelOf(b)]
}

// Erase erases a block, incrementing its PEC. Far beyond the rated limit
// the erase-verify fails and the block dies (returns ErrEraseFailed).
func (a *Array) Erase(blockID int) (sim.Time, error) {
	if blockID < 0 || blockID >= len(a.blocks) {
		return 0, fmt.Errorf("%w: block %d", ErrBadAddress, blockID)
	}
	mu := a.channelMu(blockID)
	mu.Lock()
	defer mu.Unlock()
	blk := &a.blocks[blockID]
	if blk.dead {
		return 0, fmt.Errorf("%w: block %d", ErrEraseFailed, blockID)
	}
	failAt := a.cfg.EraseFailPEC * a.model.NominalPEC * float64(blk.scale)
	if float64(blk.pec) >= failAt {
		blk.dead = true
		if t := a.tele; t != nil {
			t.eraseFails.Inc()
		}
		return a.cfg.Timing.EraseBlock, fmt.Errorf("%w: block %d at PEC %d", ErrEraseFailed, blockID, blk.pec)
	}
	blk.pec++
	blk.nextPage = 0
	blk.reads = 0
	for p := range blk.pages {
		blk.pages[p].state = pageErased
		blk.pages[p].data = nil
	}
	if a.cfg.StoreData {
		releaseArena(a.blockArena(blockID))
	}
	a.eraseOps.Add(1)
	if t := a.tele; t != nil {
		t.erases.Inc()
	}
	return a.cfg.Timing.EraseBlock, nil
}

// BlockPEC returns the block's program/erase cycle count.
func (a *Array) BlockPEC(blockID int) uint32 {
	mu := a.channelMu(blockID)
	mu.Lock()
	defer mu.Unlock()
	return a.blocks[blockID].pec
}

// BlockDead reports whether the block's erase circuitry has failed.
func (a *Array) BlockDead(blockID int) bool {
	mu := a.channelMu(blockID)
	mu.Lock()
	defer mu.Unlock()
	return a.blocks[blockID].dead
}

// RestoreWear reinstates a block's wear state from a persisted snapshot.
// It exists for durable recovery: a freshly constructed array models
// pristine flash, but the physical media whose wear was checkpointed has
// already aged — replaying content without replaying wear would reset the
// lifetime clock on every restart. Only wear is restored (PEC and the
// dead flag); page contents are replayed separately through the FTL.
func (a *Array) RestoreWear(blockID int, pec uint32, dead bool) error {
	if blockID < 0 || blockID >= len(a.blocks) {
		return fmt.Errorf("%w: block %d", ErrBadAddress, blockID)
	}
	mu := a.channelMu(blockID)
	mu.Lock()
	defer mu.Unlock()
	blk := &a.blocks[blockID]
	blk.pec = pec
	blk.dead = dead
	return nil
}

// PageEnduranceScale returns the endurance factor of one page (block scale x
// page scale); 1.0 is nominal. Scales are immutable after construction, so
// no lock is needed.
func (a *Array) PageEnduranceScale(ppa PPA) float64 {
	return float64(a.blocks[ppa.Block].pageScale[ppa.Page])
}

// PageTiredness maps a page's projected wear (its block's current PEC,
// endurance-scaled) to the tiredness level its next program would land at.
// This is what firmware consults before reusing a page.
func (a *Array) PageTiredness(ppa PPA) int {
	mu := a.channelMu(ppa.Block)
	mu.Lock()
	defer mu.Unlock()
	blk := &a.blocks[ppa.Block]
	return a.model.LevelFor(float64(blk.pec), float64(blk.pageScale[ppa.Page]))
}

// PageWritten reports whether the page currently holds data.
func (a *Array) PageWritten(ppa PPA) bool {
	mu := a.channelMu(ppa.Block)
	mu.Lock()
	defer mu.Unlock()
	return a.blocks[ppa.Block].pages[ppa.Page].state == pageWritten
}

// Stats is a SMART-style snapshot of array activity.
type Stats struct {
	ReadOps, ProgramOps, EraseOps uint64
	InjectedFlips                 uint64
	MeanPEC                       float64
	MaxPEC                        uint32
	DeadBlocks                    int
}

// Stats returns a snapshot of operation counters and wear. It locks the
// channels one at a time (in order), so the snapshot is per-channel
// consistent rather than a global freeze.
func (a *Array) Stats() Stats {
	s := Stats{
		ReadOps:       a.readOps.Load(),
		ProgramOps:    a.programOps.Load(),
		EraseOps:      a.eraseOps.Load(),
		InjectedFlips: a.injectedFlips.Load(),
	}
	var total uint64
	for ch := range a.chmu {
		a.chmu[ch].Lock()
		lo := ch * a.cfg.Geometry.BlocksPerChan
		hi := lo + a.cfg.Geometry.BlocksPerChan
		for b := lo; b < hi; b++ {
			pec := a.blocks[b].pec
			total += uint64(pec)
			if pec > s.MaxPEC {
				s.MaxPEC = pec
			}
			if a.blocks[b].dead {
				s.DeadBlocks++
			}
		}
		a.chmu[ch].Unlock()
	}
	if len(a.blocks) > 0 {
		s.MeanPEC = float64(total) / float64(len(a.blocks))
	}
	return s
}
