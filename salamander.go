// Package salamander is the public API of the Salamander reproduction: SSDs
// that expose many small minidisks matching the granularity of hardware
// failure, shed them incrementally as flash wears (ShrinkS), regenerate new
// ones from retired pages at lower code rates (RegenS), and lean on a
// distributed storage layer's existing replication to absorb the partial
// failures — extending flash lifetime and amortizing embodied carbon.
//
// The package re-exports the repository's building blocks:
//
//   - NewDevice / NewBaselineDevice — the Salamander SSD and the monolithic
//     baseline it is compared against, both running a page-mapped FTL over a
//     simulated NAND array with real BCH ECC on the data path.
//   - NewCluster — a replicated object store that treats minidisks as
//     failure domains and re-replicates on decommission events.
//   - RunFleet / FleetLifetimeFactor — the fleet lifetime Monte-Carlo behind
//     the paper's Fig. 3 and headline lifetime numbers.
//   - CarbonParams / CostParams — the Eq. 3 CO2e and Eq. 4 TCO models.
//   - MeasurePerf — the Fig. 3c/3d performance degradation harness.
//
// See the examples/ directory for runnable end-to-end scenarios and
// DESIGN.md for the system inventory and experiment index.
package salamander

import (
	"salamander/internal/blockdev"
	"salamander/internal/carbon"
	"salamander/internal/core"
	"salamander/internal/cost"
	"salamander/internal/difs"
	"salamander/internal/ec"
	"salamander/internal/ecc"
	"salamander/internal/flash"
	"salamander/internal/lifesim"
	"salamander/internal/perfmodel"
	"salamander/internal/rber"
	"salamander/internal/sim"
	"salamander/internal/ssd"
	"salamander/internal/telemetry"
)

// Host-visible device abstraction: minidisks, oPage I/O, and events.
type (
	// Device is the host-visible SSD interface shared by Salamander and
	// baseline devices.
	Device = blockdev.Device
	// MinidiskID names a minidisk within a device; IDs are never reused.
	MinidiskID = blockdev.MinidiskID
	// MinidiskInfo describes one live minidisk.
	MinidiskInfo = blockdev.MinidiskInfo
	// Event is a device notification (decommission, regenerate, brick).
	Event = blockdev.Event
	// EventKind enumerates device notifications.
	EventKind = blockdev.EventKind
)

// Device event kinds.
const (
	EventDecommission = blockdev.EventDecommission
	EventRegenerate   = blockdev.EventRegenerate
	EventBrick        = blockdev.EventBrick
	EventDrain        = blockdev.EventDrain
)

// Drainer is implemented by devices supporting grace-period
// decommissioning (§4.3): after EventDrain the host re-replicates and then
// calls Release.
type Drainer = blockdev.Drainer

// OPageSize is the host I/O granularity (4 KiB).
const OPageSize = blockdev.OPageSize

// Device construction.
type (
	// DeviceConfig parameterizes a Salamander device (internal/core).
	DeviceConfig = core.Config
	// SalamanderDevice is the paper's device: minidisks, page tiredness,
	// ShrinkS decommissioning and RegenS regeneration.
	SalamanderDevice = core.Device
	// BaselineConfig parameterizes the monolithic baseline SSD.
	BaselineConfig = ssd.Config
	// BaselineDevice bricks wholesale at the bad-block threshold (§2).
	BaselineDevice = ssd.Device
	// FlashConfig parameterizes the simulated NAND array.
	FlashConfig = flash.Config
	// FlashGeometry describes the array layout.
	FlashGeometry = flash.Geometry
	// Engine is the virtual clock device latencies accrue on.
	Engine = sim.Engine
)

// DefaultDeviceConfig returns a RegenS data-path device configuration with
// 1MB minidisks and real BCH ECC.
func DefaultDeviceConfig() DeviceConfig { return core.DefaultConfig() }

// DefaultBaselineConfig returns the baseline SSD configuration.
func DefaultBaselineConfig() BaselineConfig { return ssd.DefaultConfig() }

// NewEngine returns a fresh virtual clock.
func NewEngine() *Engine { return sim.NewEngine() }

// NewDevice builds a Salamander device on a fresh simulated flash array.
func NewDevice(cfg DeviceConfig, eng *Engine) (*SalamanderDevice, error) {
	return core.New(cfg, eng)
}

// NewBaselineDevice builds the baseline SSD the paper compares against.
func NewBaselineDevice(cfg BaselineConfig, eng *Engine) (*BaselineDevice, error) {
	return ssd.New(cfg, eng)
}

// Distributed storage.
type (
	// ClusterConfig parameterizes the replicated object store.
	ClusterConfig = difs.Config
	// Cluster treats every minidisk as an independent failure domain.
	Cluster = difs.Cluster
	// ClusterStats aggregates recovery traffic, degraded reads, and loss.
	ClusterStats = difs.Stats
)

// DefaultClusterConfig returns 3-way replication with 64KB chunks.
func DefaultClusterConfig() ClusterConfig { return difs.DefaultConfig() }

// NewCluster creates an empty replicated object store; attach devices with
// AddNode. Set ClusterConfig.ECDataShards/ECParityShards for Reed-Solomon
// erasure coding instead of replication.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return difs.NewCluster(cfg) }

// Placement selects how chunks map onto a node's minidisks.
type Placement = difs.Placement

// Placement policies.
const (
	PlacementSpread = difs.PlacementSpread
	PlacementPack   = difs.PlacementPack
)

// RSCode is a systematic Reed-Solomon erasure code over GF(2^8).
type RSCode = ec.Code

// NewRSCode constructs an RS code with k data and m parity shards.
func NewRSCode(k, m int) (*RSCode, error) { return ec.New(k, m) }

// Fleet lifetime simulation (Fig. 3a/3b and the headline factors).
type (
	// FleetConfig parameterizes the lifetime Monte-Carlo.
	FleetConfig = lifesim.Config
	// FleetMode selects baseline / ShrinkS / RegenS.
	FleetMode = lifesim.Mode
	// FleetResult carries the Fig. 3 series and summary metrics.
	FleetResult = lifesim.Result
)

// Fleet modes.
const (
	FleetBaseline = lifesim.Baseline
	FleetShrinkS  = lifesim.ShrinkS
	FleetRegenS   = lifesim.RegenS
)

// DefaultFleetConfig returns a 64-device fleet at 1 DWPD.
func DefaultFleetConfig() FleetConfig { return lifesim.DefaultConfig() }

// RunFleet simulates a fleet to extinction.
func RunFleet(cfg FleetConfig) (*FleetResult, error) { return lifesim.Run(cfg) }

// ReplacementResult reports a constant-capacity deployment simulation.
type ReplacementResult = lifesim.ReplacementResult

// RunReplacement simulates a deployment that holds capacity constant by
// purchasing replacement drives; the purchase count measures Ru directly.
func RunReplacement(cfg FleetConfig, horizonDays, floor float64) (*ReplacementResult, error) {
	return lifesim.RunReplacement(cfg, horizonDays, floor)
}

// MeasuredUpgradeRate returns purchased(mode)/purchased(baseline) for a
// constant-capacity deployment — §4.1's Ru, measured rather than assumed.
func MeasuredUpgradeRate(cfg FleetConfig, mode FleetMode, horizonDays, floor float64) (float64, error) {
	return lifesim.MeasuredUpgradeRate(cfg, mode, horizonDays, floor)
}

// FleetLifetimeFactor returns mode's mean lifetime relative to baseline.
func FleetLifetimeFactor(cfg FleetConfig, mode FleetMode) (float64, error) {
	return lifesim.LifetimeFactor(cfg, mode)
}

// Reliability and ECC models.
type (
	// ReliabilityParams configures the RBER(PEC) model.
	ReliabilityParams = rber.Params
	// ReliabilityModel is the calibrated tiredness ladder (Fig. 2).
	ReliabilityModel = rber.Model
	// LevelSpec is one rung of the ladder.
	LevelSpec = rber.LevelSpec
	// BCHCode is a real binary BCH encoder/decoder over GF(2^m).
	BCHCode = ecc.Code
	// SectorGeometry maps spare bytes to correction capability.
	SectorGeometry = ecc.SectorGeometry
)

// DefaultReliabilityParams returns 3D-TLC-like parameters (3000 PEC,
// fresh RBER 1e-6, UBER target 1e-15).
func DefaultReliabilityParams() ReliabilityParams { return rber.DefaultParams() }

// NewReliabilityModel calibrates the tiredness ladder (Fig. 2's data).
func NewReliabilityModel(p ReliabilityParams) (*ReliabilityModel, error) { return rber.New(p) }

// LevelGeometry returns the ECC geometry of a tiredness-level-L fPage.
func LevelGeometry(level int) SectorGeometry { return rber.LevelGeometry(level) }

// NewBCHCode constructs a BCH code over GF(2^m) protecting dataBits with
// correction capability t.
func NewBCHCode(m, dataBits, t int) (*BCHCode, error) { return ecc.NewCode(m, dataBits, t) }

// Sustainability and cost models.
type (
	// CarbonParams are Eq. 3's inputs.
	CarbonParams = carbon.Params
	// CarbonScenario is one bar of Fig. 4.
	CarbonScenario = carbon.Scenario
	// CostParams are Eq. 4's inputs.
	CostParams = cost.Params
)

// Fig4Scenarios returns the paper's Figure 4 scenario set.
func Fig4Scenarios() []CarbonScenario { return carbon.Fig4() }

// CarbonSavingsFromLifetime converts a measured lifetime factor into Eq. 3
// CO2e savings.
func CarbonSavingsFromLifetime(factor float64, renewable bool) float64 {
	return carbon.SavingsFromMeasuredLifetime(factor, renewable)
}

// Performance model (Fig. 3c/3d).
type (
	// PerfConfig parameterizes the measurement harness.
	PerfConfig = perfmodel.Config
	// PerfResult is one measured sweep point.
	PerfResult = perfmodel.Result
)

// DefaultPerfConfig measures 32MB datasets with 2000 random reads/point.
func DefaultPerfConfig() PerfConfig { return perfmodel.DefaultConfig() }

// MeasurePerf sweeps L1-page fractions and returns normalized results.
func MeasurePerf(cfg PerfConfig, fractions []float64) ([]*PerfResult, error) {
	return perfmodel.Sweep(cfg, fractions)
}

// PerfDegradationFactor returns the paper's 4/(4-L).
func PerfDegradationFactor(level int) float64 { return perfmodel.DegradationFactor(level) }

// Telemetry (cross-layer observability). Devices and clusters expose an
// Instrument(registry, tracer) method that rebinds their counters to a
// shared registry and routes their trace events into a shared ring, so one
// registry can span flash, FTL, device, and diFS layers.
type (
	// TelemetryRegistry collects named counters, gauges, and latency
	// histograms; Snapshot/Diff give point-in-time and interval views.
	TelemetryRegistry = telemetry.Registry
	// TelemetryTracer is a bounded ring of cross-layer trace events with
	// JSONL export and subscriber hooks.
	TelemetryTracer = telemetry.Tracer
	// TelemetrySnapshot is a point-in-time copy of a registry's state.
	TelemetrySnapshot = telemetry.Snapshot
	// TraceEvent is one structured cross-layer trace record.
	TraceEvent = telemetry.Event
	// TraceEventKind names a trace event type (page_program, gc_victim,
	// tiredness_transition, minidisk_retire, ...).
	TraceEventKind = telemetry.EventKind
)

// NewTelemetryRegistry returns an empty metric registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewTelemetryTracer returns a tracer retaining the last capacity events
// (telemetry.DefaultTraceCapacity if capacity <= 0).
func NewTelemetryTracer(capacity int) *TelemetryTracer { return telemetry.NewTracer(capacity) }
