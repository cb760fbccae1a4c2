package flash

import "salamander/internal/sim"

// Bus models per-channel occupancy so device layers can schedule operations
// on independent channels in parallel: two page reads on different channels
// overlap, two on the same channel serialize. The paper's §4.2 notes that
// this is one of the mitigations for RegenS's multi-page large accesses.
// It is a thin wrapper over sim.Lanes keeping the flash-flavoured API.
type Bus struct {
	lanes *sim.Lanes
}

// NewBus creates a bus with the given number of channels.
func NewBus(channels int) *Bus {
	return &Bus{lanes: sim.NewLanes(channels)}
}

// Reserve schedules an operation of duration dur on channel ch no earlier
// than now, returning its start and completion times. The channel is busy
// until the completion time.
func (b *Bus) Reserve(ch int, now, dur sim.Time) (start, end sim.Time) {
	return b.lanes.Reserve(ch, now, dur)
}

// Reset clears all channel occupancy (e.g. between measured accesses, to
// model an otherwise idle device).
func (b *Bus) Reset() { b.lanes.Reset() }
