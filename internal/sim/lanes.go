package sim

import "fmt"

// Lanes tracks per-lane occupancy on the virtual clock so schedulers can
// model operations that overlap across independent hardware resources
// (flash channels, network links) while serializing within one resource.
// Reserving an operation on lane i starts it no earlier than both the
// requested ready time and the lane's previous completion, and marks the
// lane busy until the operation completes.
//
// Lanes itself performs no synchronization: it is a virtual-time ledger,
// typically owned by a single scheduling goroutine. Guard it externally if
// reservations are made from multiple goroutines.
type Lanes struct {
	busy []Time
}

// NewLanes returns a ledger with n lanes, all idle at time zero. n is
// clamped to at least 1.
func NewLanes(n int) *Lanes {
	if n < 1 {
		n = 1
	}
	return &Lanes{busy: make([]Time, n)}
}

// Reserve schedules an operation of duration dur on lane i no earlier than
// ready, returning its start and completion times. Lane indexes wrap so
// callers can pass raw resource IDs.
func (l *Lanes) Reserve(i int, ready, dur Time) (start, end Time) {
	if dur < 0 {
		panic(fmt.Sprintf("sim: negative reservation %v", dur))
	}
	i %= len(l.busy)
	if i < 0 {
		i += len(l.busy)
	}
	start = ready
	if l.busy[i] > start {
		start = l.busy[i]
	}
	end = start + dur
	l.busy[i] = end
	return start, end
}

// Reset clears all occupancy, modelling an otherwise idle device.
func (l *Lanes) Reset() {
	for i := range l.busy {
		l.busy[i] = 0
	}
}
