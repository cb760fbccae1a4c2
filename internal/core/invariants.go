package core

import (
	"fmt"
	"strings"
)

// CheckInvariants verifies the device's internal accounting against the
// DESIGN.md §6 invariants that are visible at this layer:
//
//  1. page-state conservation — every fPage is serving, limbo, or dead, and
//     the limbo tallies match the per-page states;
//  2. the per-block serving-slot sums equal the device-wide serving capacity;
//  3. the mapping table and the valid slots are one bijection;
//  4. Eq. 2 — serving capacity covers live LBAs plus the GC reserve (unless
//     the device has retired);
//  5. the live-LBA ledger equals the sum of live minidisk capacities.
//
// The first three are the engine's own (ftl.Engine.CheckInvariants). It is a
// pure read (no clock advance, no state change), so chaos drivers can call it
// between operations. Returns nil when everything holds, or an error listing
// every violation.
func (d *Device) CheckInvariants() error {
	d.e.Lock()
	defer d.e.Unlock()
	bad := d.e.CheckInvariants()
	if !d.e.Dead() && d.e.ServingSlots() < d.liveLBAs+d.reserve {
		bad = append(bad, fmt.Sprintf("Eq. 2 violated: serving %d < live %d + reserve %d", d.e.ServingSlots(), d.liveLBAs, d.reserve))
	}
	liveSum := 0
	for _, m := range d.mdisks {
		if m.state == mdLive {
			liveSum += m.info.LBAs
		}
	}
	if liveSum != d.liveLBAs {
		bad = append(bad, fmt.Sprintf("live LBAs %d != sum of live minidisks %d", d.liveLBAs, liveSum))
	}
	if d.liveLBAs < 0 || d.e.ServingSlots() < 0 {
		bad = append(bad, fmt.Sprintf("negative capacity: live %d serving %d", d.liveLBAs, d.e.ServingSlots()))
	}

	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("core: invariant violations: %s", strings.Join(bad, "; "))
}
