package core

import "salamander/internal/blockdev"

// ScrubReport summarizes one background media scan.
type ScrubReport struct {
	// Scanned counts mapped oPages read.
	Scanned int
	// Refreshed counts oPages rewritten because their page's effective
	// raw bit-error rate had drifted close to the level's ECC ceiling
	// (read disturb accumulation, deep wear).
	Refreshed int
	// Lost counts oPages that could no longer be read; their LBAs will
	// return ErrUncorrectable until overwritten, and the distributed layer
	// should re-replicate them.
	Lost int
}

// Scrub performs a background media scan (the patrol read real SSD
// firmware schedules): every mapped oPage is read through ECC; data on
// pages drifting toward their correction ceiling is rewritten to fresh
// pages, and unreadable oPages are surfaced as lost. Scrubbing costs real
// device time on the virtual clock.
func (d *Device) Scrub() (ScrubReport, error) {
	d.e.Lock()
	defer d.e.Unlock()
	if d.e.Dead() {
		return ScrubReport{}, blockdev.ErrBricked
	}
	var keys []int64
	for _, m := range d.mdisks {
		if m.state == mdDead {
			continue
		}
		for lba := 0; lba < m.info.LBAs; lba++ {
			keys = append(keys, packKey(m.info.ID, lba))
		}
	}
	var rep ScrubReport
	var err error
	rep.Scanned, rep.Refreshed, rep.Lost, err = d.e.Scrub(keys)
	return rep, err
}
