package core

import (
	"fmt"

	"salamander/internal/blockdev"
	"salamander/internal/flash"
	"salamander/internal/ftl"
	"salamander/internal/rber"
	"salamander/internal/telemetry"
)

// --- the Salamander Lifecycle (§3.3, §3.4) -----------------------------------

// salamander is the Device as the engine's ftl.Lifecycle: flash retires a
// page at a time, capacity is shed a minidisk at a time, and (RegenS) worn
// pages return to service at lower code rates. It is a separate type so the
// policy's methods stay out of the device's exported surface.
type salamander Device

// AdmitBlock: physically dead blocks retire; blocks whose pages are all
// limbo or dead are parked aside ("barren") until regeneration revives them.
func (p *salamander) AdmitBlock(block int) bool {
	switch {
	case p.e.Array().BlockDead(block):
		p.e.RetireBlock(block)
		return false
	case p.e.BlockServing(block) == 0:
		p.barren = append(p.barren, block)
		return false
	}
	return true
}

// ProgramFailed: only the failed page dies — Salamander retires pages, not
// blocks. On the host path the entries return to the NV buffer (relocating
// through the normal flush path) before Eq. 2 re-runs over the lost
// capacity, so a decommission triggered here drops their keys correctly. In
// GC the collector retries on the next serving page and Eq. 2 runs from
// Erased, after every entry is re-homed.
func (p *salamander) ProgramFailed(ppa flash.PPA, host []ftl.BufEntry) bool {
	p.e.KillPage(ppa)
	if host != nil {
		p.e.Requeue(host)
		(*Device)(p).capacityChecks()
	}
	return false
}

// Erased: erasing is where NAND wear advances, so tiredness transitions,
// Eq. 2 capacity checks, decommissioning, and regeneration all run from
// here.
func (p *salamander) Erased(block int, err error) {
	d := (*Device)(p)
	if err != nil {
		d.e.RetireBlock(block)
		d.retirePages(block)
	} else {
		d.applyTransitions(block)
		if d.e.BlockServing(block) > 0 {
			d.e.FreeBlock(block)
		} else {
			d.barren = append(d.barren, block)
		}
	}
	d.capacityChecks()
}

// Exhausted: nothing is left to reclaim; the device has shrunk to nothing.
func (p *salamander) Exhausted() { (*Device)(p).retire() }

// retirePages marks every page of a physically dead block as dead.
func (d *Device) retirePages(block int) {
	for p := 0; p < d.e.Array().Geometry().PagesPerBlock; p++ {
		d.e.KillPage(flash.PPA{Block: block, Page: p})
	}
}

// applyTransitions re-evaluates tiredness for a freshly erased block (§3.1):
// serving pages whose wear crossed their level's PEC limit move to limbo (or
// die in ShrinkS); limbo pages keep tiring until they die.
func (d *Device) applyTransitions(block int) {
	for p := 0; p < d.e.Array().Geometry().PagesPerBlock; p++ {
		ppa := flash.PPA{Block: block, Page: p}
		pi := d.e.Page(ppa)
		t := d.e.Array().PageTiredness(ppa)
		if pi.Status == ftl.PageDead || t <= int(pi.Level) {
			continue
		}
		from := "serving"
		if pi.Status == ftl.PageLimbo {
			from = "limbo"
		}
		to := "limbo"
		if t > d.cfg.MaxLevel || t > rber.MaxUsableLevel {
			to = "dead"
			d.e.KillPage(ppa)
		} else {
			d.e.SetPage(ppa, ftl.PageLimbo, t)
		}
		d.e.Trace(telemetry.Event{
			Kind: telemetry.KindTirednessTransition, Block: block, Page: p, Level: t, Detail: from + "->" + to,
		})
	}
}

// --- capacity management (Eq. 2), decommissioning, regeneration -------------

// capacityChecks enforces Eq. 2 — serving capacity must cover live LBAs plus
// the GC reserve — decommissioning victims until it does, then regenerates
// minidisks from accumulated limbo capacity (RegenS).
func (d *Device) capacityChecks() {
	shrunk := 0
	for !d.e.Dead() && d.e.ServingSlots() < d.liveLBAs+d.reserve {
		if !d.decommissionOne() {
			d.retire()
			return
		}
		shrunk++
	}
	if shrunk > 0 {
		// The paper's headline: where the baseline would brick on a capacity
		// deficit, Salamander sheds minidisks and keeps serving.
		d.e.Trace(telemetry.Event{
			Kind: telemetry.KindBrickAvoided, N: int64(shrunk), Detail: "shrunk instead of bricking",
		})
	}
	if d.cfg.MaxLevel >= 1 {
		d.maybeRegenerate()
	}
	d.updateGauges()
	if d.liveLBAs == 0 && !d.e.Dead() {
		d.retire()
	}
}

// decommissionOne retires one live minidisk (§3.3): its LBAs are invalidated
// (the diFS recovers them from replicas elsewhere) and the host is notified.
// Victim policy: highest tiredness class first — regenerated disks sit on
// the weakest pages and are intentionally shorter-lived (§4.3) — then lowest
// ID for determinism. Under GraceDecommission the victim drains instead:
// it leaves the logical capacity immediately but its data stays readable
// until the host calls Release.
func (d *Device) decommissionOne() bool {
	var victim *minidisk
	for _, m := range d.mdisks {
		if m.state != mdLive {
			continue
		}
		if victim == nil || m.info.Tiredness > victim.info.Tiredness {
			victim = m
		}
	}
	if victim == nil {
		return false
	}
	d.liveLBAs -= victim.info.LBAs
	if d.cfg.GraceDecommission {
		victim.state = mdDraining
		d.tele.drains.Inc()
		d.e.Trace(telemetry.Event{
			Kind:     telemetry.KindMinidiskRetire,
			Minidisk: int(victim.info.ID), Level: victim.info.Tiredness, Detail: "drain",
		})
		d.emit(blockdev.Event{Kind: blockdev.EventDrain, Minidisk: victim.info.ID, Info: victim.info})
		return true
	}
	d.finishDecommission(victim, "decommission")
	return true
}

// finishDecommission takes a minidisk's data away for good: every mapping
// is dropped so its slots become reclaimable garbage, and the host is told.
// detail names the route here in the trace.
func (d *Device) finishDecommission(m *minidisk, detail string) {
	for lba := 0; lba < m.info.LBAs; lba++ {
		d.e.Trim(packKey(m.info.ID, lba))
	}
	m.state = mdDead
	d.tele.decommissions.Inc()
	d.e.Trace(telemetry.Event{
		Kind:     telemetry.KindMinidiskRetire,
		Minidisk: int(m.info.ID), Level: m.info.Tiredness, Detail: detail,
	})
	d.emit(blockdev.Event{Kind: blockdev.EventDecommission, Minidisk: m.info.ID, Info: m.info})
}

// Release implements blockdev.Drainer: the host has safely re-replicated a
// draining minidisk's data, so its space can be reclaimed and the
// decommission completed.
func (d *Device) Release(md blockdev.MinidiskID) error {
	d.e.Lock()
	defer d.e.Unlock()
	if d.e.Dead() {
		return blockdev.ErrBricked
	}
	if md < 0 || int(md) >= len(d.mdisks) || d.mdisks[md].state != mdDraining {
		return fmt.Errorf("%w: %d is not draining", blockdev.ErrNoSuchMinidisk, md)
	}
	d.tele.releases.Inc()
	d.finishDecommission(d.mdisks[md], "release")
	return nil
}

// maybeRegenerate creates new minidisks from limbo pages (§3.4): when an
// mSize worth of capacity is claimable at tiredness level j, the pages
// return to service at level j and a fresh minidisk is announced.
func (d *Device) maybeRegenerate() {
	for j := 1; j <= d.cfg.MaxLevel; j++ {
		slotsPer := rber.OPagesPerFPage - j
		need := (d.cfg.MSizeOPages + slotsPer - 1) / slotsPer
		for d.e.Limbo()[j] >= need {
			claimed := d.claimPages(j, need)
			if len(claimed) < need {
				// Limbo pages exist but sit in blocks that are not erased
				// right now; retry after future collections.
				break
			}
			for _, ppa := range claimed {
				d.e.SetPage(ppa, ftl.PageServing, j)
			}
			d.reviveBarren()
			id := blockdev.MinidiskID(len(d.mdisks))
			info := blockdev.MinidiskInfo{ID: id, LBAs: d.cfg.MSizeOPages, Tiredness: j}
			d.mdisks = append(d.mdisks, &minidisk{info: info})
			d.liveLBAs += info.LBAs
			d.tele.regenerations.Inc()
			d.e.Trace(telemetry.Event{Kind: telemetry.KindMinidiskRegen, Minidisk: int(id), Level: j})
			d.emit(blockdev.Event{Kind: blockdev.EventRegenerate, Minidisk: id, Info: info})
		}
	}
}

// claimPages gathers need limbo pages at level j from erased blocks (free
// pool and barren list) — only erased pages can re-enter the program order.
// It returns nil when fewer than need are claimable.
func (d *Device) claimPages(j, need int) []flash.PPA {
	var out []flash.PPA
	for _, b := range append(d.e.FreeBlocks(), d.barren...) {
		for p := 0; p < d.e.Array().Geometry().PagesPerBlock && len(out) < need; p++ {
			ppa := flash.PPA{Block: b, Page: p}
			if pi := d.e.Page(ppa); pi.Status == ftl.PageLimbo && int(pi.Level) == j {
				out = append(out, ppa)
			}
		}
		if len(out) >= need {
			return out
		}
	}
	return nil
}

// reviveBarren returns parked blocks that regained serving capacity to the
// free pool.
func (d *Device) reviveBarren() {
	var still []int
	for _, b := range d.barren {
		if d.e.BlockServing(b) > 0 {
			d.e.FreeBlock(b)
		} else {
			still = append(still, b)
		}
	}
	d.barren = still
}

// retire marks the device as fully consumed and notifies the host. Any
// still-live minidisks are decommissioned first (draining disks are
// force-released — the device can no longer honor the grace contract) so
// the distributed layer sees every failure domain disappear before the
// device-level event.
func (d *Device) retire() {
	if d.e.Dead() {
		return
	}
	for d.decommissionOne() {
	}
	for _, m := range d.mdisks {
		if m.state == mdDraining {
			d.finishDecommission(m, "force_release")
		}
	}
	d.e.MarkDead()
	d.e.Trace(telemetry.Event{Kind: telemetry.KindMinidiskRetire, Detail: "device_retired"})
	d.emit(blockdev.Event{Kind: blockdev.EventBrick})
}
