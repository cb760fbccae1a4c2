package blockdev

import (
	"errors"
	"fmt"
	"sync"

	"salamander/internal/store"
)

// pgFormat is the store key of one committed host oPage: pg/<minidisk>/<lba>.
const pgFormat = "pg/%d/%d"

// writesPerCheckpoint is how many page writes may elapse between two calls
// of a Persister's checkpoint function.
const writesPerCheckpoint = 64

func pgKey(md MinidiskID, lba int) string { return fmt.Sprintf(pgFormat, md, lba) }

// Persister mirrors the host pages of a Device into a store.Store, so they
// survive process death. It is the one page path behind both durable device
// kinds (OpenDurable here, core.OpenDurable for the Salamander device): each
// wraps its device, embeds a Persister for Write, Trim, Notify, Damaged and
// Close, and keeps only its own state records beside it.
//
// Write ordering is device first, store second, ack last, under one mutex,
// so the store sees each page's mutations in device order and a crash
// between the two calls loses only an unacknowledged page. Reads never
// touch the store or the mutex.
type Persister struct {
	mu         sync.Mutex
	dev        Device
	st         store.Store
	checkpoint func() error // nil: no state beside the pages
	writes     int
	damaged    []string
}

// Persist opens the page mirror of dev in st. Every committed page is
// written back through dev's own Write; pages of minidisks or LBAs dev does
// not expose are reclaimed. Records that fail to decode or have the wrong
// length are reclaimed too, and Damaged lists them after the caller's own
// damaged records. checkpoint, if not nil, runs every writesPerCheckpoint
// page writes and on Close.
func Persist(dev Device, st store.Store, checkpoint func() error, damaged []string) (*Persister, error) {
	p := &Persister{dev: dev, st: st, checkpoint: checkpoint, damaged: damaged}
	// Prune from the start, so a decommission during replay already
	// reclaims its pages.
	p.Notify(nil)
	keys, err := st.List("pg/")
	if err != nil {
		return nil, fmt.Errorf("blockdev: replay: %w", err)
	}
	lbas := map[MinidiskID]int{}
	for _, m := range dev.Minidisks() {
		lbas[m.ID] = m.LBAs
	}
	// Reclaiming deletes are best effort: a record a failed delete leaves
	// behind is dropped again by the next open.
	for _, k := range keys {
		var md MinidiskID
		var lba int
		if _, err := fmt.Sscanf(k, pgFormat, &md, &lba); err != nil {
			p.damaged = append(p.damaged, k)
			_ = st.Delete(k)
			continue
		}
		if n, ok := lbas[md]; !ok || lba < 0 || lba >= n {
			// The minidisk's decommission committed before this page's
			// delete did: reclaim the orphan.
			_ = st.Delete(k)
			continue
		}
		raw, err := st.Get(k)
		if err != nil || len(raw) != OPageSize {
			p.damaged = append(p.damaged, k)
			_ = st.Delete(k)
			continue
		}
		err = dev.Write(md, lba, raw)
		switch {
		case errors.Is(err, ErrNoSuchMinidisk) || errors.Is(err, ErrBricked):
			// The device shrank mid-replay: the page is repair work for the
			// layer above.
			_ = st.Delete(k)
		case err != nil:
			return nil, fmt.Errorf("blockdev: replay %s: %w", k, err)
		}
	}
	return p, nil
}

// Damaged lists the store records open dropped because they failed to
// decode or had the wrong length (empty on a clean open).
func (p *Persister) Damaged() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.damaged...)
}

// Write implements Device: device write, then store put, then ack. A store
// failure fails the write, since the caller must not ack what the store did
// not take.
func (p *Persister) Write(md MinidiskID, lba int, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.dev.Write(md, lba, buf); err != nil {
		return err
	}
	if err := p.st.Put(pgKey(md, lba), buf); err != nil {
		return fmt.Errorf("blockdev: durable write md %d lba %d: %w", md, lba, err)
	}
	if p.writes++; p.checkpoint == nil || p.writes%writesPerCheckpoint != 0 {
		return nil
	}
	return p.checkpoint()
}

// Trim implements Device, forgetting the page durably.
func (p *Persister) Trim(md MinidiskID, lba int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.dev.Trim(md, lba); err != nil {
		return err
	}
	return p.st.Delete(pgKey(md, lba))
}

// Notify implements Device, chaining fn behind the pruning of the pages of
// capacity the device withdraws: one minidisk's on EventDecommission, all
// on EventBrick. Both run under the device's lock, as every Notify handler
// does, and so touch only the store. Pruning is best effort, since the
// withdrawal has already happened: a page it misses is an orphan that open
// reclaims once its minidisk is gone.
func (p *Persister) Notify(fn func(Event)) {
	p.dev.Notify(func(e Event) {
		prefix := "pg/"
		if e.Kind == EventDecommission {
			prefix = fmt.Sprintf("pg/%d/", e.Minidisk)
		}
		if e.Kind == EventDecommission || e.Kind == EventBrick {
			keys, _ := p.st.List(prefix)
			for _, k := range keys {
				_ = p.st.Delete(k)
			}
		}
		if fn != nil {
			fn(e)
		}
	})
}

// Close checkpoints and syncs the store. The store stays open: its owner
// closes it.
func (p *Persister) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.checkpoint != nil {
		if err := p.checkpoint(); err != nil {
			return err
		}
	}
	return p.st.Sync()
}
