package blockdev

import (
	"bytes"
	"errors"
	"fmt"
)

// ConformanceError describes a Device contract violation found by
// CheckConformance.
type ConformanceError struct {
	Rule string
	Err  error
}

func (e *ConformanceError) Error() string {
	return fmt.Sprintf("blockdev conformance: %s: %v", e.Rule, e.Err)
}

func (e *ConformanceError) Unwrap() error { return e.Err }

func fail(rule string, format string, args ...any) error {
	return &ConformanceError{Rule: rule, Err: fmt.Errorf(format, args...)}
}

// CheckConformance exercises the Device interface contract on a fresh
// device and returns the first violation found (nil if conformant):
//
//   - Minidisks returns at least one live disk with positive capacity.
//   - Reads and writes round-trip at every disk's first and last LBA.
//   - Unwritten LBAs read as zeros.
//   - Out-of-range addresses return ErrBadLBA/ErrNoSuchMinidisk and
//     wrong-sized buffers return ErrBufSize, without mutating state.
//   - Trim makes an LBA read as zeros again.
//   - Notify accepts a handler without invoking it synchronously for
//     ordinary I/O.
//
// Every Device implementation in this repository (MemDevice, the baseline
// SSD, the Salamander device, and both durable kinds over a store) is held
// to this same contract by its tests.
func CheckConformance(dev Device) error {
	mds := dev.Minidisks()
	if len(mds) == 0 {
		return fail("minidisks", "fresh device exposes no minidisks")
	}
	for _, m := range mds {
		if m.LBAs <= 0 {
			return fail("minidisks", "minidisk %d has %d LBAs", m.ID, m.LBAs)
		}
	}

	events := 0
	dev.Notify(func(Event) { events++ })

	buf := make([]byte, OPageSize)
	pattern := func(seed byte) []byte {
		p := make([]byte, OPageSize)
		for i := range p {
			p[i] = seed ^ byte(i*37)
		}
		return p
	}

	// Round trip at the first and last LBA of up to four disks.
	probe := mds
	if len(probe) > 4 {
		probe = probe[:4]
	}
	for di, m := range probe {
		for _, lba := range []int{0, m.LBAs - 1} {
			want := pattern(byte(di*16 + lba))
			if err := dev.Write(m.ID, lba, want); err != nil {
				return fail("write", "md %d lba %d: %v", m.ID, lba, err)
			}
			if err := dev.Read(m.ID, lba, buf); err != nil {
				return fail("read", "md %d lba %d: %v", m.ID, lba, err)
			}
			if !bytes.Equal(buf, want) {
				return fail("round-trip", "md %d lba %d returned different bytes", m.ID, lba)
			}
		}
	}

	// Unwritten LBA reads zeros (use a middle LBA on the last probed disk).
	m := probe[len(probe)-1]
	if m.LBAs > 2 {
		if err := dev.Read(m.ID, m.LBAs/2, buf); err != nil {
			return fail("read-unwritten", "md %d: %v", m.ID, err)
		}
		for _, b := range buf {
			if b != 0 {
				return fail("read-unwritten", "md %d read non-zero from unwritten LBA", m.ID)
			}
		}
	}

	// Error contract.
	badID := MinidiskID(1 << 30)
	if err := dev.Read(badID, 0, buf); !errors.Is(err, ErrNoSuchMinidisk) && !errors.Is(err, ErrBricked) {
		return fail("bad-minidisk", "Read(%d) = %v, want ErrNoSuchMinidisk", badID, err)
	}
	if err := dev.Read(m.ID, m.LBAs, buf); !errors.Is(err, ErrBadLBA) {
		return fail("bad-lba", "Read past end = %v, want ErrBadLBA", err)
	}
	if err := dev.Read(m.ID, -1, buf); !errors.Is(err, ErrBadLBA) {
		return fail("bad-lba", "Read(-1) = %v, want ErrBadLBA", err)
	}
	if err := dev.Write(m.ID, 0, buf[:OPageSize-1]); !errors.Is(err, ErrBufSize) {
		return fail("buf-size", "short write buffer = %v, want ErrBufSize", err)
	}
	if err := dev.Read(m.ID, 0, buf[:1]); !errors.Is(err, ErrBufSize) {
		return fail("buf-size", "short read buffer = %v, want ErrBufSize", err)
	}

	// Overwrite visibility.
	newer := pattern(0xEE)
	if err := dev.Write(m.ID, 0, newer); err != nil {
		return fail("overwrite", "%v", err)
	}
	if err := dev.Read(m.ID, 0, buf); err != nil {
		return fail("overwrite", "read back: %v", err)
	}
	if !bytes.Equal(buf, newer) {
		return fail("overwrite", "stale data after overwrite")
	}

	// Trim semantics.
	if err := dev.Trim(m.ID, 0); err != nil {
		return fail("trim", "%v", err)
	}
	if err := dev.Read(m.ID, 0, buf); err != nil {
		return fail("trim", "read after trim: %v", err)
	}
	for _, b := range buf {
		if b != 0 {
			return fail("trim", "trimmed LBA reads non-zero")
		}
	}

	// Ordinary I/O on a healthy device must not have emitted events.
	if events != 0 {
		return fail("events", "%d events during ordinary I/O on a fresh device", events)
	}
	return nil
}
