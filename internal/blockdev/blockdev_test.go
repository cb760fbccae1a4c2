package blockdev

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestMinidiskInfoBytes(t *testing.T) {
	m := MinidiskInfo{LBAs: 256}
	if m.Bytes() != 1<<20 {
		t.Errorf("256 oPages = %d bytes, want 1MiB", m.Bytes())
	}
}

func TestEventKindString(t *testing.T) {
	if EventDecommission.String() != "decommission" ||
		EventRegenerate.String() != "regenerate" ||
		EventBrick.String() != "brick" {
		t.Error("EventKind strings wrong")
	}
	if !strings.Contains(EventKind(99).String(), "99") {
		t.Error("unknown kind string")
	}
	e := Event{Kind: EventDecommission, Minidisk: 3, Info: MinidiskInfo{Tiredness: 1}}
	if !strings.Contains(e.String(), "md=3") {
		t.Errorf("Event.String() = %q", e.String())
	}
}

func TestMemDeviceReadWrite(t *testing.T) {
	d := NewMemDevice(2, 256)
	if got := len(d.Minidisks()); got != 2 {
		t.Fatalf("minidisks = %d", got)
	}
	buf := bytes.Repeat([]byte{0x5A}, OPageSize)
	if err := d.Write(0, 10, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, OPageSize)
	if err := d.Read(0, 10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("read != write")
	}
	// Unwritten LBA reads zeros even with a dirty buffer.
	if err := d.Read(0, 11, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten LBA not zero")
		}
	}
}

func TestMemDeviceErrors(t *testing.T) {
	d := NewMemDevice(1, 16)
	buf := make([]byte, OPageSize)
	if err := d.Read(5, 0, buf); !errors.Is(err, ErrNoSuchMinidisk) {
		t.Errorf("missing minidisk: %v", err)
	}
	if err := d.Read(0, 16, buf); !errors.Is(err, ErrBadLBA) {
		t.Errorf("bad lba: %v", err)
	}
	if err := d.Read(0, -1, buf); !errors.Is(err, ErrBadLBA) {
		t.Errorf("negative lba: %v", err)
	}
	if err := d.Write(0, 0, buf[:10]); !errors.Is(err, ErrBufSize) {
		t.Errorf("short buffer: %v", err)
	}
	if err := d.Trim(0, 99); !errors.Is(err, ErrBadLBA) {
		t.Errorf("trim bad lba: %v", err)
	}
	if err := d.Trim(7, 0); !errors.Is(err, ErrNoSuchMinidisk) {
		t.Errorf("trim bad disk: %v", err)
	}
}

func TestMemDeviceFailMinidisk(t *testing.T) {
	d := NewMemDevice(3, 16)
	var events []Event
	d.Notify(func(e Event) { events = append(events, e) })
	if err := d.FailMinidisk(1); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != EventDecommission || events[0].Minidisk != 1 {
		t.Fatalf("events = %v", events)
	}
	if err := d.FailMinidisk(1); !errors.Is(err, ErrNoSuchMinidisk) {
		t.Errorf("double fail: %v", err)
	}
	buf := make([]byte, OPageSize)
	if err := d.Read(1, 0, buf); !errors.Is(err, ErrNoSuchMinidisk) {
		t.Errorf("read of failed disk: %v", err)
	}
	if got := len(d.Minidisks()); got != 2 {
		t.Errorf("live disks = %d", got)
	}
}

func TestMemDeviceRegenerate(t *testing.T) {
	d := NewMemDevice(1, 16)
	var events []Event
	d.Notify(func(e Event) { events = append(events, e) })
	id := d.AddMinidisk(16, 1)
	if id != 1 {
		t.Errorf("new id = %d", id)
	}
	if len(events) != 1 || events[0].Kind != EventRegenerate {
		t.Fatalf("events = %v", events)
	}
	if events[0].Info.Tiredness != 1 {
		t.Errorf("tiredness = %d", events[0].Info.Tiredness)
	}
	// IDs are never reused.
	if err := d.FailMinidisk(id); err != nil {
		t.Fatal(err)
	}
	if id2 := d.AddMinidisk(16, 1); id2 == id {
		t.Error("minidisk ID reused")
	}
}

func TestMemDeviceBrick(t *testing.T) {
	d := NewMemDevice(2, 16)
	var events []Event
	d.Notify(func(e Event) { events = append(events, e) })
	d.Brick()
	if len(events) != 1 || events[0].Kind != EventBrick {
		t.Fatalf("events = %v", events)
	}
	buf := make([]byte, OPageSize)
	if err := d.Read(0, 0, buf); !errors.Is(err, ErrBricked) {
		t.Errorf("read after brick: %v", err)
	}
	if err := d.Write(0, 0, buf); !errors.Is(err, ErrBricked) {
		t.Errorf("write after brick: %v", err)
	}
	if err := d.Trim(0, 0); !errors.Is(err, ErrBricked) {
		t.Errorf("trim after brick: %v", err)
	}
	// Idempotent.
	d.Brick()
	if len(events) != 1 {
		t.Error("second brick emitted another event")
	}
}

func TestMemDeviceTrim(t *testing.T) {
	d := NewMemDevice(1, 16)
	buf := bytes.Repeat([]byte{1}, OPageSize)
	if err := d.Write(0, 3, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Trim(0, 3); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, OPageSize)
	if err := d.Read(0, 3, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("trimmed LBA not zero")
		}
	}
}

func TestMemDeviceConformance(t *testing.T) {
	if err := CheckConformance(NewMemDevice(4, 64)); err != nil {
		t.Fatal(err)
	}
}
