package main

import (
	"reflect"
	"strings"
	"testing"

	"salamander/internal/blockdev"
	"salamander/internal/telemetry"
)

// The wrappers must not change what the stack does. The same seeded ops
// through a wrapped (net) and an unwrapped (off) worn fleet leave identical
// registry counters and identical virtual-time histograms — wall-clock
// histograms are the only thing allowed to differ.
func TestWrappersAreTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two worn fleets")
	}
	sp, _ := findSpec("worn_read")
	sp = sp.quick()
	o := runOpts{seed: 7}
	res := &result{Samples: map[string]int{}}
	m := newMetricSet(perLayer)
	net, err := res.runPass(sp, o, passNet, m)
	if err != nil {
		t.Fatal(err)
	}
	off, err := res.runPass(sp, o, passOff, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 || res.Failed > 0 {
		t.Fatalf("passes were not clean: %d failed, %v", res.Failed, res.Violations)
	}
	if len(net.spans) <= sp.traceOps || len(off.spans) != sp.traceOps {
		t.Fatalf("net recorded %d spans and off %d for %d ops: wrappers not where expected", len(net.spans), len(off.spans), sp.traceOps)
	}
	// The server counts a response's bytes after the client may already have
	// read it, so this one counter is off by a frame at a snapshot's edge.
	delete(net.snap.Counters, "net.server.bytes_out")
	delete(off.snap.Counters, "net.server.bytes_out")
	if !reflect.DeepEqual(net.snap.Counters, off.snap.Counters) {
		for name, v := range net.snap.Counters {
			if off.snap.Counters[name] != v {
				t.Errorf("counter %s: %d with wrappers, %d without", name, v, off.snap.Counters[name])
			}
		}
		t.Fatal("wrappers changed the registry counters")
	}
	if net.snap.Counters["core.flash_reads"] == 0 || net.snap.Counters["core.ecc_corrections"] == 0 {
		t.Fatalf("the worn fleet's counters never moved: %v", net.snap.Counters)
	}
	virtual := 0
	for name, h := range net.snap.Histograms {
		// Wall-clock histograms (net.*_ns) differ run to run by nature; the
		// device model's are virtual time and must not.
		if strings.HasPrefix(name, "net.") {
			continue
		}
		virtual++
		if !reflect.DeepEqual(h, off.snap.Histograms[name]) {
			t.Errorf("virtual-time histogram %s differs with wrappers:\n on %+v\noff %+v", name, h, off.snap.Histograms[name])
		}
	}
	if virtual < 4 {
		t.Fatalf("only %d virtual-time histograms compared: %v", virtual, net.snap.Names())
	}
	if !reflect.DeepEqual(net.wear, off.wear) {
		t.Errorf("Wear() differs through the wrapper:\n on %+v\noff %+v", net.wear, off.wear)
	}
}

// A wrapped device without the optional interfaces behaves as the stack
// treats a device that lacks them.
func TestTracedDeviceForwardsOptionalInterfaces(t *testing.T) {
	rec := newRecorder(8)
	rec.on.Store(true)
	mem := blockdev.NewMemDevice(2, 8)
	var dev blockdev.Device = &tracedDevice{inner: mem, rec: rec, node: 3}
	if err := blockdev.CheckConformance(dev); err != nil {
		t.Fatalf("wrapped MemDevice is not a conformant device: %v", err)
	}
	if len(rec.spans) == 0 || rec.spans[0].Node != 3 {
		t.Fatalf("conformance I/O left no spans for node 3: %+v", rec.spans)
	}
	td := dev.(*tracedDevice)
	if td.Engine() != nil {
		t.Error("MemDevice has no engine; the wrapper must report nil, which difs.backoff skips")
	}
	td.Instrument(telemetry.NewRegistry(), nil) // no Instrument on MemDevice: a no-op, not a panic
	if err := td.Flush(); err != nil {
		t.Errorf("Flush on a device without one: %v", err)
	}
	if err := td.Close(); err != nil {
		t.Errorf("Close on a device without one: %v", err)
	}
	if got, want := td.Wear(), mem.Wear(); !reflect.DeepEqual(got, want) {
		t.Errorf("Wear() = %+v, want the inner device's %+v", got, want)
	}
	// Release reaches the inner Drainer: draining then releasing retires the disk.
	id := mem.Minidisks()[0].ID
	if err := mem.DrainMinidisk(id); err != nil {
		t.Fatal(err)
	}
	if err := dev.(blockdev.Drainer).Release(id); err != nil {
		t.Fatalf("Release through the wrapper: %v", err)
	}
	if n := len(mem.Minidisks()); n != 1 {
		t.Fatalf("released minidisk still listed: %d live", n)
	}
}
