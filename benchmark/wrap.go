package main

import (
	"fmt"
	"io"

	"salamander/internal/blockdev"
	"salamander/internal/core"
	"salamander/internal/sim"
	"salamander/internal/store"
	"salamander/internal/telemetry"
)

// The optional device interfaces the stack type-asserts (difs.backoff,
// cmd/salsrv) beyond blockdev.Drainer and blockdev.WearReporter.
type (
	engineHolder interface{ Engine() *sim.Engine }
	instrumenter interface {
		Instrument(*telemetry.Registry, *telemetry.Tracer)
	}
	flusher interface{ Flush() error }
)

// tracedDevice records a span around every data call of the device handed to
// Cluster.AddNode. It must be invisible to the stack: every optional
// interface the stack asserts is forwarded, with the same outcome an
// unwrapped device without that interface would have produced.
type tracedDevice struct {
	inner blockdev.Device
	rec   *recorder
	node  int
}

func (d *tracedDevice) Minidisks() []blockdev.MinidiskInfo { return d.inner.Minidisks() }
func (d *tracedDevice) Notify(fn func(blockdev.Event))     { d.inner.Notify(fn) }

func (d *tracedDevice) Read(md blockdev.MinidiskID, lba int, buf []byte) error {
	t0 := d.rec.now()
	err := d.inner.Read(md, lba, buf)
	d.rec.add(devRead, d.node, t0, 0)
	return err
}

func (d *tracedDevice) Write(md blockdev.MinidiskID, lba int, buf []byte) error {
	t0 := d.rec.now()
	err := d.inner.Write(md, lba, buf)
	d.rec.add(devWrite, d.node, t0, len(buf))
	return err
}

func (d *tracedDevice) Trim(md blockdev.MinidiskID, lba int) error {
	t0 := d.rec.now()
	err := d.inner.Trim(md, lba)
	d.rec.add(devTrim, d.node, t0, 0)
	return err
}

// Release implements blockdev.Drainer. difs ignores a failed Release, so an
// inner device that cannot drain behaves as if the interface were absent.
func (d *tracedDevice) Release(md blockdev.MinidiskID) error {
	if dr, ok := d.inner.(blockdev.Drainer); ok {
		return dr.Release(md)
	}
	return fmt.Errorf("%w: %d (device cannot drain)", blockdev.ErrNoSuchMinidisk, md)
}

// Wear implements blockdev.WearReporter; obs reports zeroed wear for devices
// without one, which is what the zero WearInfo is.
func (d *tracedDevice) Wear() blockdev.WearInfo {
	if wr, ok := d.inner.(blockdev.WearReporter); ok {
		return wr.Wear()
	}
	return blockdev.WearInfo{}
}

// Engine returns nil for devices without a simulation engine; difs.backoff
// treats nil like a missing interface.
func (d *tracedDevice) Engine() *sim.Engine {
	if e, ok := d.inner.(engineHolder); ok {
		return e.Engine()
	}
	return nil
}

func (d *tracedDevice) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	if in, ok := d.inner.(instrumenter); ok {
		in.Instrument(reg, tr)
	}
}

func (d *tracedDevice) Flush() error {
	if f, ok := d.inner.(flusher); ok {
		return f.Flush()
	}
	return nil
}

func (d *tracedDevice) Close() error {
	if c, ok := d.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// The wrapper offers what the stack asserts, and the devices salsrv builds
// still offer what the wrapper forwards — so a renamed or dropped optional
// method breaks the build here instead of silently changing traced runs.
var (
	_ blockdev.Device       = (*tracedDevice)(nil)
	_ blockdev.Drainer      = (*tracedDevice)(nil)
	_ blockdev.WearReporter = (*tracedDevice)(nil)
	_ engineHolder          = (*tracedDevice)(nil)
	_ instrumenter          = (*tracedDevice)(nil)
	_ flusher               = (*tracedDevice)(nil)
	_ io.Closer             = (*tracedDevice)(nil)

	_ engineHolder = (*core.Device)(nil)
	_ instrumenter = (*core.Device)(nil)
	_ flusher      = (*core.Device)(nil)
)

// tracedStore records a span around every call of a store handed to
// blockdev.OpenDurable (base storePut) or Cluster.AttachMeta (base metaPut).
type tracedStore struct {
	inner store.Store
	rec   *recorder
	node  int
	base  spanKind
}

// kind maps a page-store span kind onto this store's own range.
func (s *tracedStore) kind(k spanKind) spanKind { return s.base + k - storePut }

func (s *tracedStore) Put(key string, data []byte) error {
	t0 := s.rec.now()
	err := s.inner.Put(key, data)
	s.rec.add(s.kind(storePut), s.node, t0, len(data))
	return err
}

func (s *tracedStore) Get(key string) ([]byte, error) {
	t0 := s.rec.now()
	data, err := s.inner.Get(key)
	s.rec.add(s.kind(storeGet), s.node, t0, len(data))
	return data, err
}

func (s *tracedStore) Delete(key string) error {
	t0 := s.rec.now()
	err := s.inner.Delete(key)
	s.rec.add(s.kind(storeDelete), s.node, t0, 0)
	return err
}

func (s *tracedStore) List(prefix string) ([]string, error) {
	t0 := s.rec.now()
	keys, err := s.inner.List(prefix)
	s.rec.add(s.kind(storeList), s.node, t0, 0)
	return keys, err
}

func (s *tracedStore) Sync() error {
	t0 := s.rec.now()
	err := s.inner.Sync()
	s.rec.add(s.kind(storeSync), s.node, t0, 0)
	return err
}

func (s *tracedStore) Close() error { return s.inner.Close() }

var _ store.Store = (*tracedStore)(nil)
