// Package flash simulates a NAND flash array: blocks of pages with
// program/erase accounting, per-block and per-page endurance variance,
// stochastic bit-flip injection driven by the rber model, read-disturb, and
// a timing model. It is the lowest layer of both the baseline SSD and the
// Salamander device.
//
// The array is purely mechanical: operations mutate state and report their
// duration; policy (mapping, garbage collection, retirement, ECC) lives in
// the layers above.
package flash

import (
	"fmt"

	"salamander/internal/rber"
	"salamander/internal/sim"
)

// Geometry describes the physical layout of the array.
type Geometry struct {
	Channels      int // independent buses (used by schedulers above)
	BlocksPerChan int // erase blocks per channel
	PagesPerBlock int // fPages per erase block
	PageSize      int // data bytes per fPage
	SpareSize     int // spare (ECC) bytes per fPage
}

// DefaultGeometry returns a small device suitable for data-path tests:
// 4 channels x 64 blocks x 64 pages x 16KB = 256 MiB of flash.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:      4,
		BlocksPerChan: 64,
		PagesPerBlock: 64,
		PageSize:      rber.FPageSize,
		SpareSize:     rber.SpareSize,
	}
}

// Validate checks the geometry for internal consistency.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0, g.BlocksPerChan <= 0, g.PagesPerBlock <= 0:
		return fmt.Errorf("flash: non-positive geometry dimension: %+v", g)
	case g.PageSize <= 0 || g.PageSize%rber.OPageSize != 0:
		return fmt.Errorf("flash: page size %d must be a positive multiple of the oPage size", g.PageSize)
	case g.SpareSize <= 0:
		return fmt.Errorf("flash: spare size must be positive")
	}
	return nil
}

// TotalBlocks returns the number of erase blocks in the array.
func (g Geometry) TotalBlocks() int { return g.Channels * g.BlocksPerChan }

// TotalPages returns the number of fPages in the array.
func (g Geometry) TotalPages() int { return g.TotalBlocks() * g.PagesPerBlock }

// RawPageBytes returns data+spare bytes of one fPage.
func (g Geometry) RawPageBytes() int { return g.PageSize + g.SpareSize }

// ChannelOf returns the channel a block belongs to. Blocks are numbered
// channel-major: block b lives on channel b / BlocksPerChan.
func (g Geometry) ChannelOf(block int) int { return block / g.BlocksPerChan }

// PPA is a physical page address.
type PPA struct {
	Block int
	Page  int
}

func (p PPA) String() string { return fmt.Sprintf("b%d/p%d", p.Block, p.Page) }

// Timing models operation latencies. Transfer costs scale with the bytes
// moved over the channel; tR/tProg/tErase are the array-internal times.
type Timing struct {
	ReadPage    sim.Time // tR: cell array -> page register
	ProgramPage sim.Time // tProg: page register -> cells
	EraseBlock  sim.Time // tBERS
	PerByte     sim.Time // channel transfer per byte
}

// DefaultTiming is representative of modern TLC NAND (tR 50us, tProg 600us,
// tBERS 3ms, 1.2GB/s channel).
func DefaultTiming() Timing {
	return Timing{
		ReadPage:    50 * sim.Microsecond,
		ProgramPage: 600 * sim.Microsecond,
		EraseBlock:  3 * sim.Millisecond,
		PerByte:     sim.Nanosecond, // ~1 GB/s
	}
}

// ReadTime returns the latency of reading and transferring n bytes.
func (t Timing) ReadTime(n int) sim.Time {
	return t.ReadPage + sim.Time(n)*t.PerByte
}

// ProgramTime returns the latency of transferring and programming n bytes.
func (t Timing) ProgramTime(n int) sim.Time {
	return t.ProgramPage + sim.Time(n)*t.PerByte
}
