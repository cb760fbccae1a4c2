// Package sim keeps virtual time. A device owns an Engine, a clock that its
// flash operations advance by their modeled durations, so latency and
// throughput results are exact functions of the configured device timing
// model rather than of host CPU speed. Lanes overlaps operations across
// independent resources on the same timebase.
package sim

import "time"

// Time is a virtual timestamp, measured in nanoseconds since simulation
// start. It is a distinct type so virtual and wall-clock times cannot be
// mixed accidentally.
type Time int64

// Common durations in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a virtual duration to a time.Duration for display.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return t.Duration().String() }

// Engine is a virtual clock. It is not safe for concurrent use: a device
// advances its engine under the device lock.
type Engine struct {
	now Time
}

// NewEngine returns a clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Advance moves the clock forward by d, the modeled duration of an
// operation (e.g., "this flash read takes 50µs").
func (e *Engine) Advance(d Time) {
	if d < 0 {
		panic("sim: negative advance")
	}
	e.now += d
}
