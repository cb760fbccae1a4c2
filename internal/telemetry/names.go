package telemetry

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Metric naming convention
//
// Every instrument name is 2–3 dot-separated segments:
//
//	<layer>.<noun_verb>
//	<layer>.<component>.<noun_verb>
//
// where each segment is lowercase snake_case ([a-z][a-z0-9_]*). The first
// segment is the layer (flash, ftl, ssd, core, difs, net, host, ...) and is
// what Layer() groups by. Histograms must additionally carry a unit suffix on
// their final segment so a reader never has to guess what a bucket boundary
// means:
//
//	_ns     durations in nanoseconds
//	_us     durations in microseconds
//	_bytes  sizes in bytes
//	_frac   dimensionless fractions in [0,1] (rates, ratios, RBER)
//
// Examples: flash.program_ops, net.server.op_ns, difs.repair_bytes,
// flash.rber_frac.
//
// Enforcement is debug-only: in normal builds a malformed name still works
// (an ops dashboard must never be the thing that crashes a server), but under
// the saldebug build tag — and in this package's tests — creating a
// non-conforming instrument panics at the Counter/Gauge/Histogram call site.

// histUnitSuffixes are the unit suffixes a histogram name must end with.
var histUnitSuffixes = []string{"_ns", "_us", "_bytes", "_frac"}

// CheckName validates name against the naming convention above. hist adds the
// histogram unit-suffix requirement. It returns nil for conforming names and
// a descriptive error otherwise.
func CheckName(name string, hist bool) error {
	segs := strings.Split(name, ".")
	if len(segs) < 2 || len(segs) > 3 {
		return fmt.Errorf("telemetry: metric %q: want 2-3 dot-separated segments (<layer>.<noun_verb>), got %d", name, len(segs))
	}
	for _, seg := range segs {
		if !validSegment(seg) {
			return fmt.Errorf("telemetry: metric %q: segment %q is not lowercase snake_case ([a-z][a-z0-9_]*)", name, seg)
		}
	}
	if hist {
		ok := false
		for _, suf := range histUnitSuffixes {
			if strings.HasSuffix(segs[len(segs)-1], suf) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("telemetry: histogram %q: name must end with a unit suffix (%s)", name, strings.Join(histUnitSuffixes, ", "))
		}
	}
	return nil
}

func validSegment(seg string) bool {
	if seg == "" || seg[0] < 'a' || seg[0] > 'z' {
		return false
	}
	for i := 1; i < len(seg); i++ {
		c := seg[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// strictNames gates panic-on-bad-name at instrument creation. Off by default;
// the saldebug build tag turns it on (names_debug.go), and tests may toggle
// it.
var strictNames atomic.Bool

// debugCheckName panics on a non-conforming instrument name when strict
// checking is enabled. Called on the slow path only (first creation of a
// name), so it costs nothing on the hot path.
func debugCheckName(name string, hist bool) {
	if !strictNames.Load() {
		return
	}
	if err := CheckName(name, hist); err != nil {
		panic(err)
	}
}
