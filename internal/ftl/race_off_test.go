//go:build !race

package ftl_test

// raceEnabled reports whether the race detector is instrumenting this test
// binary. The pinned digest replay is one goroutine of BCH decoding near the
// correction ceiling; a race build multiplies its cost without checking
// anything, so the real-ECC rows are skipped there.
const raceEnabled = false
