package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"salamander/internal/sim"
)

// EventKind is a typed trace event name. Kinds are strings so JSONL traces
// are self-describing and new kinds need no schema change.
type EventKind string

// Event kinds emitted across the stack. The layer each kind originates from
// is recorded per event; one kind can cross layers (e.g. GcVictim is an FTL
// concern inside both the baseline and Salamander devices).
const (
	// KindPageProgram: one fPage programmed (layer flash).
	KindPageProgram EventKind = "page_program"
	// KindEccCorrection: a read needed error correction beyond a clean
	// decode — corrected bits on the real-ECC path, or a retry rescue on
	// the analytic path (layer ssd/core).
	KindEccCorrection EventKind = "ecc_correction"
	// KindGcVictim: garbage collection selected a victim block (layer ftl).
	KindGcVictim EventKind = "gc_victim"
	// KindTirednessTransition: an fPage changed tiredness state on erase
	// (layer core): serving->limbo, limbo->limbo, or ->dead.
	KindTirednessTransition EventKind = "tiredness_transition"
	// KindMinidiskRetire: a minidisk left service — decommission, drain,
	// release, or a whole-device brick (layer ssd/core/lifesim).
	KindMinidiskRetire EventKind = "minidisk_retire"
	// KindMinidiskRegen: RegenS assembled a fresh minidisk from limbo pages
	// (layer core).
	KindMinidiskRegen EventKind = "minidisk_regen"
	// KindRepairStart: the distributed layer began draining its repair
	// queue (layer difs). N is the queue length.
	KindRepairStart EventKind = "repair_start"
	// KindRepairEnd: repair pass finished (layer difs). N is chunk copies
	// created, Bytes the recovery traffic written.
	KindRepairEnd EventKind = "repair_end"
	// KindBrickAvoided: an Eq. 2 capacity deficit was resolved by shedding
	// minidisks instead of bricking the device — the paper's core claim,
	// visible as an event (layer core).
	KindBrickAvoided EventKind = "brick_avoided"
	// KindFaultInjected: a faultinject site fired (layer = site's layer
	// prefix, Detail = full site name).
	KindFaultInjected EventKind = "fault_injected"
	// KindNodeCrash: a storage node left or re-entered service (layer difs,
	// Detail "crash", "restart", or "quarantine"; N = targets affected).
	KindNodeCrash EventKind = "node_crash"
	// KindRepairRetry: a difs read attempt failed transiently and was
	// retried after virtual-time backoff (layer difs).
	KindRepairRetry EventKind = "repair_retry"
	// KindNetConn: a serving-layer connection transition (layer net; Detail
	// "accept", "close", "drop" for an injected drop, or "truncate" for an
	// injected short frame).
	KindNetConn EventKind = "net_conn"
	// KindNetRetry: a salnet client call hit a transport failure and was
	// retried after exponential backoff (layer net; N = attempt number).
	KindNetRetry EventKind = "net_retry"
	// KindSlowOp: a served op exceeded the server's slow-op latency
	// threshold (layer net; Detail = "<op> <key>", N = duration in ns).
	KindSlowOp EventKind = "slow_op"
	// KindRecover: the distributed layer finished rebuilding its state from
	// durable manifests after a restart (layer difs; N = objects recovered,
	// Detail = summary counts).
	KindRecover EventKind = "recover"
)

// Event is one structured trace record. T is the emitting layer's virtual
// time where it has a clock (devices); layers without one (difs) leave it
// zero — ring order is always emission order. Unused fields marshal away.
type Event struct {
	T     sim.Time  `json:"t,omitempty"`
	Kind  EventKind `json:"kind"`
	Layer string    `json:"layer,omitempty"`
	// Minidisk is a minidisk ID for minidisk-scoped events. Zero values are
	// omitted from JSONL; an absent "md" reads back as minidisk 0, which is
	// only meaningful on kinds that are minidisk-scoped.
	Minidisk int    `json:"md,omitempty"`
	Block    int    `json:"block,omitempty"`
	Page     int    `json:"page,omitempty"`
	Level    int    `json:"level,omitempty"`
	LBA      int    `json:"lba,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	N        int64  `json:"n,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// DefaultTraceCapacity is the ring size used when NewTracer is given a
// non-positive capacity.
const DefaultTraceCapacity = 4096

// Tracer is a bounded ring of events with optional subscriber hooks. A nil
// *Tracer is valid and free: Emit on nil is a no-op, so instrumented code
// can hold a possibly-nil tracer and emit unconditionally.
type Tracer struct {
	mu    sync.Mutex
	ring  []Event
	next  int
	full  bool
	total uint64
	subs  []func(Event)
}

// NewTracer returns a tracer keeping the last capacity events
// (DefaultTraceCapacity if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]Event, capacity)}
}

// Emit records an event and invokes subscribers. Safe on a nil tracer.
// Subscribers run synchronously on the emitting goroutine, outside the ring
// lock; they must not call back into Emit on the same tracer from within the
// hook if they need ordering guarantees.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.total++
	subs := t.subs
	t.mu.Unlock()
	for _, fn := range subs {
		fn(e)
	}
}

// Subscribe registers a hook called for every subsequent event.
func (t *Tracer) Subscribe(fn func(Event)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Copy-on-write so Emit can call hooks outside the lock.
	subs := make([]func(Event), len(t.subs)+1)
	copy(subs, t.subs)
	subs[len(subs)-1] = fn
	t.subs = subs
}

// Total returns how many events have ever been emitted (including ones the
// ring has since overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Event(nil), t.ring[:t.next]...)
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// WriteJSONL writes the retained events as one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, t.Events())
}

// WriteJSONL serializes events as JSON Lines.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSON Lines event stream, skipping blank lines.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("telemetry: trace line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading trace: %w", err)
	}
	return out, nil
}

// CountByKind tallies events per kind.
func CountByKind(events []Event) map[EventKind]int {
	out := map[EventKind]int{}
	for _, e := range events {
		out[e.Kind]++
	}
	return out
}
