package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"salamander/internal/blockdev"
	"salamander/internal/telemetry"
)

// Trace is a recorded operation stream. Two on-disk formats are supported: a tiny fixed-width binary
// record per op — magic header, then {flags byte, minidisk uint32, lba
// uint32} — and the telemetry JSONL event format, where each op is a
// host_read/host_write event. ReadTrace sniffs which one it is given, so
// traces captured from one simulator configuration (or filtered out of a
// device's -trace output) can drive another.
type Trace struct {
	Ops []Op
}

var traceMagic = [4]byte{'S', 'T', 'R', '1'}

// WriteTo serializes the trace. It implements io.WriterTo.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return n, err
	}
	n += 4
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(len(t.Ops)))
	if _, err := bw.Write(cnt[:]); err != nil {
		return n, err
	}
	n += 8
	var rec [9]byte
	for _, op := range t.Ops {
		rec[0] = 0
		if op.Read {
			rec[0] = 1
		}
		binary.LittleEndian.PutUint32(rec[1:5], uint32(op.MD))
		binary.LittleEndian.PutUint32(rec[5:9], uint32(op.LBA))
		if _, err := bw.Write(rec[:]); err != nil {
			return n, err
		}
		n += int64(len(rec))
	}
	return n, bw.Flush()
}

// ReadTrace parses a serialized trace in either format: it peeks at the
// first bytes and dispatches on the binary magic, falling back to JSONL.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace header: %w", err)
	}
	if [4]byte(head) != traceMagic {
		return readTraceJSONL(br)
	}
	return readTraceBinary(br)
}

func readTraceBinary(br *bufio.Reader) (*Trace, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("workload: reading trace magic: %w", err)
	}
	var cnt [8]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, fmt.Errorf("workload: reading trace count: %w", err)
	}
	nOps := binary.LittleEndian.Uint64(cnt[:])
	const maxOps = 1 << 30 // sanity bound against corrupt headers
	if nOps > maxOps {
		return nil, fmt.Errorf("workload: implausible op count %d", nOps)
	}
	// The count is untrusted until the records are actually there: reserve
	// at most 64k ops up front and let append grow past that, so a corrupt
	// header costs an error, not a multi-GiB allocation.
	t := &Trace{Ops: make([]Op, 0, min(nOps, 1<<16))}
	var rec [9]byte
	for i := uint64(0); i < nOps; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("workload: reading op %d: %w", i, err)
		}
		t.Ops = append(t.Ops, Op{
			Read: rec[0] == 1,
			MD:   blockdev.MinidiskID(binary.LittleEndian.Uint32(rec[1:5])),
			LBA:  int(binary.LittleEndian.Uint32(rec[5:9])),
		})
	}
	return t, nil
}

// Events converts the trace to telemetry host_read/host_write events, the
// interchange form behind the JSONL encoding.
func (t *Trace) Events() []telemetry.Event {
	evs := make([]telemetry.Event, len(t.Ops))
	for i, op := range t.Ops {
		kind := telemetry.KindHostWrite
		if op.Read {
			kind = telemetry.KindHostRead
		}
		evs[i] = telemetry.Event{
			Kind:     kind,
			Layer:    "host",
			Minidisk: int(op.MD),
			LBA:      op.LBA,
		}
	}
	return evs
}

// WriteJSONLTo serializes the trace as telemetry JSONL events
// (host_read/host_write), readable by ReadTrace, cmd/salmon, and
// saltrace summarize.
func (t *Trace) WriteJSONLTo(w io.Writer) error {
	return telemetry.WriteJSONL(w, t.Events())
}

// readTraceJSONL builds a trace from a telemetry JSONL stream. Only
// host_read/host_write events become ops; other kinds (a device's own
// page_program, gc_victim, ... emissions) are skipped so a full -trace
// export can be replayed directly. A stream with no host ops is an error —
// it is a telemetry trace, not a workload.
func readTraceJSONL(r io.Reader) (*Trace, error) {
	evs, err := telemetry.ReadJSONL(r)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	t := &Trace{}
	for _, e := range evs {
		switch e.Kind {
		case telemetry.KindHostRead, telemetry.KindHostWrite:
			t.Ops = append(t.Ops, Op{
				Read: e.Kind == telemetry.KindHostRead,
				MD:   blockdev.MinidiskID(e.Minidisk),
				LBA:  e.LBA,
			})
		}
	}
	if len(t.Ops) == 0 {
		return nil, fmt.Errorf("workload: JSONL trace has no host_read/host_write events (%d events total)", len(evs))
	}
	return t, nil
}

// Record captures n operations from gen into a trace.
func Record(gen Generator, n int) *Trace {
	t := &Trace{Ops: make([]Op, n)}
	for i := range t.Ops {
		t.Ops[i] = gen.Next()
	}
	return t
}
