package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestTracerRingOrderAndWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Emit(Event{Kind: KindPageProgram, Layer: "flash", Block: i})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Block != i+2 {
			t.Fatalf("event %d has block %d, want %d (oldest-first after wrap)", i, e.Block, i+2)
		}
	}
	if tr.Total() != 6 {
		t.Fatalf("total = %d, want 6", tr.Total())
	}
}

func TestNilTracerIsFree(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: KindGcVictim}) // must not panic
	if tr.Events() != nil {
		t.Fatal("nil tracer should retain nothing")
	}
	if tr.Total() != 0 {
		t.Fatal("nil tracer total should be 0")
	}
}

func TestSubscriber(t *testing.T) {
	tr := NewTracer(8)
	var got []EventKind
	tr.Subscribe(func(e Event) { got = append(got, e.Kind) })
	tr.Emit(Event{Kind: KindRepairStart, Layer: "difs"})
	tr.Emit(Event{Kind: KindRepairEnd, Layer: "difs"})
	if len(got) != 2 || got[0] != KindRepairStart || got[1] != KindRepairEnd {
		t.Fatalf("subscriber saw %v", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(Event{T: 100, Kind: KindTirednessTransition, Layer: "core", Block: 3, Page: 7, Level: 1, Detail: "serving->limbo"})
	tr.Emit(Event{T: 250, Kind: KindMinidiskRetire, Layer: "core", Minidisk: 2, Detail: "decommission"})
	tr.Emit(Event{Kind: KindRepairEnd, Layer: "difs", N: 4, Bytes: 262144})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 3 {
		t.Fatalf("JSONL has %d lines, want 3", n)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("parsed %d events, want 3", len(back))
	}
	if back[0] != tr.Events()[0] || back[1] != tr.Events()[1] || back[2] != tr.Events()[2] {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, tr.Events())
	}
}

func TestReadJSONLSkipsBlankAndRejectsGarbage(t *testing.T) {
	in := "{\"kind\":\"gc_victim\",\"layer\":\"ftl\"}\n\n{\"kind\":\"repair_start\",\"layer\":\"difs\"}\n"
	evs, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("parsed %d events, want 2", len(evs))
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage line should error")
	}
}

func TestCountHelpers(t *testing.T) {
	evs := []Event{
		{Kind: KindPageProgram, Layer: "flash"},
		{Kind: KindPageProgram, Layer: "flash"},
		{Kind: KindGcVictim, Layer: "ftl"},
		{Kind: KindRepairStart},
	}
	byKind := CountByKind(evs)
	if byKind[KindPageProgram] != 2 || byKind[KindGcVictim] != 1 {
		t.Fatalf("CountByKind = %v", byKind)
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Emit(Event{Kind: KindPageProgram, Layer: "flash", Block: i})
			}
		}()
	}
	wg.Wait()
	if tr.Total() != 4000 {
		t.Fatalf("total = %d, want 4000", tr.Total())
	}
	if len(tr.Events()) != 64 {
		t.Fatalf("retained %d, want ring capacity 64", len(tr.Events()))
	}
}
