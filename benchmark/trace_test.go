package main

import (
	"bytes"
	"reflect"
	"testing"
)

// mkSpan builds a span literal; parents are assigned by attribute.
func mkSpan(name spanKind, node int, start, end int64) span {
	return span{Name: name, Node: node, Start: start, End: end, Parent: parentBackground}
}

func TestSelfTimeTakesUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		mkSpan(difsPut, -1, 0, 100),
		// Two replica writes overlapping in 30..40: they cover 10..60, 50 ns,
		// not 30+30 = 60.
		mkSpan(devWrite, 0, 10, 40),
		mkSpan(devWrite, 1, 30, 60),
		// A child sticking out of the parent counts only for the part inside.
		mkSpan(devTrim, 2, 90, 100),
	}
	attribute(spans)
	kids := children(spans)
	if got, want := selfTime(spans, kids, 0), int64(100-50-10); got != want {
		t.Fatalf("self time = %d, want %d (union of children, not sum)", got, want)
	}
	if got := covered(spans, 0, []int{1, 2}); got != 50 {
		t.Fatalf("covered = %d, want 50", got)
	}
	// Identical and nested intervals collapse too.
	nested := []span{mkSpan(difsGet, -1, 0, 50), mkSpan(devRead, 0, 5, 25), mkSpan(devRead, 0, 5, 25), mkSpan(devRead, 0, 10, 20)}
	attribute(nested)
	if got := selfTime(nested, children(nested), 0); got != 30 {
		t.Fatalf("self time with nested children = %d, want 30", got)
	}
}

func TestAttributionByContainment(t *testing.T) {
	spans := []span{
		// Recorded at end time, so children come before their root.
		mkSpan(devRead, 3, 12, 18),    // 0: inside root A
		mkSpan(salnetGet, -1, 10, 20), // 1: root A
		mkSpan(storePut, 2, 33, 37),   // 2: inside device span 4 (same node)
		mkSpan(storePut, 5, 41, 44),   // 3: inside root B, node matches no device span
		mkSpan(devWrite, 2, 32, 38),   // 4: inside root B
		mkSpan(metaPut, -1, 45, 49),   // 5: manifest put, child of root B itself
		mkSpan(salnetPut, -1, 30, 50), // 6: root B
	}
	attribute(spans)
	want := []int{1, parentRoot, 4, 6, 6, 6, parentRoot}
	for i, w := range want {
		if spans[i].Parent != w {
			t.Errorf("span %d (%s) parent = %d, want %d", i, spans[i].Name, spans[i].Parent, w)
		}
	}
}

func TestBackgroundBucket(t *testing.T) {
	spans := []span{
		mkSpan(devTrim, 0, 1, 4),      // before any root
		mkSpan(salnetPut, -1, 10, 20), // the only root
		mkSpan(devWrite, 0, 18, 25),   // starts inside, ends after: not contained
		mkSpan(storeDelete, 0, 30, 35),
		mkSpan(devTrim, 0, 29, 36), // background device span holding the delete
	}
	attribute(spans)
	for _, i := range []int{0, 2, 4} {
		if spans[i].Parent != parentBackground {
			t.Errorf("span %d (%s) parent = %d, want background", i, spans[i].Name, spans[i].Parent)
		}
	}
	if spans[3].Parent != 4 {
		t.Errorf("store span inside a background device span: parent = %d, want 4", spans[3].Parent)
	}

	pr := &passResult{spans: spans}
	pr.get.counts, pr.put.counts = map[string]uint64{}, map[string]uint64{}
	pr.analyze()
	// Background: 3 + 7 + 7 ns of top-level device time; the nested delete is
	// already inside its device span. Nothing is attributed to the root.
	if pr.backgroundNs != 17 || pr.layeredNs != 17 {
		t.Errorf("background = %d of %d layered ns, want 17 of 17", pr.backgroundNs, pr.layeredNs)
	}
	if n := len(pr.put.counts); n != 0 {
		t.Errorf("root was charged %d background calls", n)
	}
}

func TestSpansJSONLRoundTrip(t *testing.T) {
	spans := []span{
		mkSpan(salnetPut, -1, 0, 100),
		mkSpan(devWrite, 4, 10, 60),
		{Name: storePut, Node: 4, Start: 12, End: 58, Parent: 1, Bytes: 4096},
		mkSpan(metaDelete, -1, 70, 80),
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != len(spans) {
		t.Fatalf("dump has %d lines, want one per span (%d)", n, len(spans))
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"name":"store.meta_delete"`)) {
		t.Fatalf("dump does not name spans by layer.call:\n%s", buf.Bytes())
	}
	got, err := readSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Fatalf("round trip changed the spans:\n got %+v\nwant %+v", got, spans)
	}
}

func TestRecorderRecordsOnlyWhileOn(t *testing.T) {
	rec := newRecorder(4)
	rec.add(devRead, 0, rec.now(), 0)
	rec.on.Store(true)
	rec.add(devRead, 0, rec.now(), 0)
	rec.on.Store(false)
	rec.add(devRead, 0, rec.now(), 0)
	if len(rec.spans) != 1 {
		t.Fatalf("recorded %d spans, want 1 (set-up and preload must leave none)", len(rec.spans))
	}
	if s := rec.spans[0]; s.End < s.Start {
		t.Fatalf("span ends before it starts: %+v", s)
	}
}
