package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.txt from the current output")

// TestOutputPinned runs saldifs as its main does and compares stdout with
// the bytes checked in under testdata/. The runs use a virtual clock and
// fixed seeds, so any shift in a placement, repair or wear decision shows up
// here. A deliberate behaviour change regenerates the files with -update.
func TestOutputPinned(t *testing.T) {
	for _, tc := range []struct{ file, args string }{
		{"default.txt", ""},
		{"shards1.txt", "-shards 1"},
		{"ec_nodes6.txt", "-ec -nodes 6"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			if err := run(strings.Fields(tc.args), &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("saldifs %s output differs from %s; got:\n%s", tc.args, path, out.Bytes())
			}
		})
	}
}

// TestRejectsSmallECFleet: RS(4+2) needs six failure domains.
func TestRejectsSmallECFleet(t *testing.T) {
	if err := run([]string{"-ec", "-nodes", "5"}, new(bytes.Buffer)); err == nil {
		t.Fatal("-ec -nodes 5 accepted")
	}
}
