package experiment

import (
	"os"
	"strings"
	"testing"
)

// TestFullGrid pins the whole evaluation: the report msreport -experiment
// all prints must equal the committed report_full.txt byte for byte, so any
// change to any printed result fails here.
func TestFullGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid is slow")
	}
	want, err := os.ReadFile("../../report_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Report(NewRunner(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			var gl, wl string
			if i < len(g) {
				gl = g[i]
			}
			if i < len(w) {
				wl = w[i]
			}
			t.Fatalf("report differs from report_full.txt at line %d (%d vs %d lines)\n got: %s\nwant: %s",
				i+1, len(g), len(w), gl, wl)
		}
	}
}
