package telemetry

import (
	"strings"
	"testing"
)

// FuzzParseExposition feeds arbitrary text to the Prometheus parser that
// parrotctl, the smoke scripts and the tests read every scrape through.
// It must never panic, and what it accepts must be self-consistent: every
// listed series present exactly once, and every query over it safe. The
// seed corpus in testdata/fuzz is cut from the golden exposition.
func FuzzParseExposition(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		exp, err := ParseExposition(strings.NewReader(text))
		if err != nil {
			return
		}
		if len(exp.Names) != len(exp.Series) {
			t.Fatalf("%d names for %d series", len(exp.Names), len(exp.Series))
		}
		for _, key := range exp.Names {
			if _, ok := exp.Get(key); !ok {
				t.Fatalf("listed series %q not retrievable", key)
			}
			name, labels, _ := strings.Cut(key, "{")
			if len(exp.Family(name)) == 0 {
				t.Fatalf("series %q missing from its family %q", key, name)
			}
			if base, ok := strings.CutSuffix(name, "_bucket"); ok {
				if _, rest, ok := extractLE("{" + labels); ok {
					exp.HistQuantile(base, rest, 0.5)
					exp.HistQuantile(base, rest, 0.99)
				}
			}
		}
	})
}
