package experiments

import (
	"testing"
)

// TestSerialParallelParity: the whole quick registry, run as one
// invocation, must render byte-identical tables with Jobs=1 and Jobs=4 —
// the guarantee that lets the job pool run every exhibit's jobs at once.
func TestSerialParallelParity(t *testing.T) {
	serial := runTables(t, Config{Quick: true, Jobs: 1}, Names()...)
	parallel := runTables(t, Config{Quick: true, Jobs: 4}, Names()...)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s, p := renderCSV(t, serial[name]), renderCSV(t, parallel[name])
			if s == "" || s != p {
				t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
			}
		})
	}
}
