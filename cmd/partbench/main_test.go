package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFailedRunStillWritesProfiles: an unknown experiment exits 2, and
// the profiles asked for are still written.
func TestFailedRunStillWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if code := run([]string{"-experiment", "no-such-experiment", "-cpuprofile", cpu, "-memprofile", mem}); code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}

// TestBadTopologyExitsTwo: a -topo spec that parses but describes an
// unusable fabric (a negative extra, a non-finite byte time) is a usage
// error, reported before any simulation runs.
func TestBadTopologyExitsTwo(t *testing.T) {
	for _, spec := range []string{
		"two-level:rack=1,extra=-2us",
		"fat-tree:k=4,G=NaN",
		"fat-tree:k=4,G=Inf",
	} {
		if code := run([]string{"-strategy", "ploggp", "-quick", "-topo", spec}); code != 2 {
			t.Errorf("-topo %s: exit status %d, want 2", spec, code)
		}
	}
}
