package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/stats"
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

// TestUndersizedTopologyFails: an experiment whose jobs have more ranks
// than the -topo fabric has hosts (quick fig14 runs 16 ranks; a k=4
// fat-tree has 8 hosts) exits 1 with the capacity error instead of
// panicking in a pool worker.
func TestUndersizedTopologyFails(t *testing.T) {
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	code := run([]string{"-experiment", "fig14", "-quick", "-topo", "fat-tree:k=4"})
	os.Stderr = saved
	if code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	msg, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(msg), "host capacity 8") {
		t.Errorf("stderr %q does not name the host capacity", msg)
	}
}

// TestListAlignsDescriptions: -list prints every experiment once, in
// registry order, and every description starts in the same column, past
// the longest id.
func TestListAlignsDescriptions(t *testing.T) {
	var out strings.Builder
	writeList(&out)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	names := experiments.Names()
	if len(lines) != len(names) {
		t.Fatalf("-list printed %d lines, want %d", len(lines), len(names))
	}
	col := -1
	for i, name := range names {
		desc, _ := experiments.Describe(name)
		line := lines[i]
		if !strings.HasPrefix(line, name+" ") || !strings.HasSuffix(line, desc) {
			t.Fatalf("line %d = %q, want %q then %q", i, line, name, desc)
		}
		at := len(line) - len(desc)
		if strings.TrimSpace(line[len(name):at]) != "" {
			t.Fatalf("line %d = %q: text between id and description", i, line)
		}
		if col == -1 {
			col = at
		}
		if at != col {
			t.Errorf("%s: description starts at column %d, want %d", name, at, col)
		}
	}
}

// TestCSVWritesOneFilePerTable: -csv creates its directory and writes
// each table of an experiment to its own file, the first under the
// experiment's name and the rest suffixed with their index, each byte
// for byte what the table's WriteCSV renders.
func TestCSVWritesOneFilePerTable(t *testing.T) {
	const name = "ablation-adaptive"
	cfg := experiments.Config{Quick: true, Jobs: 1}
	var want []string
	err := experiments.Run([]string{name}, cfg, func(_ string, tables []*stats.Table) error {
		for _, tb := range tables {
			var buf strings.Builder
			if err := tb.WriteCSV(&buf); err != nil {
				return err
			}
			want = append(want, buf.String())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 {
		t.Fatalf("%s has %d tables, want 2", name, len(want))
	}

	dir := filepath.Join(t.TempDir(), "results")
	if err := runSuite([]string{name}, cfg, io.Discard, dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	// ReadDir sorts by name, and "-" sorts before ".".
	if got := strings.Join(files, " "); got != name+"-1.csv "+name+".csv" {
		t.Fatalf("-csv wrote %s", got)
	}
	for i, file := range []string{name + ".csv", name + "-1.csv"} {
		got, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want[i] {
			t.Errorf("%s differs from table %d's WriteCSV:\n%s\nwant\n%s", file, i, got, want[i])
		}
	}
}
