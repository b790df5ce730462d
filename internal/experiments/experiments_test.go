package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.digest from this run")

// digestFile holds one line per experiment: its id and the SHA-256 of its
// quick tables rendered as text, the way partbench prints them to stdout.
const digestFile = "testdata/quick.digest"

const digestHeader = "# SHA-256 of each experiment's quick tables as partbench renders them.\n" +
	"# Rewrite with: go test ./internal/experiments -run TestAllExperimentsQuick -update\n"

// readDigests parses digestFile into id -> hex digest.
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		if *update && os.IsNotExist(err) {
			return map[string]string{}
		}
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// writeDigests rewrites digestFile in registry order.
func writeDigests(t *testing.T, digests map[string]string) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(digestHeader)
	for _, name := range Names() {
		if sum, ok := digests[name]; ok {
			fmt.Fprintf(&sb, "%s %s\n", name, sum)
		}
	}
	if err := os.WriteFile(digestFile, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runTables runs the named experiments as one invocation and returns
// each one's tables by name.
func runTables(t *testing.T, cfg Config, names ...string) map[string][]*stats.Table {
	t.Helper()
	out := map[string][]*stats.Table{}
	err := Run(names, cfg, func(name string, tables []*stats.Table) error {
		out[name] = tables
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// renderCSV renders tables as their titles and CSV bodies.
func renderCSV(t *testing.T, tables []*stats.Table) string {
	t.Helper()
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.Title)
		sb.WriteByte('\n')
		if err := tb.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig3", "table1", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14",
		"ablation-model", "halo",
		"ablation-adaptive", "compare-strategies"}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(names), len(want))
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("position %d: %q, want %q", i, names[i], n)
		}
		if desc, ok := Describe(n); !ok || desc == "" {
			t.Errorf("Describe(%q) missing", n)
		}
	}
	if _, ok := Describe("nope"); ok {
		t.Error("Describe of unknown experiment succeeded")
	}
	if err := Run([]string{"nope"}, Config{Quick: true}, nil); err == nil {
		t.Error("Run of unknown experiment succeeded")
	}
}

// TestAllExperimentsQuick runs the whole registry in quick mode as one
// invocation, verifies each experiment produces at least one non-empty
// table, and compares a digest of its rendered tables with
// testdata/quick.digest: a change that claims to leave the reproduction's
// numbers alone must leave every digest as it is. -update rewrites the
// digests.
func TestAllExperimentsQuick(t *testing.T) {
	want := readDigests(t)
	all := runTables(t, Config{Quick: true}, Names()...)
	got := map[string]string{}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			tables := all[name]
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			h := sha256.New()
			for _, tb := range tables {
				if tb.Rows() == 0 {
					t.Errorf("table %q has no rows", tb.Title)
				}
				if err := tb.WriteText(h); err != nil {
					t.Fatal(err)
				}
				h.Write([]byte{'\n'})
			}
			sum := hex.EncodeToString(h.Sum(nil))
			got[name] = sum
			if !*update && want[name] != sum {
				t.Errorf("quick tables digest %s, recorded %q: the output changed (rerun with -update if that is intended)", sum, want[name])
			}
		})
	}
	if !*update {
		for name := range want {
			if _, ok := Describe(name); !ok {
				t.Errorf("%s records %q, which the registry lacks (rerun with -update to drop the line)", digestFile, name)
			}
		}
	}
	if *update {
		for name, sum := range got {
			want[name] = sum
		}
		writeDigests(t, want)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tables := runTables(t, Config{}, "table1")["table1"]
	var buf strings.Builder
	if err := tables[0].WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The paper's Table I rows must appear: 2 at 512KiB-1MiB, 4 at
	// 2-4MiB, 8 at 8-16MiB, 16 at 32-64MiB, 32 at >=128MiB.
	for _, want := range []string{
		"512KiB-1MiB", "2MiB-4MiB", "8MiB-16MiB", "32MiB-64MiB", "128MiB-256MiB",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I output missing range %q:\n%s", want, out)
		}
	}
}

// TestDeterministicResults: the discrete-event simulation must make every
// experiment bit-for-bit reproducible run to run.
func TestDeterministicResults(t *testing.T) {
	render := func() string {
		return renderCSV(t, runTables(t, Config{Quick: true}, "fig9")["fig9"])
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("two identical runs diverged:\n%s\n---\n%s", a, b)
	}
}
