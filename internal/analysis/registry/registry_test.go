package registry

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// modulePackages lists the import path of every package directory in the
// repro module, walked from the module root. Nested modules (a directory
// with its own go.mod) and testdata trees are not part of it.
func modulePackages(t *testing.T) []string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		goFiles, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil || len(goFiles) == 0 {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, strings.TrimSuffix("repro/"+filepath.ToSlash(rel), "/."))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(pkgs)
	return pkgs
}

// appliesTo returns the packages among pkgs that c applies to.
func appliesTo(c Check, pkgs []string) []string {
	var out []string
	for _, p := range pkgs {
		if c.Applies(p) {
			out = append(out, p)
		}
	}
	return out
}

func TestRegistryScopes(t *testing.T) {
	pkgs := modulePackages(t)
	scoped := map[string][]string{
		"detertaint": {
			"repro/internal/bench",
			"repro/internal/coll",
			"repro/internal/core",
			"repro/internal/experiments",
			"repro/internal/fabric",
			"repro/internal/ibv",
			"repro/internal/loggp",
			"repro/internal/mpipcl",
			"repro/internal/netgauge",
			"repro/internal/pt2pt",
			"repro/internal/sim",
			"repro/internal/sweep",
			"repro/internal/trace",
			"repro/internal/ucx",
			"repro/internal/xport",
			"repro/internal/xport/shm",
		},
		"nopanic": {
			"repro/internal/core",
			"repro/internal/mpipcl",
			"repro/internal/pt2pt",
			"repro/partib",
		},
	}
	names := map[string]bool{}
	for _, c := range Checks() {
		name := c.Analyzer.Name
		if names[name] {
			t.Errorf("two checks named %s", name)
		}
		names[name] = true
		want, ok := scoped[name]
		if !ok {
			want = pkgs
		}
		got := appliesTo(c, pkgs)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s applies to\n  %v\nwant\n  %v", name, got, want)
		}
	}
	for name := range scoped {
		if !names[name] {
			t.Errorf("no check named %s", name)
		}
	}
}
