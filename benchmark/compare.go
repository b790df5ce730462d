package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// resultFile is what -out writes for a run of the benchmark.
type resultFile struct {
	Meta      meta             `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string           `json:"name"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Problems  []string         `json:"problems,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
}

// summary is the median and quartiles of one metric over a set of runs.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	q := quartiles(xs)
	return summary{N: len(xs), Median: median(xs), Q1: q[0], Q3: q[2]}
}

// compareRow is one workload x end-to-end metric of a comparison.
type compareRow struct {
	Workload string   `json:"workload"`
	Metric   string   `json:"metric"`
	Unit     string   `json:"unit"`
	Better   string   `json:"better"`
	Bound    float64  `json:"bound"`
	A        summary  `json:"a"`
	B        *summary `json:"b,omitempty"`
	Verdict  string   `json:"verdict,omitempty"`
}

// comparison is what -compare prints and, with -out, writes.
type comparison struct {
	Meta   meta         `json:"meta"`
	AFiles int          `json:"a_files"`
	BFiles int          `json:"b_files,omitempty"`
	Rows   []compareRow `json:"rows"`
}

// failFrac is the failed share of attempted rounds. It is compared next to
// the end-to-end metrics (see failVerdict) but is not in BENCHMARK.json:
// a run reports it there as its failed and attempted counts.
var failFrac = metricDef{name: "fail_frac", unit: "ratio", better: "lower", bound: 0}

// runCompare implements -compare A.json... [-- B.json...]; flags such as
// -out come before the files.
func runCompare(args []string, out string, stdout, stderr io.Writer) int {
	var aFiles, bFiles []string
	two := false
	for _, a := range args {
		switch {
		case a == "--":
			two = true
		case two:
			bFiles = append(bFiles, a)
		default:
			aFiles = append(aFiles, a)
		}
	}
	if len(aFiles) == 0 || (two && len(bFiles) == 0) {
		fmt.Fprintln(stderr, "usage: benchmark -compare [-out FILE] A.json... [-- B.json...]")
		return 2
	}
	a, err := loadResults(aFiles)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var b []resultFile
	if two {
		if b, err = loadResults(bFiles); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	c := compareSets(a, b)
	printComparison(stdout, c)
	if out != "" {
		if err := writeJSON(out, c); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	for _, r := range c.Rows {
		if r.Verdict == "regressed" {
			return 1
		}
	}
	return 0
}

func loadResults(files []string) ([]resultFile, error) {
	var rs []resultFile
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		rs = append(rs, r)
	}
	return rs, nil
}

// metricValues collects one workload's metric from every file that has it.
func metricValues(rs []resultFile, workload string, def metricDef) []float64 {
	var xs []float64
	for _, r := range rs {
		for _, w := range r.Workloads {
			if w.Name != workload {
				continue
			}
			if def == failFrac {
				if w.Attempted > 0 {
					xs = append(xs, float64(w.Failed)/float64(w.Attempted))
				}
			} else if v, ok := w.EndToEnd[def.name]; ok {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}

// compareSets summarises set a and, when b is non-empty, judges b against
// a for every workload x end-to-end metric.
func compareSets(a, b []resultFile) comparison {
	c := comparison{AFiles: len(a), BFiles: len(b)}
	if len(a) > 0 {
		c.Meta = a[0].Meta
	}
	defs := append(append([]metricDef(nil), endToEnd...), failFrac)
	for _, w := range workloads {
		for _, def := range defs {
			av := metricValues(a, w.name, def)
			if len(av) == 0 {
				continue
			}
			row := compareRow{Workload: w.name, Metric: def.name, Unit: def.unit, Better: def.better, Bound: def.bound, A: summarize(av)}
			if len(b) > 0 {
				bv := metricValues(b, w.name, def)
				s := summarize(bv)
				row.B = &s
				switch {
				case len(bv) == 0:
					row.Verdict = "unresolved"
				case def == failFrac:
					row.Verdict = failVerdict(av, bv)
				default:
					row.Verdict = verdict(def, av, bv)
				}
			}
			c.Rows = append(c.Rows, row)
		}
	}
	return c
}

// verdict judges change b against parent a, pairing the i-th runs:
//
//   - better: b wins at least nine tenths of the pairs (ties count for
//     neither) and the medians differ by more than a's quartile spread;
//   - unresolved: the relative spread of either side exceeds the bound,
//     unless every run of b reads better than every run of a;
//   - regressed: b's median is worse than a's by more than the bound;
//   - no-worse: otherwise.
func verdict(def metricDef, a, b []float64) string {
	sign := 1.0
	if def.better == "lower" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	gain := sign * (mb - ma)
	qa, qb := quartiles(a), quartiles(b)
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	if wins*10 >= pairs*9 && gain > qa[2]-qa[0] {
		return "better"
	}
	if math.Max(relSpread(qa), relSpread(qb)) > def.bound {
		if allBetter(sign, a, b) {
			return "no-worse"
		}
		return "unresolved"
	}
	if -gain > def.bound*math.Abs(ma) {
		return "regressed"
	}
	return "no-worse"
}

// failVerdict judges failure fractions, where any new failure counts: b
// regressed if its worst run failed more than a's worst.
func failVerdict(a, b []float64) string {
	ma, mb := slices.Max(a), slices.Max(b)
	switch {
	case mb > ma:
		return "regressed"
	case mb < ma:
		return "better"
	}
	return "no-worse"
}

// relSpread is the quartile spread as a share of the median.
func relSpread(q [3]float64) float64 {
	iqr := q[2] - q[0]
	if iqr == 0 {
		return 0
	}
	if q[1] == 0 {
		return math.Inf(1)
	}
	return iqr / math.Abs(q[1])
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(sign float64, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				return false
			}
		}
	}
	return true
}

func printComparison(w io.Writer, c comparison) {
	for _, r := range c.Rows {
		line := fmt.Sprintf("%-13s %-17s %-6s A %s", r.Workload, r.Metric, r.Unit, fmtSummary(r.A))
		if r.B != nil {
			line += fmt.Sprintf("  B %s  %s", fmtSummary(*r.B), r.Verdict)
		}
		fmt.Fprintln(w, line)
	}
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%12.6g [%.6g, %.6g] n=%d", s.Median, s.Q1, s.Q3, s.N)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
