package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Median != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.Stddev-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", s.Stddev, want)
	}
}

func TestSummarizeOddMedianAndEmpty(t *testing.T) {
	if got := Summarize([]float64{5, 1, 3}).Median; got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := Summarize(nil); got != (Summary{}) {
		t.Errorf("empty summary = %+v", got)
	}
	one := Summarize([]float64{7})
	if one.Stddev != 0 || one.Mean != 7 {
		t.Errorf("single-sample summary = %+v", one)
	}
}

func TestDurationsAndMean(t *testing.T) {
	ds := []time.Duration{time.Second, 3 * time.Second}
	fs := Durations(ds)
	if fs[0] != 1 || fs[1] != 3 {
		t.Fatalf("Durations = %v", fs)
	}
	if MeanDuration(ds) != 2*time.Second {
		t.Fatalf("MeanDuration = %v", MeanDuration(ds))
	}
	if MeanDuration(nil) != 0 {
		t.Fatal("MeanDuration(nil) != 0")
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(2*time.Second, time.Second); got != 2 {
		t.Fatalf("Speedup = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero variant did not panic")
		}
	}()
	Speedup(time.Second, 0)
}

func TestFormatBytes(t *testing.T) {
	cases := map[int]string{
		512:       "512B",
		1024:      "1KiB",
		1536:      "1536B",
		1 << 20:   "1MiB",
		128 << 20: "128MiB",
		1 << 30:   "1GiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestTableText(t *testing.T) {
	tb := NewTable("Demo", "size", "speedup")
	tb.AddRow("1KiB", 1.5)
	tb.AddRow("2KiB", 2.25)
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	var buf bytes.Buffer
	if err := tb.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== Demo ==", "size", "speedup", "1.500", "2.250", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestTableDurationsFormatting(t *testing.T) {
	tb := NewTable("", "t")
	tb.AddRow(1500 * time.Nanosecond)
	tb.AddRow(2500 * time.Microsecond)
	tb.AddRow(3 * time.Second)
	var buf bytes.Buffer
	if err := tb.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"1.500µs", "2.500ms", "3.000s"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow(`quote"y`, "with,comma")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"quote\"\"y\",\"with,comma\"\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestPowersOfTwo(t *testing.T) {
	got := PowersOfTwo(512, 4096)
	want := []int{512, 1024, 2048, 4096}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestPowersOfTwoEmptyRanges covers the bounds with no powers of two. A
// non-positive lo never grows under doubling, so it must return at once
// rather than append forever.
func TestPowersOfTwoEmptyRanges(t *testing.T) {
	for _, tc := range []struct{ lo, hi int }{
		{0, 4096},
		{-1, 4096},
		{8, 4},
	} {
		if got := PowersOfTwo(tc.lo, tc.hi); got != nil {
			t.Errorf("PowersOfTwo(%d, %d) = %v, want nil", tc.lo, tc.hi, got)
		}
	}
}
