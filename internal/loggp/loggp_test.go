package loggp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func testParams() Params {
	return Params{
		L:   time.Microsecond,
		Os:  500 * time.Nanosecond,
		Or:  700 * time.Nanosecond,
		Gap: 300 * time.Nanosecond,
		G:   0.1,
	}
}

func TestValidate(t *testing.T) {
	p := testParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []Params{
		{L: -1, G: 1},
		{Os: -1, G: 1},
		{Or: -1, G: 1},
		{Gap: -1, G: 1},
		{G: 0},
		{G: -0.5},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, c)
		}
	}
}

func TestByteTime(t *testing.T) {
	p := testParams()
	if got := p.ByteTime(1000); got != 100*time.Nanosecond {
		t.Errorf("ByteTime(1000) = %v, want 100ns", got)
	}
	if got := p.ByteTime(0); got != 0 {
		t.Errorf("ByteTime(0) = %v, want 0", got)
	}
	if got := p.ByteTime(-5); got != 0 {
		t.Errorf("ByteTime(-5) = %v, want 0", got)
	}
}

func TestSendTimeMatchesLogGP(t *testing.T) {
	p := testParams()
	// os + (k-1)G + L + or for k = 1001: 500 + 100 + 1000 + 700 ns.
	want := 500*time.Nanosecond + 100*time.Nanosecond + time.Microsecond + 700*time.Nanosecond
	if got := p.SendTime(1001); got != want {
		t.Errorf("SendTime(1001) = %v, want %v", got, want)
	}
}

func TestTrainTimeTwoPartitionFormula(t *testing.T) {
	// The paper's Figure 2: o_s + 2G(k-1) + max(g, o_s, o_r) + L + o_r.
	p := testParams()
	k := 2049
	want := p.Os + 2*p.ByteTime(k-1) + p.MsgGap() + p.L + p.Or
	if got := p.TrainTime(2, k); got != want {
		t.Errorf("TrainTime(2, %d) = %v, want %v", k, got, want)
	}
}

func TestTrainTimeDegenerateCases(t *testing.T) {
	p := testParams()
	if got := p.TrainTime(0, 100); got != 0 {
		t.Errorf("TrainTime(0, 100) = %v, want 0", got)
	}
	if got, want := p.TrainTime(1, 100), p.SendTime(100); got != want {
		t.Errorf("TrainTime(1, 100) = %v, want SendTime = %v", got, want)
	}
}

func TestMsgGapIsMaxOfThree(t *testing.T) {
	p := testParams()
	if got := p.MsgGap(); got != p.Or {
		t.Errorf("MsgGap = %v, want or=%v", got, p.Or)
	}
	p.Gap = 2 * time.Microsecond
	if got := p.MsgGap(); got != p.Gap {
		t.Errorf("MsgGap = %v, want g=%v", got, p.Gap)
	}
	p.Os = 3 * time.Microsecond
	if got := p.MsgGap(); got != p.Os {
		t.Errorf("MsgGap = %v, want os=%v", got, p.Os)
	}
}

func TestBandwidth(t *testing.T) {
	p := testParams() // G = 0.1 ns/B -> 10 GB/s
	if got := p.Bandwidth(); got != 1e10 {
		t.Errorf("Bandwidth = %v, want 1e10", got)
	}
}

func TestTrainTimeMonotoneInCount(t *testing.T) {
	f := func(nRaw, kRaw uint16) bool {
		p := testParams()
		n := int(nRaw%64) + 1
		k := int(kRaw) + 1
		return p.TrainTime(n+1, k) > p.TrainTime(n, k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableLookupFloors(t *testing.T) {
	tb := NewTable()
	small, big := testParams(), testParams()
	big.G = 0.05
	tb.Set(1024, small)
	tb.Set(65536, big)

	if got, ok := tb.Lookup(1024); !ok || got != small {
		t.Errorf("Lookup(1024) = %+v, %v", got, ok)
	}
	if got, ok := tb.Lookup(2048); !ok || got != small {
		t.Errorf("Lookup(2048) should floor to 1024 entry, got %+v, %v", got, ok)
	}
	if got, ok := tb.Lookup(65536); !ok || got != big {
		t.Errorf("Lookup(65536) = %+v, %v", got, ok)
	}
	if got, ok := tb.Lookup(1 << 30); !ok || got != big {
		t.Errorf("Lookup(1GiB) = %+v, %v", got, ok)
	}
	// Below the smallest entry: clamp to smallest.
	if got, ok := tb.Lookup(8); !ok || got != small {
		t.Errorf("Lookup(8) = %+v, %v", got, ok)
	}
}

func TestTableEmptyLookup(t *testing.T) {
	tb := NewTable()
	if _, ok := tb.Lookup(100); ok {
		t.Fatal("empty table lookup reported ok")
	}
}

func TestTableOverwrite(t *testing.T) {
	tb := NewTable()
	tb.Set(100, testParams())
	p2 := testParams()
	p2.L = 9 * time.Microsecond
	tb.Set(100, p2)
	if tb.Len() != 1 {
		t.Fatalf("Len = %d after overwrite, want 1", tb.Len())
	}
	if got, _ := tb.Lookup(100); got != p2 {
		t.Fatalf("overwrite not applied: %+v", got)
	}
}

// TestTableRoundTrip: entries set in any order serialize in size order,
// one "size L os or g G" line each, as ngauge -table prints them.
func TestTableRoundTrip(t *testing.T) {
	tb := NewTable()
	for i, size := range []int{1 << 20, 64, 4096} {
		p := testParams()
		p.L = time.Duration(i+1) * time.Microsecond
		tb.Set(size, p)
	}
	var buf bytes.Buffer
	n, err := tb.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	p := testParams()
	row := fmt.Sprintf(" %d %d %d %.6f\n", p.Os.Nanoseconds(), p.Or.Nanoseconds(), p.Gap.Nanoseconds(), p.G)
	want := "64 2000" + row + "4096 3000" + row + "1048576 1000" + row
	if buf.String() != want {
		t.Fatalf("WriteTo wrote\n%s\nwant\n%s", buf.String(), want)
	}
}

func TestPackets(t *testing.T) {
	cases := []struct{ n, mtu, want int }{
		{0, 4096, 1},
		{1, 4096, 1},
		{4096, 4096, 1},
		{4097, 4096, 2},
		{8192, 4096, 2},
		{12289, 4096, 4},
	}
	for _, c := range cases {
		if got := Packets(c.n, c.mtu); got != c.want {
			t.Errorf("Packets(%d, %d) = %d, want %d", c.n, c.mtu, got, c.want)
		}
	}
}

func TestPacketsBadMTUPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Packets with MTU 0 did not panic")
		}
	}()
	Packets(100, 0)
}

func TestPacketsProperty(t *testing.T) {
	f := func(nRaw uint32, mtuRaw uint16) bool {
		n := int(nRaw % (1 << 24))
		mtu := int(mtuRaw%8192) + 1
		p := Packets(n, mtu)
		if n <= 0 {
			return p == 1
		}
		// p packets cover n bytes; p-1 packets do not.
		return p*mtu >= n && (p-1)*mtu < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNiagaraMeasuredIsValid(t *testing.T) {
	if err := NiagaraMeasured().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsString(t *testing.T) {
	s := testParams().String()
	for _, want := range []string{"L=", "os=", "G=0.1000"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
