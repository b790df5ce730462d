package sweep

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestJobs(t *testing.T) {
	if got := Jobs(4); got != 4 {
		t.Errorf("Jobs(4) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Jobs(0); got != want {
		t.Errorf("Jobs(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Jobs(-3); got != want {
		t.Errorf("Jobs(-3) = %d, want GOMAXPROCS %d", got, want)
	}
}

// TestOrderedCollectsInOrder: collect must see every index exactly once,
// in submission order, regardless of worker count or completion order.
func TestOrderedCollectsInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		workers := workers
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			const n = 50
			rng := rand.New(rand.NewSource(1))
			delays := make([]time.Duration, n)
			for i := range delays {
				delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
			}
			var got []int
			err := Ordered(workers, n, func(i int) (int, error) {
				time.Sleep(delays[i]) // scramble completion order
				return i * i, nil
			}, func(i, v int) error {
				if v != i*i {
					t.Errorf("job %d delivered %d, want %d", i, v, i*i)
				}
				got = append(got, i)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("collected %d results, want %d", len(got), n)
			}
			for i, idx := range got {
				if idx != i {
					t.Fatalf("collection order %v not ascending at %d", got[:i+1], i)
				}
			}
		})
	}
}

// TestOrderedFirstErrorWins: the error returned must be the lowest-index
// failure — what the serial loop would have returned — even when a
// later-index job fails first in wall time.
func TestOrderedFirstErrorWins(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	err := Ordered(4, 20, func(i int) (int, error) {
		switch i {
		case 3:
			time.Sleep(2 * time.Millisecond) // fails second in wall time
			return 0, errLow
		case 7:
			return 0, errHigh // fails first in wall time
		default:
			return i, nil
		}
	}, nil)
	if !errors.Is(err, errLow) {
		t.Fatalf("got error %v, want lowest-index error %v", err, errLow)
	}
}

// TestOrderedCancelsAfterError: jobs not yet started when an error
// surfaces must be skipped.
func TestOrderedCancelsAfterError(t *testing.T) {
	const n = 1000
	boom := errors.New("boom")
	var started atomic.Int64
	err := Ordered(2, n, func(i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, boom
		}
		time.Sleep(100 * time.Microsecond)
		return i, nil
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if s := started.Load(); s >= n {
		t.Errorf("all %d jobs started despite early error", s)
	}
}

// TestOrderedCollectError: an error from collect stops the sweep.
func TestOrderedCollectError(t *testing.T) {
	stop := errors.New("stop")
	var collected int
	err := Ordered(4, 100, func(i int) (int, error) {
		return i, nil
	}, func(i, v int) error {
		collected++
		if i == 5 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("got %v, want %v", err, stop)
	}
	if collected != 6 {
		t.Errorf("collected %d results after error at index 5, want 6", collected)
	}
}

func TestOrderedEmpty(t *testing.T) {
	if err := Ordered(4, 0, func(i int) (int, error) { return 0, nil }, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOrderedDeterministic: two parallel runs over a pure function must
// collect identical sequences (the property the experiment parity tests
// rely on at a higher level).
func TestOrderedDeterministic(t *testing.T) {
	run := func() []int {
		var got []int
		err := Ordered(8, 200, func(i int) (int, error) {
			return i * 31 % 17, nil
		}, func(i, v int) error {
			got = append(got, v)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
