package main

import (
	"container/heap"
	"sync"
	"time"
)

// The host's speed drifts: on a shared 2-core host the same repetition ran
// up to 50 % slower for minutes at a time, and a fixed CPU loop, goroutine
// hand-offs and allocation slowed with it. A wall time alone then measures
// the neighbours. So after every untraced repetition the benchmark times a
// fixed reference job, written here and independent of the program, that
// uses the host the way the simulator does: arithmetic, goroutine
// hand-offs, a ring of goroutines, pointer-rich allocation in a map, and a
// binary event heap. Wall metrics are scaled by referenceS ÷ that time,
// which reads them at the speed of a host that runs the reference job in
// referenceS.

// referenceS is the median reference time on the host the bounds were set
// on (2 vCPUs of an Intel Xeon at 2.0 GHz, GOMAXPROCS 1, go1.24.0).
const referenceS = 0.045

// reference runs the reference job once and returns its wall seconds.
func reference() float64 {
	start := time.Now()
	refSink += refArith() + refPingPong() + refRing() + refMap() + refHeap()
	return time.Since(start).Seconds()
}

// refSink keeps the compiler from dropping the reference job's results.
var refSink uint64

func refArith() uint64 {
	x := uint64(1)
	for i := 0; i < 4_000_000; i++ {
		x = x*6364136223846793005 + uint64(i)
	}
	return x
}

// refPingPong hands control back and forth between two goroutines, as a
// simulation engine and its procs do.
func refPingPong() uint64 {
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
	}()
	var v uint64
	for i := 0; i < 20_000; i++ {
		ping <- v
		v = <-pong
	}
	close(ping)
	return v
}

// refRing passes a token around a ring of 32 goroutines, as the thread
// procs of one rank take turns.
func refRing() uint64 {
	const n, laps = 32, 800
	chs := make([]chan uint64, n+1)
	for i := range chs {
		chs[i] = make(chan uint64)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(in, out chan uint64) {
			defer wg.Done()
			for v := range in {
				out <- v + 1
			}
			close(out)
		}(chs[i], chs[i+1])
	}
	var v uint64
	for k := 0; k < laps; k++ {
		chs[0] <- v
		v = <-chs[n]
	}
	close(chs[0])
	for range chs[n] {
	}
	wg.Wait()
	return v
}

type refNode struct {
	key  uint64
	next *refNode
	pad  [6]uint64
}

// refMap churns a map of linked, pointer-bearing nodes.
func refMap() uint64 {
	m := map[uint64]*refNode{}
	for i := uint64(0); i < 60_000; i++ {
		k := mix(i) % 20_000
		m[k] = &refNode{key: k, next: m[k]}
		if i%3 == 0 {
			delete(m, mix(i, 1)%20_000)
		}
	}
	return uint64(len(m))
}

type refEvent struct {
	at, seq uint64
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || q[i].at == q[j].at && q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// refHeap runs a discrete-event calendar on a binary heap: pop the earliest
// event, schedule a new one a seeded delay later.
func refHeap() uint64 {
	q := &refQueue{}
	for i := uint64(0); i < 2048; i++ {
		heap.Push(q, &refEvent{at: mix(i, 2) % 1000, seq: i})
	}
	var now uint64
	for i := uint64(0); i < 60_000; i++ {
		now = heap.Pop(q).(*refEvent).at
		heap.Push(q, &refEvent{at: now + 1 + mix(i, 3)%1000, seq: 2048 + i})
	}
	return now
}
