// Package ingress is the PR-8 ingress-ordering fixture: flow grants
// fired while ranging a pending map reach the event queue in map order,
// with the scheduling sink hidden two helper hops down; the call at the
// loop is the site. The fixed shape (drain by a sorted id list) stays
// clean.
package ingress

type Time int64

type Engine struct{ now Time }

func (e *Engine) Now() Time                                     { return e.now }
func (e *Engine) AtCall(at Time, fire func(Time, any), arg any) {}

type flow struct {
	eng *Engine
	at  Time
}

// grant fires the arrival callback for one flow.
func grant(f *flow) {
	f.eng.AtCall(f.at, nil, f)
}

// release forwards to grant: the sink is two hops from the range body.
func release(f *flow) {
	grant(f)
}

// drainPending is the bug shape: grants are emitted in map order.
func drainPending(pending map[int]*flow) {
	for _, f := range pending {
		release(f) // want "call to release while ranging over a map"
	}
}

// drainSorted is the fix shape: iterate a sorted id list instead.
func drainSorted(pending map[int]*flow, order []int) {
	for _, id := range order {
		release(pending[id])
	}
}
