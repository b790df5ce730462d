package a

import "sort"

// This file covers map order leaving a loop without a call: through an
// outer variable or through a return. A fold or a pick made in map order
// differs run over run even when nothing inside the loop has effects.

// keysUnsorted lets the keys escape in map order: no sort follows.
func keysUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "assignment to keys while ranging over a map"
	}
	return keys
}

// keysSorted is the sanctioned collect-then-sort shape.
func keysSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// anyKey returns whichever key iteration yields first.
func anyKey(m map[string]int) string {
	for k := range m {
		return k // want "return of a non-constant value while ranging over a map"
	}
	return ""
}

// sumFloat folds floats in map order: float addition is not
// associative, so the sum's last bits follow the order.
func sumFloat(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want "assignment to sum while ranging over a map"
	}
	return sum
}

// allPositive is an all-of loop: every return is a constant, so the
// answer does not depend on which entry is seen first.
func allPositive(m map[string]int) bool {
	for _, v := range m {
		if v <= 0 {
			return false
		}
	}
	return true
}
