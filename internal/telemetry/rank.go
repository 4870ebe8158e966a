package telemetry

import "slices"

// ranking keeps the k first rows offered to it under cmp, a strict total
// order (negative: a ranks first); a negative k keeps every row. It gathers
// at most 2k+1 rows and cuts them back to the first k, so n offers cost
// O(n log k) time and O(k) space.
type ranking[T any] struct {
	k    int
	cmp  func(a, b T) int
	rows []T
}

func (r *ranking[T]) offer(x T) {
	if r.rows = append(r.rows, x); r.k >= 0 && len(r.rows) > 2*r.k {
		r.best()
	}
}

// best returns the first k rows offered, in order.
func (r *ranking[T]) best() []T {
	slices.SortFunc(r.rows, r.cmp)
	if 0 <= r.k && r.k < len(r.rows) {
		r.rows = r.rows[:r.k]
	}
	return r.rows
}
