package robust

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// FoldScratch carries the reusable buffers the robust aggregation kernels
// need. The zero value is ready; buffers grow to the largest cohort seen
// and are then reused, so steady-state folds allocate nothing.
type FoldScratch struct {
	col    []float64 // per-coordinate gather column, len = cohort size
	dists  []float64 // Krum pairwise squared distances, cohort² entries
	scores []float64 // Krum per-candidate scores
}

var errEmptyCohort = errors.New("robust: fold over empty cohort")

func (s *FoldScratch) cohort(dst []float64, vecs [][]float64) (int, error) {
	k := len(vecs)
	if k == 0 {
		return 0, errEmptyCohort
	}
	for i, v := range vecs {
		if len(v) != len(dst) {
			return 0, fmt.Errorf("robust: update %d has %d weights, want %d", i, len(v), len(dst))
		}
	}
	s.col = growFloats(s.col, k)
	return k, nil
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// canon is the gather law every fold applies to a value it reads from an
// update: -0 counts as +0 and NaN as +Inf. A non-finite update is thereby
// the largest value of its coordinate — the side a median or a trimmed mean
// discards — where a raw NaN, unordered against everything, used to stop
// insertionSort in its tracks and come out as the aggregate. It also makes
// "sorted" unique to the bit: equal values are then identical values.
func canon(v float64) float64 {
	v += 0 // -0 + +0 = +0 under round-to-nearest; every other value is kept
	if v != v {
		v = math.Inf(1)
	}
	return v
}

// insertionSort keeps the per-coordinate sort allocation-free; cohorts are
// small (tens of updates), so O(k²) beats sort.Float64s' interface cost.
func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// Median writes the coordinate-wise median of vecs into dst (the even-
// cohort median averages the two middle values), reading every value under
// the gather law (canon). dst must not alias vecs.
func (s *FoldScratch) Median(dst []float64, vecs [][]float64) error {
	k, err := s.cohort(dst, vecs)
	if err != nil {
		return err
	}
	for j := range dst {
		for i, v := range vecs {
			s.col[i] = canon(v[j])
		}
		insertionSort(s.col)
		if k%2 == 1 {
			dst[j] = s.col[k/2]
		} else {
			dst[j] = (s.col[k/2-1] + s.col[k/2]) / 2
		}
	}
	return nil
}

// TrimmedMean writes the coordinate-wise β-trimmed mean of vecs into dst:
// per coordinate the floor(β·k) smallest and largest values are discarded
// and the rest averaged, values read under the gather law (canon). β is
// clamped so at least one value survives; β=0 degrades to the plain
// coordinate mean. dst must not alias vecs.
func (s *FoldScratch) TrimmedMean(dst []float64, vecs [][]float64, beta float64) error {
	k, err := s.cohort(dst, vecs)
	if err != nil {
		return err
	}
	if beta < 0 {
		beta = 0
	}
	t := int(beta * float64(k))
	if 2*t >= k {
		t = (k - 1) / 2
	}
	for j := range dst {
		for i, v := range vecs {
			s.col[i] = canon(v[j])
		}
		insertionSort(s.col)
		sum := 0.0
		for i := t; i < k-t; i++ {
			sum += s.col[i]
		}
		dst[j] = sum / float64(k-2*t)
	}
	return nil
}

// Krum copies the Krum(f) winner of vecs into dst and returns its index:
// each candidate is scored by the sum of its k-f-2 smallest squared
// distances to the other candidates (clamped to at least one neighbor for
// tiny cohorts) and the lowest score wins, ties to the lowest index. A NaN
// distance counts as +Inf, so an update carrying NaN scores +Inf and the
// honest candidates drop it among their farthest neighbors. f is the number
// of byzantine updates the fold should tolerate; f<0 picks the standard
// (k-3)/2. dst must not alias vecs.
func (s *FoldScratch) Krum(dst []float64, vecs [][]float64, f int) (int, error) {
	k, err := s.cohort(dst, vecs)
	if err != nil {
		return 0, err
	}
	if k == 1 {
		copy(dst, vecs[0])
		return 0, nil
	}
	if f < 0 {
		f = (k - 3) / 2
		if f < 0 {
			f = 0
		}
	}
	m := k - f - 2 // closest neighbors counted per candidate
	if m < 1 {
		m = 1
	}
	if m > k-1 {
		m = k - 1
	}
	s.dists = growFloats(s.dists, k*k)
	s.scores = growFloats(s.scores, k)
	for i := 0; i < k; i++ {
		s.dists[i*k+i] = 0
		for j := i + 1; j < k; j++ {
			d := tensor.SqDist(vecs[i], vecs[j])
			if d != d {
				d = math.Inf(1)
			}
			s.dists[i*k+j] = d
			s.dists[j*k+i] = d
		}
	}
	for i := 0; i < k; i++ {
		// The m smallest of candidate i's k-1 neighbor distances, via the
		// same allocation-free insertion sort over the reused column.
		row := s.col[:0]
		for j := 0; j < k; j++ {
			if j != i {
				row = append(row, s.dists[i*k+j])
			}
		}
		insertionSort(row)
		sum := 0.0
		for _, d := range row[:m] {
			sum += d
		}
		s.scores[i] = sum
	}
	best := 0
	for i := 1; i < k; i++ {
		if s.scores[i] < s.scores[best] {
			best = i
		}
	}
	copy(dst, vecs[best])
	return best, nil
}
