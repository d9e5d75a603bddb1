package robust

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// FoldScratch carries the reusable buffers the robust aggregation kernels
// need. The zero value is ready; buffers grow to the largest cohort seen
// and are then reused, and the sorting network of every cohort size seen is
// kept, so steady-state folds allocate nothing — also when drop-outs make
// the cohort size wander.
type FoldScratch struct {
	tile   []float64       // Median/TrimmedMean: cohort rows × foldTile coordinates
	nets   map[int][]cmpEx // sorting network by cohort size
	col    []float64       // Krum: one candidate's neighbor distances
	dists  []float64       // Krum pairwise squared distances, cohort² entries
	scores []float64       // Krum per-candidate scores
}

var errEmptyCohort = errors.New("robust: fold over empty cohort")

func cohort(dst []float64, vecs [][]float64) (int, error) {
	k := len(vecs)
	if k == 0 {
		return 0, errEmptyCohort
	}
	for i, v := range vecs {
		if len(v) != len(dst) {
			return 0, fmt.Errorf("robust: update %d has %d weights, want %d", i, len(v), len(dst))
		}
	}
	return k, nil
}

// insertionSort orders one Krum candidate's neighbor distances without
// allocating; cohorts are small (tens of updates), so O(k²) beats
// sort.Float64s' interface cost.
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

// The coordinate folds sort every coordinate's k values — one per update —
// and read order statistics off the result. They do it a tile of foldTile
// coordinates at a time: the k updates' slices of the tile are copied into
// k scratch rows (loadRow, which applies the gather law below), a sorting
// network runs over the rows — each comparator one element-wise (min, max)
// pass over two rows (cmpExRows), no branch on any value — and the
// statistic is read out of the sorted rows in one more pass. loadRow and
// cmpExRows are two-wide SSE2 on amd64 (fold_amd64.s); their Go twins
// loadRowGo and cmpExRowsGo below run on every other GOARCH, and on amd64
// TestFoldRowsMatchGo holds the assembly to them bit for bit.
//
// The gather law: a value read from an update counts -0 as +0 and NaN as
// +Inf. A non-finite update is thereby the largest value of its coordinate
// — the side a median or a trimmed mean discards — where a raw NaN,
// unordered against everything, would poison every comparator it met. It
// also makes "sorted" unique to the bit: with no NaN and one zero, equal
// values are identical values, so any correct way of sorting yields the
// same k rows and the folds are bit-identical to the per-coordinate
// insertion sort they replaced (fold_ref_test.go keeps that loop as the
// oracle).
//
// foldTile·8 B rows put a cohort of ten in 20 kB, inside L1. The folds run
// serially: the whole fold is about a millisecond at 10 × 57k, and handing
// tiles to parallel.For would cost closure allocations on a path pinned at
// zero.
const foldTile = 256

// loadRowGo copies src into dst under the gather law: -0 becomes +0 (v + 0)
// and NaN becomes +Inf.
func loadRowGo(dst, src []float64) {
	inf := math.Inf(1)
	dst = dst[:len(src)]
	for i, v := range src {
		v += 0
		if v != v {
			v = inf
		}
		dst[i] = v
	}
}

// cmpExRowsGo leaves min(lo[i], hi[i]) in lo[i] and the max in hi[i]. The
// rows hold no NaN and no -0 (loadRow), so the builtins' special cases
// never fire and the pair of results is the pair of inputs, ordered.
func cmpExRowsGo(lo, hi []float64) {
	hi = hi[:len(lo)]
	for i, a := range lo {
		b := hi[i]
		lo[i] = min(a, b)
		hi[i] = max(a, b)
	}
}

// cmpEx is one comparator of a sorting network: it leaves the smaller of
// rows lo and hi in lo and the larger in hi, coordinate by coordinate.
type cmpEx struct{ lo, hi int }

// sortNetwork generates Batcher's odd-even merge sort for the next power
// of two at or above k and drops every comparator that touches an index
// >= k. Those inputs can be read as +Inf: every comparator points upward
// (lo < hi), so a +Inf at hi never moves and the comparator is a no-op.
// Nothing here is transcribed from a table — TestSortNetworkZeroOne is the
// proof that what comes out sorts.
func sortNetwork(k int) []cmpEx {
	n := 1
	for n < k {
		n *= 2
	}
	var net []cmpEx
	for p := 1; p < n; p *= 2 { // merge sorted runs of p into runs of 2p
		for d := p; d >= 1; d /= 2 {
			for j := d % p; j+d < n; j += 2 * d {
				for i := j; i < j+d && i+d < k; i++ {
					if i/(2*p) == (i+d)/(2*p) {
						net = append(net, cmpEx{i, i + d})
					}
				}
			}
		}
	}
	return net
}

// sortRows readies the scratch for folding a cohort of k: k tile rows and
// k's sorting network, built on first sight of k and kept.
func (s *FoldScratch) sortRows(k int) []cmpEx {
	s.tile = tensor.EnsureVec(s.tile, k*foldTile)
	net, ok := s.nets[k]
	if !ok {
		if s.nets == nil {
			s.nets = make(map[int][]cmpEx)
		}
		net = sortNetwork(k)
		s.nets[k] = net
	}
	return net
}

// row is the first w coordinates of tile row r.
func (s *FoldScratch) row(r, w int) []float64 {
	return s.tile[r*foldTile : r*foldTile+w]
}

// sortTile loads coordinates [j0, j0+w) of every update into the tile rows
// and sorts them: afterwards row r holds, per coordinate, the r-th smallest
// of the cohort's values under the gather law.
func (s *FoldScratch) sortTile(vecs [][]float64, j0, w int, net []cmpEx) {
	for r, v := range vecs {
		loadRow(s.row(r, w), v[j0:j0+w])
	}
	for _, c := range net {
		cmpExRows(s.row(c.lo, w), s.row(c.hi, w))
	}
}

// Median writes the coordinate-wise median of vecs into dst (the even-
// cohort median averages the two middle values), reading every value under
// the gather law. dst must not alias vecs.
func (s *FoldScratch) Median(dst []float64, vecs [][]float64) error {
	k, err := cohort(dst, vecs)
	if err != nil {
		return err
	}
	net := s.sortRows(k)
	for j0 := 0; j0 < len(dst); j0 += foldTile {
		out := dst[j0:min(j0+foldTile, len(dst))]
		s.sortTile(vecs, j0, len(out), net)
		mid := s.row(k/2, len(out))
		if k%2 == 1 {
			copy(out, mid)
			continue
		}
		below := s.row(k/2-1, len(out))
		for j := range out {
			out[j] = (below[j] + mid[j]) / 2
		}
	}
	return nil
}

// TrimmedMean writes the coordinate-wise β-trimmed mean of vecs into dst:
// per coordinate the floor(β·k) smallest and largest values are discarded
// and the rest averaged, values read under the gather law. β is clamped so
// at least one value survives; β=0 degrades to the plain coordinate mean.
// dst must not alias vecs.
func (s *FoldScratch) TrimmedMean(dst []float64, vecs [][]float64, beta float64) error {
	k, err := cohort(dst, vecs)
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
	net := s.sortRows(k)
	kept := float64(k - 2*t)
	for j0 := 0; j0 < len(dst); j0 += foldTile {
		out := dst[j0:min(j0+foldTile, len(dst))]
		s.sortTile(vecs, j0, len(out), net)
		// Per coordinate: ((0 + row[t]) + row[t+1]) + … left to right, then
		// one division — the sum the per-coordinate loop formed.
		tensor.Zero(out)
		for r := t; r < k-t; r++ {
			tensor.AddTo(out, s.row(r, len(out)))
		}
		for j := range out {
			out[j] /= kept
		}
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
	k, err := cohort(dst, vecs)
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
	s.col = tensor.EnsureVec(s.col, k)
	s.dists = tensor.EnsureVec(s.dists, k*k)
	s.scores = tensor.EnsureVec(s.scores, k)
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
