package nas

import (
	"math"
	"slices"
	"testing"
)

// TestCGWindowedMatvecMatchesFull: the matvec over a rank's band window
// of pfull equals, bit for bit, the matvec over the whole vector, for
// the first two, a middle and the last two of eight ranks (the windows
// clipped at 0, not clipped, and clipped at N). At the default N the first and last
// ranks hold both edge rows (within cgHalo of an end of pfull) and
// interior rows; at N = 8192 the blocks are 1024 rows, each all edge
// or all interior; at N = 3200 < 2*cgHalo no row is interior. The ranks
// share one q, filled with NaN before each call, so a row the matvec
// failed to overwrite shows.
func TestCGWindowedMatvecMatchesFull(t *testing.T) {
	if want := slices.Max(bands); cgHalo != want {
		t.Fatalf("cgHalo = %d, widest band %d", cgHalo, want)
	}
	const p = 8
	for _, n := range []int{DefaultCG().N, 8192, 3200} {
		local := n / p
		pfull := make([]float64, n)
		for i := range pfull {
			pfull[i] = math.Sin(float64(i)*0.37) + float64(i%97)*1e-3
		}
		got := make([]float64, local)
		for _, rank := range []int{0, 1, p / 2, p - 2, p - 1} {
			lo := rank * local
			want := fullMatvec(pfull, lo, local)
			wlo, whi := cgWindow(n, lo, local)
			for i := range got {
				got[i] = math.NaN()
			}
			cgMatvec(got, pfull[wlo:whi], wlo, n, lo)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("N=%d rank %d row %d: windowed %v, full %v", n, rank, lo+i, got[i], want[i])
				}
			}
		}
	}
}

// fullMatvec is q = A*pfull for the row block [lo, lo+local), reading
// the whole vector.
func fullMatvec(pfull []float64, lo, local int) []float64 {
	n := len(pfull)
	q := make([]float64, local)
	for i := range q {
		row := lo + i
		s := cgDiag * pfull[row]
		for _, b := range bands {
			if j := row - b; j >= 0 {
				s += cgOff * pfull[j]
			}
			if j := row + b; j < n {
				s += cgOff * pfull[j]
			}
		}
		q[i] = s
	}
	return q
}
