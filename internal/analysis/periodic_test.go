package analysis

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// fullDFT is the full-spectrum transform dft replaced, kept verbatim as the
// oracle: every bin, each term a complex multiply by cmplx.Exp.
func fullDFT(x []float64) []complex128 {
	n := len(x)
	if n > 2048 {
		factor := (n + 2047) / 2048
		var reduced []float64
		for i := 0; i < n; i += factor {
			sum := 0.0
			for j := i; j < i+factor && j < n; j++ {
				sum += x[j]
			}
			reduced = append(reduced, sum)
		}
		x = reduced
		n = len(x)
	}
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += complex(x[t], 0) * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

// dftInputs returns, for length n, a dense Gaussian signal and a sparse
// mean-removed event train like the ones isPeriodic builds.
func dftInputs(rng *rand.Rand, n int) [][]float64 {
	dense := make([]float64, n)
	for i := range dense {
		dense[i] = rng.NormFloat64() * 3
	}
	train := make([]float64, n)
	mean := 0.0
	for i := range train {
		if rng.Intn(7) == 0 {
			train[i] = float64(1 + rng.Intn(3))
			mean += train[i]
		}
	}
	mean /= float64(n)
	for i := range train {
		train[i] -= mean
	}
	return [][]float64{dense, train}
}

// TestDFTMatchesFullSpectrum asserts the half-spectrum dft returns exactly
// the bins isPeriodic reads from the full transform, bit for bit, including
// lengths that take the decimation path.
func TestDFTMatchesFullSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{8, 9, 2047, 2048, 2049, 1 << 14} {
		for i, x := range dftInputs(rng, n) {
			want := fullDFT(x)
			got := dft(x)
			if len(got) != len(want)/2 {
				t.Fatalf("n=%d input %d: %d bins, want %d", n, i, len(got), len(want)/2)
			}
			for k := 1; k < len(want)/2; k++ {
				g, w := got[k], want[k]
				if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
					math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
					t.Fatalf("n=%d input %d bin %d: got %v, want %v", n, i, k, g, w)
				}
			}
		}
	}
}

var dftSink []complex128

// BenchmarkDFT times one transform of the largest undecimated train.
func BenchmarkDFT(b *testing.B) {
	x := dftInputs(rand.New(rand.NewSource(1)), 2048)[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dftSink = dft(x)
	}
}
