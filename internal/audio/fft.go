package audio

import (
	"fmt"
	"math"
)

// realFFT computes power spectra of real frames of length n (a power of
// two) the standard way for real input: the even and odd samples become
// the real and imaginary parts of an n/2-point complex sequence, one
// radix-2 FFT transforms it, and a split step recovers the n/2+1
// non-redundant bins. Twiddles (laid out per butterfly stage so inner
// loops read them contiguously) and the bit-reversal permutation are
// tabulated once; the transform's working arrays are caller-owned, so
// one realFFT is shared read-only by every extractor.
type realFFT struct {
	n          int
	rev        []int32   // bit-reversed index of each of the n/2 points
	twRe, twIm []float64 // e^{-πij/h} at h+j: each stage's twiddles, contiguous
	spRe, spIm []float64 // e^{-2πik/n}, k < n/2: split-step twiddles
}

func newRealFFT(n int) *realFFT {
	if n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("audio: FFT length %d is not a power of two >= 2", n))
	}
	m := n / 2
	r := &realFFT{n: n, rev: make([]int32, m)}
	for i := 1; i < m; i++ {
		// rev[i] is rev[i/2] shifted down a bit, plus i's low bit on top.
		r.rev[i] = r.rev[i>>1] >> 1
		if i&1 != 0 {
			r.rev[i] |= int32(m >> 1)
		}
	}
	r.twRe, r.twIm = make([]float64, m), make([]float64, m)
	for half := 1; half < m; half <<= 1 {
		for j := 0; j < half; j++ {
			r.twIm[half+j], r.twRe[half+j] = math.Sincos(-math.Pi * float64(j) / float64(half))
		}
	}
	r.spRe, r.spIm = make([]float64, m), make([]float64, m)
	for k := range r.spRe {
		r.spIm[k], r.spRe[k] = math.Sincos(-2 * math.Pi * float64(k) / float64(n))
	}
	return r
}

// power writes |X[k]|^2, k = 0..n/2, of x zero-padded (or truncated) to
// n samples into dst (length n/2+1). re and im (length n/2 each) are
// scratch. It allocates nothing.
func (r *realFFT) power(dst, x, re, im []float64) {
	m := r.n / 2
	// Pack even/odd samples into bit-reversed order, so the butterflies
	// run in place with no separate permutation pass.
	for p := 0; p < m; p++ {
		var a, b float64
		if 2*p < len(x) {
			a = x[2*p]
		}
		if 2*p+1 < len(x) {
			b = x[2*p+1]
		}
		q := r.rev[p]
		re[q], im[q] = a, b
	}
	re, im = re[:m], im[:m]
	// The first two stages have only the twiddles 1 and -i: run them
	// fused as one radix-4 pass with no multiplications.
	size := 2
	if m >= 4 {
		for a := 0; a+3 < m; a += 4 {
			r0, i0 := re[a]+re[a+1], im[a]+im[a+1]
			r1, i1 := re[a]-re[a+1], im[a]-im[a+1]
			r2, i2 := re[a+2]+re[a+3], im[a+2]+im[a+3]
			r3, i3 := re[a+2]-re[a+3], im[a+2]-im[a+3]
			re[a], im[a] = r0+r2, i0+i2
			re[a+2], im[a+2] = r0-r2, i0-i2
			re[a+1], im[a+1] = r1+i3, i1-r3
			re[a+3], im[a+3] = r1-i3, i1+r3
		}
		size = 8
	}
	for ; size <= m; size <<= 1 {
		half := size / 2
		wr, wi := r.twRe[half:size], r.twIm[half:size]
		for start := 0; start < m; start += size {
			ar, ai := re[start:start+half], im[start:start+half]
			br, bi := re[start+half:start+size], im[start+half:start+size]
			br, bi, ai = br[:len(ar)], bi[:len(ar)], ai[:len(ar)]
			ws, wc := wi[:len(ar)], wr[:len(ar)]
			for j := range ar {
				tr := br[j]*wc[j] - bi[j]*ws[j]
				ti := br[j]*ws[j] + bi[j]*wc[j]
				xr, xi := ar[j], ai[j]
				br[j], bi[j] = xr-tr, xi-ti
				ar[j], ai[j] = xr+tr, xi+ti
			}
		}
	}
	// Split: with Z the half-size transform, the even-sample spectrum is
	// E[k] = (Z[k] + conj Z[m-k])/2, the odd-sample one
	// O[k] = (Z[k] - conj Z[m-k])/2i, and X[k] = E[k] + e^{-2πik/n} O[k].
	dst[0] = (re[0] + im[0]) * (re[0] + im[0])
	dst[m] = (re[0] - im[0]) * (re[0] - im[0])
	for k := 1; k < m; k++ {
		er := (re[k] + re[m-k]) / 2
		ei := (im[k] - im[m-k]) / 2
		or := (im[k] + im[m-k]) / 2
		oi := (re[m-k] - re[k]) / 2
		xr := er + r.spRe[k]*or - r.spIm[k]*oi
		xi := ei + r.spRe[k]*oi + r.spIm[k]*or
		dst[k] = xr*xr + xi*xi
	}
}
