package audio

// The complex radix-2 FFT below is the reference the front end's
// real-input transform is tested against.

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// FFT computes the in-place radix-2 Cooley-Tukey FFT of x. len(x) must be a
// power of two. The forward transform uses the e^{-i2πkn/N} convention.
func FFT(x []complex128) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("audio: FFT length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
				w *= wl
			}
		}
	}
}

// IFFT computes the in-place inverse FFT of x (including the 1/N scale).
func IFFT(x []complex128) {
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	FFT(x)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) / n
	}
}

// PowerSpectrum returns |FFT(frame)|^2 for the first n/2+1 bins of the
// real-valued frame, zero-padding the frame up to fftSize.
func PowerSpectrum(frame []float64, fftSize int) []float64 {
	buf := make([]complex128, fftSize)
	for i, v := range frame {
		if i >= fftSize {
			break
		}
		buf[i] = complex(v, 0)
	}
	FFT(buf)
	out := make([]float64, fftSize/2+1)
	for i := range out {
		re, im := real(buf[i]), imag(buf[i])
		out[i] = re*re + im*im
	}
	return out
}

// TestRealFFTMatchesReference: over random frames shorter than and
// equal to the FFT size, the real-input transform's power spectrum is
// within 1e-9 relative of the complex reference. Bins are compared
// relative to the larger of their own power and a 1e-9 share of the
// frame's mean bin power, so near-empty bins are held to the rounding
// level of the transform rather than to their own tiny magnitude.
func TestRealFFTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 4, 16, 512} {
		r := newRealFFT(n)
		re, im := make([]float64, n/2), make([]float64, n/2)
		got := make([]float64, n/2+1)
		for trial := 0; trial < 50; trial++ {
			frame := make([]float64, 1+rng.Intn(n))
			if trial%5 == 0 {
				frame = frame[:cap(frame)]
				frame = append(frame, make([]float64, n-len(frame))...)
			}
			for i := range frame {
				frame[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			want := PowerSpectrum(frame, n)
			r.power(got, frame, re, im)
			var mean float64
			for _, v := range want {
				mean += v
			}
			mean /= float64(len(want))
			for k := range want {
				scale := math.Max(math.Abs(want[k]), 1e-9*mean)
				if math.Abs(got[k]-want[k]) > 1e-9*scale {
					t.Fatalf("n=%d len=%d bin %d: real FFT %v, reference %v", n, len(frame), k, got[k], want[k])
				}
			}
		}
	}
}

// TestRealFFTRejectsBadSizes: the front end refuses FFT sizes the
// radix-2 transform cannot run.
func TestRealFFTRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 1, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("size %d: expected panic", n)
				}
			}()
			newRealFFT(n)
		}()
	}
}

// TestStaticFrameZeroAlloc pins the front end's per-frame contract: in
// steady state, windowing, the FFT, the mel filterbank and the DCT
// reuse the extractor's scratch and a recycled cepstra row.
func TestStaticFrameZeroAlloc(t *testing.T) {
	fe := NewFrontEnd(DefaultFrontEnd())
	se := fe.NewStreamExtractor()
	w := testUtterance(t)[:fe.cfg.FrameLen]
	se.free = append(se.free, make([]float64, fe.cfg.NumCeps))
	allocs := testing.AllocsPerRun(100, func() {
		row := se.staticFrame(w)
		se.free = append(se.free, row)
	})
	if allocs != 0 {
		t.Fatalf("static frame allocates %v per frame, want 0", allocs)
	}
}

// TestPushAllocsIndependentOfFrames: once warm, a Push allocates only
// the feature rows it returns (one slab plus the row slice), however
// many frames the chunk holds — the per-frame work is allocation-free.
func TestPushAllocsIndependentOfFrames(t *testing.T) {
	fe := NewFrontEnd(DefaultFrontEnd())
	rng := rand.New(rand.NewSource(3))
	samples := make([]float64, 200000)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	for _, frames := range []int{1, 8, 32} {
		se := fe.NewStreamExtractor()
		chunk := frames * fe.cfg.FrameShift
		se.Push(samples[:16*chunk+fe.cfg.FrameLen]) // warm the buffers and free list
		off := 16*chunk + fe.cfg.FrameLen
		allocs := testing.AllocsPerRun(4, func() {
			if got := se.Push(samples[off : off+chunk]); len(got) != frames {
				t.Fatalf("pushed %d hops, got %d frames", frames, len(got))
			}
			off += chunk
		})
		if allocs != 2 {
			t.Fatalf("%d-frame push allocates %v, want 2 (row slab + row slice)", frames, allocs)
		}
	}
}
