package audio

import "math"

// Streaming MFCC extraction. A StreamExtractor accepts audio in
// arbitrarily sized chunks and emits exactly the feature frames
// FrontEnd.Extract would produce for the concatenated samples — the
// one-shot path is in fact implemented on top of it, so there is a
// single feature-extraction implementation and chunked-vs-whole parity
// holds by construction. Two pieces of state carry across chunk
// boundaries:
//
//   - Sample overlap: analysis windows are FrameLen long but advance by
//     FrameShift, so FrameLen-FrameShift samples of every chunk's tail
//     (plus one extra sample for pre-emphasis, which differences against
//     the previous raw sample) belong to the next chunk's first frames.
//   - Delta lookahead: feature frame t carries regression deltas over
//     static frames t-4..t+4 (delta needs ±2 statics, delta-delta ±2
//     deltas), so emission trails static computation by deltaSpan frames
//     and Flush drains the tail once the final frame count — which the
//     end-clamped regression windows depend on — is known.
type StreamExtractor struct {
	fe *FrontEnd

	// buf holds unconsumed samples; buf[0] is the first sample of the
	// next analysis window and prev is the raw sample preceding it
	// (0 at stream start), which pre-emphasis differences against.
	buf  []float64
	prev float64

	// statics is the window of computed static-cepstra frames still
	// needed for delta regression; statics[0] is frame staticBase.
	// Rows that leave the window wait in free for reuse.
	statics    [][]float64
	free       [][]float64
	staticBase int
	nStatic    int // total static frames computed
	emitted    int // feature frames emitted

	// Per-frame scratch: the windowed frame, the FFT's working arrays,
	// the power spectrum and the log mel energies.
	frame, re, im, spec, logmel []float64
}

// deltaSpan is how many future static frames feature frame t depends
// on: the delta window is ±2 statics and the delta-delta window ±2
// deltas, so t sees statics up to t+4.
const deltaSpan = 4

// NewStreamExtractor starts a streaming extraction session.
func (fe *FrontEnd) NewStreamExtractor() *StreamExtractor {
	cfg := fe.cfg
	return &StreamExtractor{
		fe:     fe,
		frame:  make([]float64, cfg.FrameLen),
		re:     make([]float64, cfg.FFTSize/2),
		im:     make([]float64, cfg.FFTSize/2),
		spec:   make([]float64, cfg.FFTSize/2+1),
		logmel: make([]float64, cfg.NumFilters),
	}
}

// Push appends a chunk of 16 kHz samples and returns the feature frames
// that became final — identical, bit for bit, to the corresponding rows
// of a whole-utterance Extract. It may return nothing (chunk shorter
// than the window overlap) or several frames. The returned rows are not
// reused by the extractor. Steady state, the per-frame work allocates
// nothing; each call allocates only the rows it returns.
func (se *StreamExtractor) Push(samples []float64) [][]float64 {
	cfg := se.fe.cfg
	se.buf = append(se.buf, samples...)
	head := 0
	for head+cfg.FrameLen <= len(se.buf) {
		se.statics = append(se.statics, se.staticFrame(se.buf[head:head+cfg.FrameLen]))
		se.nStatic++
		se.prev = se.buf[head+cfg.FrameShift-1]
		head += cfg.FrameShift
	}
	if head > 0 {
		se.buf = se.buf[:copy(se.buf, se.buf[head:])]
	}
	// With deltas, a frame is final once its full +deltaSpan lookahead
	// exists: every regression index it touches is then < nStatic <= the
	// final frame count, so the end-clamping a whole-utterance pass
	// would apply can no longer affect it.
	ready := se.nStatic
	if cfg.Deltas {
		ready -= deltaSpan
	}
	out := se.emit(ready, -1)
	se.trim()
	return out
}

// Flush ends the stream and returns the trailing frames whose delta
// windows were waiting on the (now known) final frame count. The
// extractor must not be pushed to afterwards.
func (se *StreamExtractor) Flush() [][]float64 {
	return se.emit(se.nStatic, se.nStatic)
}

// Frames returns the number of feature frames emitted so far.
func (se *StreamExtractor) Frames() int { return se.emitted }

// emit assembles feature frames up to (not including) upto, as rows of
// one slab; n is the total frame count for end clamping (-1 while
// unknown).
func (se *StreamExtractor) emit(upto, n int) [][]float64 {
	count := upto - se.emitted
	if count <= 0 {
		return nil
	}
	dim := se.fe.cfg.Dim()
	slab := make([]float64, count*dim)
	out := make([][]float64, count)
	for i := range out {
		out[i] = slab[i*dim : (i+1)*dim : (i+1)*dim]
		se.feature(out[i], se.emitted, n)
		se.emitted++
	}
	return out
}

// staticAt returns static frame t from the sliding window.
func (se *StreamExtractor) staticAt(t int) []float64 { return se.statics[t-se.staticBase] }

// trim drops static frames no future emission can reference. The next
// frame to emit looks back at most deltaSpan statics.
func (se *StreamExtractor) trim() {
	keepFrom := se.emitted - deltaSpan
	if keepFrom > se.staticBase {
		n := keepFrom - se.staticBase
		se.free = append(se.free, se.statics[:n]...)
		se.statics = se.statics[:copy(se.statics, se.statics[n:])]
		se.staticBase = keepFrom
	}
}

// clampFrame clamps a regression index to the frames that exist: below
// to 0, above to n-1 when the total frame count n is known (n < 0
// mid-stream, where emission order guarantees the high clamp is moot).
func clampFrame(i, n int) int {
	if i < 0 {
		return 0
	}
	if n >= 0 && i >= n {
		return n - 1
	}
	return i
}

// deltaStatic computes the first-order regression delta of cepstrum k
// at frame t: sum(i*(x[t+i]-x[t-i])) / (2*sum(i^2)) over a ±2 window.
func (se *StreamExtractor) deltaStatic(t, k, n int) float64 {
	var num float64
	for i := 1; i <= 2; i++ {
		num += float64(i) * (se.staticAt(clampFrame(t+i, n))[k] - se.staticAt(clampFrame(t-i, n))[k])
	}
	return num / 10
}

// feature writes frame t's feature vector into v: the static cepstra,
// then (with deltas) the delta and delta-delta coefficients. n is the
// total frame count for end clamping (-1 while unknown).
func (se *StreamExtractor) feature(v []float64, t, n int) {
	copy(v, se.staticAt(t))
	if !se.fe.cfg.Deltas {
		return
	}
	nc := se.fe.cfg.NumCeps
	for k := 0; k < nc; k++ {
		v[nc+k] = se.deltaStatic(t, k, n)
	}
	for k := 0; k < nc; k++ {
		var num float64
		for i := 1; i <= 2; i++ {
			num += float64(i) * (se.deltaStatic(clampFrame(t+i, n), k, n) - se.deltaStatic(clampFrame(t-i, n), k, n))
		}
		v[2*nc+k] = num / 10
	}
}

// staticFrame computes one frame of static cepstra from window w (len
// FrameLen), pre-emphasizing against se.prev, the raw sample preceding
// w[0]. The row comes from the free list when one is waiting.
func (se *StreamExtractor) staticFrame(w []float64) []float64 {
	fe := se.fe
	cfg := fe.cfg
	prev := se.prev
	for i := 0; i < cfg.FrameLen; i++ {
		s := w[i]
		se.frame[i] = (s - cfg.PreEmph*prev) * fe.window[i]
		prev = s
	}
	fe.fft.power(se.spec, se.frame, se.re, se.im)
	for m, taps := range fe.filters {
		var e float64
		for _, t := range taps {
			e += t.weight * se.spec[t.bin]
		}
		se.logmel[m] = math.Log(e + 1e-10)
	}
	var ceps []float64
	if n := len(se.free); n > 0 {
		ceps, se.free = se.free[n-1], se.free[:n-1]
	} else {
		ceps = make([]float64, cfg.NumCeps)
	}
	for k := range ceps {
		var s float64
		for n := 0; n < cfg.NumFilters; n++ {
			s += fe.dct[k][n] * se.logmel[n]
		}
		ceps[k] = s
	}
	return ceps
}

// StreamVAD is the causal endpointing gate for streaming recognition:
// it watches per-hop RMS energy, estimates the noise floor from the
// quietest hops seen so far, and latches "speech started" once a hop
// exceeds floor*ThresholdK. Until then chunks can be skipped (minus a
// held-back margin so the onset is not clipped). Unlike TrimSilence it
// cannot look ahead, so the floor estimate is running, not global.
type StreamVAD struct {
	cfg     VADConfig
	pending []float64 // samples not yet covering a full analysis window
	floor   float64   // running noise-floor estimate (min hop RMS)
	started bool
}

// NewStreamVAD builds a causal gate from an endpointer config.
func NewStreamVAD(cfg VADConfig) *StreamVAD {
	return &StreamVAD{cfg: cfg, floor: math.Inf(1)}
}

// Started reports whether speech has been detected yet.
func (v *StreamVAD) Started() bool { return v.started }

// Push analyzes one chunk and reports whether speech has started (it
// latches true from the first speech hop onward).
func (v *StreamVAD) Push(samples []float64) bool {
	if v.started {
		return true
	}
	v.pending = append(v.pending, samples...)
	head := 0
	for head+v.cfg.FrameLen <= len(v.pending) {
		var e float64
		for i := 0; i < v.cfg.FrameLen; i++ {
			s := v.pending[head+i]
			e += s * s
		}
		rms := math.Sqrt(e / float64(v.cfg.FrameLen))
		if rms < v.floor {
			v.floor = rms
		}
		threshold := v.floor * v.cfg.ThresholdK
		if threshold < 1e-6 {
			threshold = 1e-6
		}
		if rms > threshold {
			v.started = true
			v.pending = nil
			return true
		}
		head += v.cfg.HopLen
	}
	if head > 0 {
		v.pending = v.pending[:copy(v.pending, v.pending[head:])]
	}
	return false
}

// Margin returns the number of silence samples worth keeping before the
// detected onset so the first phone is not clipped.
func (v *StreamVAD) Margin() int {
	return int(v.cfg.MarginSec * float64(v.cfg.SampleRate))
}
