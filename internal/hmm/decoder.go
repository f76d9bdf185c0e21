package hmm

import (
	"context"
	"fmt"
	"math"
	"sync"

	"sirius/internal/mat"
)

// decodeTime records per-utterance Viterbi wall time on the shared
// kernel histogram (sirius_kernel_seconds{kernel="viterbi_decode"}).
var decodeTime = mat.KernelTimer("viterbi_decode")

// Scorer produces per-senone acoustic log-likelihoods for one feature
// frame. The GMM bank and the DNN both implement it (via adapters in
// internal/asr); the decoder is agnostic, mirroring Figure 4 of the paper
// where "GMM scoring or DNN scoring" plugs into the same Viterbi search.
type Scorer interface {
	// ScoreAll writes senone log-likelihoods for frame into dst.
	ScoreAll(dst, frame []float64)
	// NumSenones returns the senone count (phones * StatesPerPhone).
	NumSenones() int
}

// BatchScorer is an optional extension of Scorer: models whose scoring
// is a matrix product (the DNN) can score every frame of an utterance in
// one batched pass, which is exactly the granularity the paper's Suite
// DNN kernel parallelizes ("for each matrix multiplication", Table 4).
// The decoder detects it with a type assertion.
type BatchScorer interface {
	Scorer
	// ScoreAllBatch returns one senone-score row per frame.
	ScoreAllBatch(frames [][]float64) [][]float64
}

// Transition log-probabilities for the 3-state left-to-right phone HMM.
var (
	logSelf = math.Log(0.6)
	logNext = math.Log(0.4)
)

// arc is one decoding-graph transition.
type arc struct {
	to        int32
	wordLabel int32 // word completed when this arc fires; -1 otherwise
	weight    float64
}

// Graph is the compiled decoding network: every word expanded into its
// chain of phone states, fully connected word-to-word through the bigram
// LM.
type Graph struct {
	lex        *Lexicon
	phones     []string
	phoneIdx   map[string]int
	senones    []int32 // per state
	wordEnd    []int32 // word index if state is word-final, else -1
	arcs       [][]arc
	wordStart  []int32
	startProbs []float64 // log P(word | <s>), indexed by word
	// scratch recycles search scratch (token arrays, history arena)
	// across the recognitions that share this graph.
	scratch sync.Pool
}

// Config tunes graph compilation and decoding.
type Config struct {
	Beam        float64 // log-domain beam width; <=0 means no pruning
	WordPenalty float64 // word insertion penalty (log, typically negative)
	LMWeight    float64 // language model scale factor
	// MaxActive, when > 0, layers histogram pruning over the beam: if
	// more than MaxActive states survive the beam in a frame, the
	// threshold is tightened to keep roughly the best MaxActive
	// (Sphinx-style max-active pruning), bounding per-frame work on
	// large graphs independent of how flat the score distribution is.
	MaxActive int
}

// DefaultConfig returns decoding parameters tuned for the synthetic
// task. MaxActive is generous: on this repo's graphs it only engages
// when the beam degenerates, so results match pure beam search.
func DefaultConfig() Config {
	return Config{Beam: 200, WordPenalty: -2, LMWeight: 2, MaxActive: 2048}
}

// CompileGraph builds the decoding network from a lexicon and LM.
func CompileGraph(lex *Lexicon, lm *Bigram, cfg Config) (*Graph, error) {
	g := &Graph{lex: lex, phoneIdx: map[string]int{}}
	g.phones = lex.PhoneSet()
	for i, p := range g.phones {
		g.phoneIdx[p] = i
	}
	g.wordStart = make([]int32, lex.Size())
	g.startProbs = make([]float64, lex.Size())
	wordFinal := make([]int32, lex.Size())
	// Lay out states word by word.
	for wi, word := range lex.Words() {
		phones, err := lex.Pron(word)
		if err != nil {
			return nil, err
		}
		if len(phones) == 0 {
			return nil, fmt.Errorf("hmm: empty pronunciation for %q", word)
		}
		g.wordStart[wi] = int32(len(g.senones))
		for _, ph := range phones {
			pi, ok := g.phoneIdx[ph]
			if !ok {
				return nil, fmt.Errorf("hmm: phone %q missing from phone set", ph)
			}
			for s := 0; s < StatesPerPhone; s++ {
				g.senones = append(g.senones, int32(pi*StatesPerPhone+s))
				g.wordEnd = append(g.wordEnd, -1)
			}
		}
		last := int32(len(g.senones) - 1)
		wordFinal[wi] = last
		g.wordEnd[last] = int32(wi)
		g.startProbs[wi] = cfg.LMWeight * lm.LogProb(-1, wi)
	}
	// Intra-word arcs.
	g.arcs = make([][]arc, len(g.senones))
	for wi := range lex.Words() {
		for s := g.wordStart[wi]; s <= wordFinal[wi]; s++ {
			g.arcs[s] = append(g.arcs[s], arc{to: s, wordLabel: -1, weight: logSelf})
			if s < wordFinal[wi] {
				g.arcs[s] = append(g.arcs[s], arc{to: s + 1, wordLabel: -1, weight: logNext})
			}
		}
	}
	// Cross-word arcs through the LM.
	for wi := range lex.Words() {
		from := wordFinal[wi]
		for wj := range lex.Words() {
			w := logNext + cfg.LMWeight*lm.LogProb(wi, wj) + cfg.WordPenalty
			g.arcs[from] = append(g.arcs[from], arc{to: g.wordStart[wj], wordLabel: int32(wi), weight: w})
		}
	}
	return g, nil
}

// NumStates returns the size of the compiled graph.
func (g *Graph) NumStates() int { return len(g.senones) }

// Phones returns the ordered phone set the senones index into.
func (g *Graph) Phones() []string { return g.phones }

// Result is a decoding outcome.
type Result struct {
	Words     []string
	Score     float64 // total log score of the best path
	Frames    int
	AvgActive float64 // mean number of active states per frame (beam effect)
	// Confidence is a per-frame-normalized margin between the best
	// word-final hypothesis and the runner-up ending in a different word
	// (0 = tie, larger = more certain). RunnerUp names that competitor.
	Confidence float64
	RunnerUp   string
}

// Decoder runs Viterbi beam search over a compiled graph. It is cheap
// to build (each search draws its scratch from the graph's pool) and,
// like its scorer, not safe for concurrent use: concurrent
// recognitions each build their own.
type Decoder struct {
	graph  *Graph
	scorer Scorer
	cfg    Config
}

// NewDecoder pairs a graph with an acoustic scorer.
func NewDecoder(g *Graph, scorer Scorer, cfg Config) (*Decoder, error) {
	need := len(g.phones) * StatesPerPhone
	if scorer.NumSenones() < need {
		return nil, fmt.Errorf("hmm: scorer has %d senones, graph needs %d", scorer.NumSenones(), need)
	}
	return &Decoder{graph: g, scorer: scorer, cfg: cfg}, nil
}

// ctxCheckInterval is how many frames the decode loops advance between
// context checks: frequent enough that an expired deadline releases the
// core within a handful of frames' work, rare enough that the check is
// invisible next to arc relaxation.
const ctxCheckInterval = 8

// Decode runs the full Viterbi search over a feature-frame sequence and
// returns the best word sequence. Steady state the frame loop is
// allocation-free: token arrays, the emission buffer, and word-history
// nodes all come from pooled scratch reused across frames and
// utterances.
func (d *Decoder) Decode(frames [][]float64) Result {
	res, _ := d.DecodeContext(context.Background(), frames)
	return res
}

// DecodeContext is Decode with cancellation: the frame loop checks ctx
// every ctxCheckInterval frames (and immediately after batched acoustic
// scoring, which a canceled batch submission cuts short) and returns
// ctx.Err() with a zero Result, so an expired or canceled query releases
// its core mid-utterance instead of decoding to the end. It is one
// Session advanced over the whole utterance, so the one-shot and
// streaming paths share the search verbatim.
func (d *Decoder) DecodeContext(ctx context.Context, frames [][]float64) (Result, error) {
	if len(frames) == 0 {
		return Result{}, nil
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	s := d.NewSession()
	if err := s.Advance(ctx, frames); err != nil {
		s.release()
		return Result{}, err
	}
	return s.Result(), nil
}

// DecodeNBest runs the search keeping up to k tokens per state and
// returns the n best distinct word sequences (best first). The extra
// hypotheses feed trigram rescoring (Trigram.Rescore), the classic
// two-pass decoder arrangement.
func (d *Decoder) DecodeNBest(frames [][]float64, n int) []Result {
	res, _ := d.DecodeNBestContext(context.Background(), frames, n)
	return res
}

// DecodeNBestContext is DecodeNBest with DecodeContext's cancellation,
// returning ctx.Err() with no hypotheses. It is one n-best Session
// advanced over the whole utterance.
func (d *Decoder) DecodeNBestContext(ctx context.Context, frames [][]float64, n int) ([]Result, error) {
	if len(frames) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := d.NewNBestSession(n)
	if err := s.Advance(ctx, frames); err != nil {
		s.release()
		return nil, err
	}
	return s.Finish(), nil
}

// histogramThreshold implements Sphinx-style max-active pruning over
// each state's best token (-Inf for an empty state): active scores are
// bucketed by depth below the frame's best, and the depth
// that keeps roughly maxActive states becomes the pruning threshold.
// Buckets span the active set's score range (clamped to the beam when
// one is set — anything deeper is pruned by the beam regardless), so
// the resolution tracks the scores actually present. Returns -Inf when
// the active count is already within budget.
func histogramThreshold(cur []float64, best, beam float64, maxActive int, bins []int) float64 {
	if math.IsInf(best, -1) || len(cur) <= maxActive {
		// Nothing active, or the whole graph fits the budget.
		return math.Inf(-1)
	}
	worst := best
	for _, v := range cur {
		if !math.IsInf(v, -1) && v < worst {
			worst = v
		}
	}
	width := best - worst
	if beam > 0 && beam < width {
		width = beam
	}
	if width <= 0 {
		return math.Inf(-1)
	}
	for i := range bins {
		bins[i] = 0
	}
	nb := len(bins)
	scale := float64(nb) / width
	active := 0
	for _, v := range cur {
		if math.IsInf(v, -1) {
			continue
		}
		active++
		idx := int((best - v) * scale)
		if idx >= nb {
			idx = nb - 1
		}
		if idx < 0 {
			idx = 0
		}
		bins[idx]++
	}
	if active <= maxActive {
		return math.Inf(-1)
	}
	kept := 0
	for i := 0; i < nb; i++ {
		kept += bins[i]
		if kept >= maxActive {
			// Keep every state at least this close to best.
			return best - float64(i+1)/scale
		}
	}
	return math.Inf(-1)
}
