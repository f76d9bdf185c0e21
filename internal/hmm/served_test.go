package hmm_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"sirius/internal/asr"
	"sirius/internal/hmm"
	"sirius/internal/kb"
)

// bankScorer scores the trained GMM bank in graph senone order, the
// way the served recognizer's scorer chain does.
type bankScorer struct {
	models *asr.Models
	remap  []int
	buf    []float64
}

func (b *bankScorer) ScoreAll(dst, frame []float64) {
	b.models.Bank.ScoreAll(b.buf, frame)
	for i, m := range b.remap {
		dst[i] = b.buf[m]
	}
}
func (b *bankScorer) NumSenones() int { return len(b.remap) }

// tableScorer replays precomputed emissions; frame f is {f}.
type tableScorer struct{ rows [][]float64 }

func (t tableScorer) ScoreAll(dst, frame []float64) { copy(dst, t.rows[int(frame[0])]) }
func (t tableScorer) NumSenones() int               { return len(t.rows[0]) }

func sameResult(a, b hmm.Result) bool {
	return reflect.DeepEqual(a.Words, b.Words) &&
		math.Float64bits(a.Score) == math.Float64bits(b.Score) &&
		math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence) &&
		math.Float64bits(a.AvgActive) == math.Float64bits(b.AvgActive) &&
		a.RunnerUp == b.RunnerUp && a.Frames == b.Frames
}

// TestServedSearchMatchesOracle decodes synthesized Table 1 queries on
// the served graph with trained GMM emissions: the k-token search
// returns the oracles' results bit for bit — n-best for n in {1, 2, 4}
// and 1-best — one-shot and in 7-frame chunks.
func TestServedSearchMatchesOracle(t *testing.T) {
	lex, lm := kb.BuildLexicon()
	// Only the GMM bank scores here; it trains before (and regardless
	// of) the DNN, so skipping DNN epochs leaves the served GMMs.
	tc := asr.DefaultTrainConfig()
	tc.DNNEpochs = 0
	models, err := asr.TrainModels(lex.PhoneSet(), tc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hmm.DefaultConfig()
	g, err := hmm.CompileGraph(lex, lm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() > cfg.MaxActive {
		t.Fatalf("served graph has %d states, above MaxActive %d: histogram pruning would engage", g.NumStates(), cfg.MaxActive)
	}
	modelIdx := map[string]int{}
	for i, p := range models.Phones {
		modelIdx[p] = i
	}
	bs := &bankScorer{models: models, buf: make([]float64, models.NumSenones())}
	for _, p := range g.Phones() {
		for s := 0; s < hmm.StatesPerPhone; s++ {
			bs.remap = append(bs.remap, modelIdx[p]*hmm.StatesPerPhone+s)
		}
	}
	queries := kb.AllQueries()
	stride := 1
	if testing.Short() || raceEnabled {
		stride = 6
	}
	for qi := 0; qi < len(queries); qi += stride {
		q := queries[qi]
		samples, err := asr.SynthesizeText(lex, q.Text, int64(qi))
		if err != nil {
			t.Fatal(err)
		}
		feats := models.FrontEnd.Extract(samples)
		rows := make([][]float64, len(feats))
		frames := make([][]float64, len(feats))
		for f, x := range feats {
			rows[f] = make([]float64, bs.NumSenones())
			bs.ScoreAll(rows[f], x)
			frames[f] = []float64{float64(f)}
		}
		sc := tableScorer{rows}
		dec, err := hmm.NewDecoder(g, sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4} {
			want := hmm.OracleDecodeNBest(g, sc, cfg, frames, n)
			s := dec.NewNBestSession(n)
			for off := 0; off < len(frames); off += 7 {
				if err := s.Advance(context.Background(), frames[off:min(off+7, len(frames))]); err != nil {
					t.Fatal(err)
				}
			}
			for mode, got := range map[string][]hmm.Result{"one-shot": dec.DecodeNBest(frames, n), "chunked": s.Finish()} {
				if len(got) != len(want) {
					t.Fatalf("%s n=%d %s: %d hypotheses, want %d", q.ID, n, mode, len(got), len(want))
				}
				for i := range want {
					if !sameResult(got[i], want[i]) {
						t.Fatalf("%s n=%d %s hyp %d:\n got %+v\nwant %+v", q.ID, n, mode, i, got[i], want[i])
					}
				}
			}
		}
		want := hmm.OracleDecode(g, sc, cfg, frames)
		if got := dec.Decode(frames); !sameResult(got, want) {
			t.Fatalf("%s 1-best:\n got %+v\nwant %+v", q.ID, got, want)
		}
	}
}
