package gmm

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sirius/internal/mat"
)

// sampleMixture draws n points from a known 2-component mixture in dim d.
func sampleMixture(rng *rand.Rand, n int) [][]float64 {
	data := make([][]float64, n)
	for i := range data {
		x := make([]float64, 2)
		if rng.Float64() < 0.5 {
			x[0] = rng.NormFloat64()*0.5 + 5
			x[1] = rng.NormFloat64()*0.5 + 5
		} else {
			x[0] = rng.NormFloat64()*0.5 - 5
			x[1] = rng.NormFloat64()*0.5 - 5
		}
		data[i] = x
	}
	return data
}

func TestSingleGaussianDensityExact(t *testing.T) {
	// A 1-component GMM must equal the closed-form Gaussian log density.
	m := NewModel(1, 2)
	m.Means[0] = []float64{1, -2}
	m.Precs[0] = []float64{4, 0.25} // variances 0.25, 4
	m.RecomputeFactors()
	x := []float64{1.5, 0}
	got := m.LogLikelihood(x)
	want := 0.0
	vars := []float64{0.25, 4}
	for d := range x {
		diff := x[d] - m.Means[0][d]
		want += -0.5*math.Log(2*math.Pi*vars[d]) - diff*diff/(2*vars[d])
	}
	if math.Abs(got-want) > 1e-10 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMixtureIsNormalized(t *testing.T) {
	// Numerically integrate a 1-D 2-component mixture; it must be ~1.
	m := NewModel(2, 1)
	m.Means[0][0] = -1
	m.Means[1][0] = 2
	m.Precs[0][0] = 1
	m.Precs[1][0] = 0.5
	m.LogWeights[0] = math.Log(0.3)
	m.LogWeights[1] = math.Log(0.7)
	m.RecomputeFactors()
	var integral float64
	const step = 0.01
	for x := -20.0; x <= 20; x += step {
		integral += math.Exp(m.LogLikelihood([]float64{x})) * step
	}
	if math.Abs(integral-1) > 1e-3 {
		t.Fatalf("mixture integrates to %v", integral)
	}
}

func TestEMIncreasesLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := sampleMixture(rng, 400)
	m := NewModel(2, 2)
	lls := m.Train(data, 15, rng)
	if len(lls) != 15 {
		t.Fatalf("expected 15 iterations, got %d", len(lls))
	}
	for i := 1; i < len(lls); i++ {
		if lls[i] < lls[i-1]-1e-6 {
			t.Fatalf("EM decreased likelihood at iter %d: %v -> %v", i, lls[i-1], lls[i])
		}
	}
	// The two learned means must land near (+5,+5) and (-5,-5).
	foundPos, foundNeg := false, false
	for _, mean := range m.Means {
		if math.Abs(mean[0]-5) < 1 && math.Abs(mean[1]-5) < 1 {
			foundPos = true
		}
		if math.Abs(mean[0]+5) < 1 && math.Abs(mean[1]+5) < 1 {
			foundNeg = true
		}
	}
	if !foundPos || !foundNeg {
		t.Fatalf("EM means did not separate clusters: %v", m.Means)
	}
}

func TestTrainEmptyData(t *testing.T) {
	m := NewModel(2, 2)
	if lls := m.Train(nil, 5, rand.New(rand.NewSource(1))); lls != nil {
		t.Fatal("training on empty data must be a no-op")
	}
}

func TestClassificationSeparatesPhoneLikeClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mkData := func(center float64, n int) [][]float64 {
		d := make([][]float64, n)
		for i := range d {
			d[i] = []float64{center + rng.NormFloat64(), center/2 + rng.NormFloat64()}
		}
		return d
	}
	a := NewModel(2, 2)
	b := NewModel(2, 2)
	a.Train(mkData(6, 200), 10, rng)
	b.Train(mkData(-6, 200), 10, rng)
	correct := 0
	for i := 0; i < 100; i++ {
		xa := []float64{6 + rng.NormFloat64(), 3 + rng.NormFloat64()}
		xb := []float64{-6 + rng.NormFloat64(), -3 + rng.NormFloat64()}
		if a.LogLikelihood(xa) > b.LogLikelihood(xa) {
			correct++
		}
		if b.LogLikelihood(xb) > a.LogLikelihood(xb) {
			correct++
		}
	}
	if correct < 190 {
		t.Fatalf("only %d/200 correct classifications", correct)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewModel(3, 4)
	for i := range m.Means {
		for d := range m.Means[i] {
			m.Means[i][d] = rng.NormFloat64()
			m.Precs[i][d] = 1 + rng.Float64()
		}
	}
	m.RecomputeFactors()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, -0.2, 0.3, 0.4}
	if math.Abs(got.LogLikelihood(x)-m.LogLikelihood(x)) > 1e-12 {
		t.Fatal("round-tripped model scores differently")
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	if _, err := Load(strings.NewReader("{")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := Load(strings.NewReader(`{"dim":2,"means":[[1,2]],"precs":[],"weights":[],"factors":[]}`)); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := Load(strings.NewReader(`{"dim":3,"means":[[1,2]],"precs":[[1,2]],"weights":[0],"factors":[0]}`)); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestBankParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	models := make([]*Model, 64)
	for i := range models {
		m := NewModel(4, 8)
		for k := range m.Means {
			for d := range m.Means[k] {
				m.Means[k][d] = rng.NormFloat64() * 3
				m.Precs[k][d] = 0.5 + rng.Float64()
			}
		}
		m.RecomputeFactors()
		models[i] = m
	}
	bank := NewBank(models)
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	serial := make([]float64, bank.States())
	parallel := make([]float64, bank.States())
	bank.ScoreAll(serial, x)
	// 0 and -1 defer to the shared mat pool's width; the rest pin it.
	for _, workers := range []int{-1, 0, 1, 2, 4, 7, 100} {
		bank.ScoreAllParallel(parallel, x, workers)
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("workers=%d state %d: %v != %v", workers, i, serial[i], parallel[i])
			}
		}
	}
}

// TestScoreBatchMatchesScoreAll: frame-parallel batch rows are bit for
// bit the per-frame serial sweep at every pool width, including ragged
// frame counts that leave workers uneven ranges.
func TestScoreBatchMatchesScoreAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	models := make([]*Model, 24)
	for i := range models {
		m := NewModel(3, 6)
		for k := range m.Means {
			for d := range m.Means[k] {
				m.Means[k][d] = rng.NormFloat64() * 2
				m.Precs[k][d] = 0.5 + rng.Float64()
			}
		}
		m.RecomputeFactors()
		models[i] = m
	}
	bank := NewBank(models)
	defer mat.SetWorkers(0)
	for _, workers := range []int{1, 2, 3, 8} {
		mat.SetWorkers(workers)
		for _, n := range []int{0, 1, 5, 37} {
			frames := make([][]float64, n)
			for f := range frames {
				frames[f] = make([]float64, 6)
				for d := range frames[f] {
					frames[f][d] = rng.NormFloat64()
				}
			}
			dst := bank.ScoreBatch(frames)
			if len(dst) != n {
				t.Fatalf("workers=%d: %d rows for %d frames", workers, len(dst), n)
			}
			want := make([]float64, bank.States())
			for f := range frames {
				bank.ScoreAll(want, frames[f])
				for s := range want {
					if math.Float64bits(dst[f][s]) != math.Float64bits(want[s]) {
						t.Fatalf("workers=%d frames=%d: frame %d state %d: %v != %v", workers, n, f, s, dst[f][s], want[s])
					}
				}
			}
		}
	}
}

func TestLogLikelihoodFiniteProperty(t *testing.T) {
	m := NewModel(2, 3)
	f := func(a, b, c float64) bool {
		x := []float64{math.Mod(a, 100), math.Mod(b, 100), math.Mod(c, 100)}
		ll := m.LogLikelihood(x)
		return !math.IsNaN(ll) && ll < 0.1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGMMScoreBank(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	models := make([]*Model, 128)
	for i := range models {
		m := NewModel(8, 39)
		for k := range m.Means {
			for d := range m.Means[k] {
				m.Means[k][d] = rng.NormFloat64()
			}
		}
		m.RecomputeFactors()
		models[i] = m
	}
	bank := NewBank(models)
	x := make([]float64, 39)
	dst := make([]float64, bank.States())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.ScoreAll(dst, x)
	}
}

func TestLogLikelihoodFastCloseToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := NewModel(8, 39)
	data := make([][]float64, 300)
	for i := range data {
		data[i] = make([]float64, 39)
		for d := range data[i] {
			data[i][d] = rng.NormFloat64() * 2
		}
	}
	m.Train(data, 5, rng)
	maxErr := math.Log(float64(m.K())) + 1e-9
	for trial := 0; trial < 200; trial++ {
		x := make([]float64, 39)
		for d := range x {
			x[d] = rng.NormFloat64() * 2
		}
		exact := m.LogLikelihood(x)
		fast := m.LogLikelihoodFast(x, 10)
		// Max-approximation bounds: max <= logsum <= max + log K.
		if fast > exact+1e-9 {
			t.Fatalf("fast %v above exact %v", fast, exact)
		}
		if exact-fast > maxErr {
			t.Fatalf("fast %v more than logK below exact %v", fast, exact)
		}
	}
}

func TestLogLikelihoodFastPreservesRanking(t *testing.T) {
	// The decoder only needs the argmax across senones to survive.
	rng := rand.New(rand.NewSource(22))
	models := make([]*Model, 24)
	for i := range models {
		m := NewModel(4, 16)
		for k := range m.Means {
			for d := range m.Means[k] {
				m.Means[k][d] = rng.NormFloat64() * 4
				m.Precs[k][d] = 0.5 + rng.Float64()
			}
		}
		m.RecomputeFactors()
		models[i] = m
	}
	agree := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		x := make([]float64, 16)
		for d := range x {
			x[d] = rng.NormFloat64() * 4
		}
		bestExact, bestFast := 0, 0
		be, bf := math.Inf(-1), math.Inf(-1)
		for i, m := range models {
			if v := m.LogLikelihood(x); v > be {
				be, bestExact = v, i
			}
			if v := m.LogLikelihoodFast(x, 10); v > bf {
				bf, bestFast = v, i
			}
		}
		if bestExact == bestFast {
			agree++
		}
	}
	if agree < trials*95/100 {
		t.Fatalf("fast scoring changed the argmax in %d/%d trials", trials-agree, trials)
	}
}

func BenchmarkGMMScoreFastVsExact(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewModel(8, 39)
	for k := range m.Means {
		for d := range m.Means[k] {
			m.Means[k][d] = rng.NormFloat64() * 3
		}
	}
	m.RecomputeFactors()
	x := make([]float64, 39)
	for d := range x {
		x[d] = rng.NormFloat64() * 3
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.LogLikelihood(x)
		}
	})
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.LogLikelihoodFast(x, 10)
		}
	})
}

func TestKMeansInitSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	data := sampleMixture(rng, 400)
	m := NewModel(2, 2)
	kmeansInit(m, data, rng)
	// After k-means init (before EM), the two means must already sit in
	// different clusters.
	foundPos, foundNeg := false, false
	for _, mean := range m.Means {
		if mean[0] > 2 && mean[1] > 2 {
			foundPos = true
		}
		if mean[0] < -2 && mean[1] < -2 {
			foundNeg = true
		}
	}
	if !foundPos || !foundNeg {
		t.Fatalf("k-means init did not separate clusters: %v", m.Means)
	}
}
