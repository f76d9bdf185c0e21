package gmm

import (
	"time"

	"sirius/internal/mat"
)

// bankTime records bank-sweep wall time on the shared kernel histogram
// (sirius_kernel_seconds{kernel="gmm_score_bank"}).
var bankTime = mat.KernelTimer("gmm_score_bank")

// Bank is a set of mixtures, one per HMM emitting state (senone). Scoring a
// frame against the whole bank is the unit of work the Sirius Suite GMM
// kernel parallelizes ("for each HMM state", Table 4).
type Bank struct {
	Models []*Model
}

// NewBank wraps models into a bank.
func NewBank(models []*Model) *Bank { return &Bank{Models: models} }

// States returns the number of senones in the bank.
func (b *Bank) States() int { return len(b.Models) }

// ScoreAll writes the log-likelihood of x under every senone into dst,
// which must have length States(). This is the single-threaded baseline.
func (b *Bank) ScoreAll(dst []float64, x []float64) {
	for i, m := range b.Models {
		dst[i] = m.LogLikelihood(x)
	}
}

// scoreGrain is the smallest senone range worth dispatching to a pool
// worker: mixture likelihoods are ~µs each, so a handful amortizes the
// dispatch.
const scoreGrain = 4

// ScoreAllParallel is the multicore (CMP) port: senones are divided into
// contiguous ranges that run on the shared mat worker pool,
// synchronizing only at the end — mirroring the paper's Pthread
// methodology (§4.3.1) without per-call goroutine spawns. workers <= 0
// uses the pool's configured width (runtime.NumCPU() by default);
// workers == 1 is the serial baseline.
func (b *Bank) ScoreAllParallel(dst []float64, x []float64, workers int) {
	if workers <= 0 {
		workers = mat.Workers()
	}
	start := time.Now()
	if workers <= 1 || len(b.Models) < 2*workers {
		b.ScoreAll(dst, x)
	} else {
		mat.ParallelWidth(workers, len(b.Models), scoreGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dst[i] = b.Models[i].LogLikelihood(x)
			}
		})
	}
	bankTime.Observe(time.Since(start))
}

// ScoreBatch returns the bank's scores for each frame, one row per
// frame carved from a single slab. Frames, not senones, are split
// across the shared mat pool and each worker sweeps whole frames with
// the serial ScoreAll, so one dispatch covers a whole utterance and
// every row is bit-identical to a per-frame ScoreAll.
func (b *Bank) ScoreBatch(frames [][]float64) [][]float64 {
	n := b.States()
	slab := make([]float64, len(frames)*n)
	rows := make([][]float64, len(frames))
	for i := range rows {
		rows[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	mat.Parallel(len(frames), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b.ScoreAll(rows[i], frames[i])
		}
	})
	return rows
}
