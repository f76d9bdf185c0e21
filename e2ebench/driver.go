package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// poissonDue returns n arrival offsets of a Poisson process at rate per
// second, drawn from rng: the open-loop schedule every unit is timed
// against.
func poissonDue(rng *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// openResult is what one open-loop phase observed.
type openResult struct {
	// lat[i] is unit i's completion minus its due time: it includes any
	// wait for a free caller, so a stall anywhere shows up as latency.
	lat []time.Duration
	// late[i] is how far behind its due time the generator issued unit i.
	late []time.Duration
	// backlog counts units issued but not completed at the moment the
	// generator issued the last arrival.
	backlog int
	elapsed time.Duration
}

// openLoop issues unit i at start+due[i] regardless of completions.
// With callers > 0, at most that many units run at once and the rest
// queue in issue order (a client with a fixed number of connections);
// with callers <= 0 every unit runs on its own goroutine (independent
// speakers). do receives the unit's absolute due time.
func openLoop(ctx context.Context, due []time.Duration, callers int, do func(ctx context.Context, i int, due time.Time) error) openResult {
	n := len(due)
	res := openResult{lat: make([]time.Duration, n), late: make([]time.Duration, n)}
	var completed atomic.Int64
	run := func(i int, at time.Time) {
		_ = do(ctx, i, at) // the caller's do records its own outcome
		res.lat[i] = time.Since(at)
		completed.Add(1)
	}
	// Sized to every unit so the generator never blocks on a busy caller:
	// blocking it would move the queueing into the schedule and hide it.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				run(i, start.Add(due[i]))
			}
		}()
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; i < n; i++ {
		at := start.Add(due[i])
		if d := time.Until(at); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		res.late[i] = time.Since(at)
		if callers > 0 {
			queue <- i
		} else {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				run(i, at)
			}(i)
		}
	}
	res.backlog = n - int(completed.Load())
	close(queue)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// from drops the first skip units (a warm-up prefix) from the result.
// The backlog still counts at the last arrival.
func (r openResult) from(skip int) openResult {
	r.lat, r.late = r.lat[skip:], r.late[skip:]
	return r
}

// merge appends another phase's units; backlog is the larger of the two.
func (r openResult) merge(o openResult) openResult {
	r.lat = append(r.lat, o.lat...)
	r.late = append(r.late, o.late...)
	r.backlog = max(r.backlog, o.backlog)
	r.elapsed += o.elapsed
	return r
}

// closedLoop runs callers goroutines that each issue their next unit as
// soon as the previous one returns, until dur has passed. It returns the
// units completed, the units that failed, and the wall time until the
// last caller finished.
func closedLoop(ctx context.Context, dur time.Duration, callers int, do func(ctx context.Context, i int) error) (completed, failed int, elapsed time.Duration) {
	var next, done, bad atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if err := do(ctx, i); err != nil {
					bad.Add(1)
				} else {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(done.Load()), int(bad.Load()), time.Since(start)
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank
// rule and how many samples lie strictly beyond it. A tail percentile
// is reported as supported only when at least minBeyond samples lie
// beyond it.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	v = s[k]
	beyond = len(s) - sort.Search(len(s), func(j int) bool { return s[j] > v })
	return v, beyond
}

// minBeyond is the support rule for tail percentiles: at least ten
// samples must lie beyond the reported value.
const minBeyond = 10

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
