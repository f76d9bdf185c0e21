package main

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"sirius/internal/asr"
	"sirius/internal/sirius"
)

// chunkSamples is 200 ms of 16 kHz audio, the streaming chunk size.
const chunkSamples = sampleRate / 5

// sessionRec is one streaming session as the benchmark saw it.
type sessionRec struct {
	in       *input
	chunks   []time.Duration // per chunk: Push return minus the chunk's due time
	partials int
	res      asr.Result
	err      error
}

// streamBench streams pooled utterances through Pipeline.NewStream,
// as /v1/stream does; every final is checked against the one-shot
// Process transcript of the same samples.
type streamBench struct {
	p    *sirius.Pipeline
	pool []input
	refs []sirius.Response
	o    *outcome

	mu sync.Mutex
}

// audioDur is how long n samples take to speak.
func audioDur(n int) time.Duration { return time.Duration(n) * time.Second / sampleRate }

// session streams one utterance starting at arrival; with paced set,
// each chunk is pushed when its last sample has been spoken, otherwise
// chunks go back to back. tr records a span per Push and Finish.
func (b *streamBench) session(ctx context.Context, tr *tracer, unit int, in *input, arrival time.Time, paced bool) sessionRec {
	rec := sessionRec{in: in}
	st, err := b.p.NewStream(ctx, asr.StreamConfig{})
	if err != nil {
		rec.err = err
		return rec
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	s := in.samples
	for off := 0; off < len(s); off += chunkSamples {
		end := min(off+chunkSamples, len(s))
		due := time.Now()
		if paced {
			due = arrival.Add(audioDur(end))
			if d := time.Until(due); d > 0 {
				timer.Reset(d)
				select {
				case <-timer.C:
				case <-ctx.Done():
				}
			}
		}
		start := time.Now()
		part, err := st.Push(s[off:end])
		now := time.Now()
		tr.add(unit, -1, "push", start, now)
		if err != nil {
			rec.err = err
			return rec
		}
		rec.chunks = append(rec.chunks, now.Sub(due))
		if part != nil {
			rec.partials++
		}
	}
	start := time.Now()
	rec.res, rec.err = st.Finish()
	tr.add(unit, -1, "finish", start, time.Now())
	return rec
}

// check counts a session's outcome: a streamed final that differs from
// the one-shot transcript fails the run.
func (b *streamBench) check(rec sessionRec) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.o.attempted++
	if rec.err != nil {
		b.o.failed++
		return
	}
	if want := b.refs[rec.in.index].Transcript; rec.res.Text != want {
		b.o.mismatch("%s: streamed final %q, one-shot %q", rec.in.q.ID, rec.res.Text, want)
	}
}

// parity streams every pooled utterance once, chunks back to back, and
// checks each final against the one-shot transcript.
func (b *streamBench) parity() {
	for i := range b.pool {
		ctx, cancel := context.WithTimeout(context.Background(), unitTimeout)
		b.check(b.session(ctx, nil, i, &b.pool[i], time.Now(), false))
		cancel()
	}
}

// openPhase opens skip+n sessions at Poisson times at rate, each paced
// in real time on its own goroutine. The first skip sessions are a
// warm-up prefix that builds up the live-session count and is neither
// checked nor timed.
func (b *streamBench) openPhase(rng *rand.Rand, rate float64, n, skip int, tr *tracer) []sessionRec {
	due := poissonDue(rng, rate, skip+n)
	seq := order(rng, len(b.pool), skip+n)
	recs := make([]sessionRec, n)
	ctx, cancel := phaseCtx(due[len(due)-1])
	defer cancel()
	openLoop(ctx, due, 0, func(ctx context.Context, i int, at time.Time) error {
		uctx, cancel := context.WithTimeout(ctx, unitTimeout)
		defer cancel()
		if i < skip {
			return b.session(uctx, nil, i, &b.pool[seq[i]], at, true).err
		}
		recs[i-skip] = b.session(uctx, tr, i-skip, &b.pool[seq[i]], at, true)
		b.check(recs[i-skip])
		return recs[i-skip].err
	})
	return recs
}

// streamLayers reports the traced stream phase's per-call breakdown
// from its Push/Finish spans, and the chunk latency tail: from a chunk's
// due time to Push returning, the gap a live speaker feels.
func streamLayers(tr *tracer, recs []sessionRec, m map[string]float64) {
	ix := indexSpans(tr.snapshot())
	pushes, finishes := ix.named("push"), ix.named("finish")
	var n, partials float64
	var chunks []float64
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		n++
		partials += float64(r.partials)
		for _, c := range r.chunks {
			chunks = append(chunks, ms(c))
		}
	}
	if n == 0 {
		return
	}
	m["stream.push_ms"] = mean(durMs(pushes))
	m["stream.finish_ms"] = mean(durMs(finishes))
	m["stream.partials_per_session"] = partials / n
	m["stream.chunk_p99_ms"], _ = percentile(chunks, 0.99)
}
