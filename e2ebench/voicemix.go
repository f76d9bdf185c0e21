package main

import (
	"context"
	"math/rand"
	"time"

	"sirius/internal/sirius"
)

// runVoiceMix drives Pipeline.Process in-process with the Table 1 mix
// as synthesized speech, VIQ with a warped photo.
func runVoiceMix(e *env, w workload) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	pool, err := buildPool(e.lex, e.seed, true, true, false)
	if err != nil {
		return nil, err
	}
	p, setup, err := timedSetups(func() (*sirius.Pipeline, error) { return sirius.New(servedConfig()) }, (*sirius.Pipeline).Close)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	o.metrics["setup_s"] = setup
	refs, err := referenceOutputs(o, pool, func(in *input) (sirius.Response, error) {
		return p.Process(context.Background(), sirius.Request{Samples: in.samples, Image: in.image})
	})
	if err != nil {
		return nil, err
	}
	s := &oneShot{e: e, w: w, pool: pool, refs: refs, o: o,
		send: func(ctx context.Context, tr *tracer, unit int, in *input) (sirius.Response, error) {
			start := time.Now()
			resp, err := p.Process(ctx, sirius.Request{Samples: in.samples, Image: in.image})
			if err == nil {
				tr.add(unit, -1, "process", start, time.Now())
			}
			return resp, err
		}}
	if e.trace {
		zeroLayers(o.metrics)
	}
	s.run(func(tr *tracer, recs []unitRec, m map[string]float64) {
		ix := indexSpans(tr.snapshot())
		roots := ix.named("process")
		var comps float64
		for _, r := range roots {
			deriveStages(tr, r.Unit, r.ID, recs[r.Unit].resp.Latency)
		}
		m["sirius.process_ms"] = mean(durMs(roots))
		for _, k := range []string{"audio.feature_ms", "gmm.scoring_ms", "hmm.search_ms", "qa.ms", "imm.ms"} {
			comps += m[k]
		}
		m["bench.layer_coverage"] = comps / m["sirius.process_ms"]
	})
	b := &streamBench{p: p, pool: pool, refs: refs, o: o}
	if !e.trace {
		b.parity()
		return o, nil
	}
	tr := newTracer("stream")
	rng := rand.New(rand.NewSource(splitmix(e.seed, 1<<41)))
	recs := b.openPhase(rng, streamRate, int(streamRate*e.seconds*tracedShare+0.5), streamRate*warmupSeconds, tr)
	streamLayers(tr, recs, o.metrics)
	o.spans = append(o.spans, tr.snapshot()...)
	return o, nil
}

// streamRate is the session arrival rate of voice_mix's traced stream
// phase, about half the sessions per second nproc callers complete
// pushing chunks back to back on a 2-core x86 box.
const streamRate = 45
