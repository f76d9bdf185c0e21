package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sirius/internal/kb"
	"sirius/internal/sirius"
)

// sendFunc runs pool input in as unit and returns the response. tr is
// nil in untraced phases.
type sendFunc func(ctx context.Context, tr *tracer, unit int, in *input) (sirius.Response, error)

// oneShot drives a one-shot query workload (voice_mix, typed_http):
// every response is checked against the reference output computed
// in-process for the same input at set-up.
type oneShot struct {
	e    *env
	w    workload
	pool []input
	refs []sirius.Response
	send sendFunc
	o    *outcome
	// install, when set, is handed the tracer before the traced phase
	// and nil after it, for spans recorded outside send.
	install func(*tracer)

	issued []int // pool indices of every measured unit

	mu       sync.Mutex
	accurate int
}

// unitRec is one open-loop unit as the benchmark saw it.
type unitRec struct {
	in   *input
	resp sirius.Response
	err  error
}

// check counts a unit's outcome and records any output mismatch.
func (s *oneShot) check(in *input, resp sirius.Response, err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.o.attempted++
	if err != nil {
		s.o.failed++
		return err
	}
	ref := s.refs[in.index]
	if !sameOutput(resp, ref) {
		s.o.mismatch("%s: got %q/%q/%q/%q, reference %q/%q/%q/%q", in.q.ID,
			resp.Transcript, resp.Action, resp.Answer, resp.MatchedImage,
			ref.Transcript, ref.Action, ref.Answer, ref.MatchedImage)
	}
	if accurate(in.q, resp) {
		s.accurate++
	}
	return nil
}

// openPhase runs skip+n units open-loop at the workload's rate; the
// schedule and the input order both come from rng. The first skip units
// are a warm-up prefix: they load the system but are neither checked nor
// timed, so the measured units start in steady state.
func (s *oneShot) openPhase(rng *rand.Rand, n, skip int, tr *tracer) ([]unitRec, openResult) {
	due := poissonDue(rng, s.w.rate, skip+n)
	seq := order(rng, len(s.pool), skip+n)
	recs := make([]unitRec, n)
	ctx, cancel := phaseCtx(due[len(due)-1])
	defer cancel()
	res := openLoop(ctx, due, s.e.nproc, func(ctx context.Context, i int, _ time.Time) error {
		in := &s.pool[seq[i]]
		uctx, cancel := context.WithTimeout(ctx, unitTimeout)
		defer cancel()
		if i < skip {
			_, err := s.send(uctx, nil, i, in)
			return err
		}
		resp, err := s.send(uctx, tr, i-skip, in)
		recs[i-skip] = unitRec{in: in, resp: resp, err: err}
		return s.check(in, resp, err)
	})
	s.issued = append(s.issued, seq[skip:]...)
	return recs, res.from(skip)
}

// closedPhase runs nproc callers back to back for d and returns the
// units completed and the time until the last caller finished.
func (s *oneShot) closedPhase(rng *rand.Rand, d time.Duration) (int, time.Duration) {
	seq := order(rng, len(s.pool), len(s.pool))
	ctx, cancel := phaseCtx(d)
	defer cancel()
	done, _, elapsed := closedLoop(ctx, d, s.e.nproc, func(ctx context.Context, i int) error {
		in := &s.pool[seq[i%len(seq)]]
		uctx, cancel := context.WithTimeout(ctx, unitTimeout)
		defer cancel()
		resp, err := s.send(uctx, nil, i, in)
		return s.check(in, resp, err)
	})
	return done, elapsed
}

// rounds is how many open-loop + closed-loop rounds an end-to-end run of
// a one-shot workload interleaves: each phase then samples the whole run,
// not one stretch of it, so a slow stretch of the machine lands on both.
// On a shared host the speed of a core swings by a third over a few
// seconds; nine rounds put a closed-loop phase of about a second in every
// five seconds of a 45 s run, so throughput_qps averages over the run.
const rounds = 9

// run measures the workload: end-to-end metrics, or with tracing the
// per-layer breakdown, which derive completes from the traced phase's
// spans after the stage means are in m.
func (s *oneShot) run(derive func(tr *tracer, recs []unitRec, m map[string]float64)) {
	e, o := s.e, s.o
	rng := rand.New(rand.NewSource(splitmix(e.seed, 1<<40)))
	m := o.metrics
	warm := int(s.w.rate*warmupSeconds + 0.5)
	if !e.trace {
		n := int(s.w.rate*e.seconds*s.w.open/rounds + 0.5)
		closed := seconds(e.seconds * (1 - s.w.open) / rounds)
		var recs []unitRec
		var res openResult
		var done int
		var elapsed time.Duration
		heap := startHeapPeak()
		for r := 0; r < rounds; r++ {
			rr, rs := s.openPhase(rng, n, warm, nil)
			recs, res = append(recs, rr...), res.merge(rs)
			d, el := s.closedPhase(rng, closed)
			done, elapsed, warm = done+d, elapsed+el, 0
		}
		m["heap_peak_mb"] = heap.end()
		m["throughput_qps"] = float64(done) / elapsed.Seconds()
		lat := latencies(recs, res, -1)
		m["p50_ms"], m["p99_ms"] = tailLatency(o, "unit", lat)
		for c, key := range []string{"vc_p50_ms", "vq_p50_ms", "viq_p50_ms"} {
			m[key], _ = percentile(latencies(recs, res, kb.QueryClass(c)), 0.5)
		}
		o.note("open loop: %d units over %d rounds in %.2f s, generator p99 late %.3f ms, largest backlog %d at a last arrival",
			len(recs), rounds, res.elapsed.Seconds(), lateP99(res), res.backlog)
	} else {
		n := int(s.w.rate*e.seconds*tracedShare + 0.5)
		before := readRuntime()
		recs, res := s.openPhase(rng, n, warm, nil)
		addRuntime(m, before, readRuntime(), n+warm)
		m["bench.gen_late_ms"] = lateP99(res)
		m["bench.backlog"] = float64(res.backlog)
		untraced, _ := percentile(latencies(recs, res, -1), 0.5)

		tr := newTracer("query")
		if s.install != nil {
			s.install(tr)
		}
		recs, res = s.openPhase(rng, n, 0, tr)
		if s.install != nil {
			s.install(nil)
		}
		traced, _ := percentile(latencies(recs, res, -1), 0.5)
		m["bench.trace_overhead"] = traced / untraced
		s.layerMetrics(recs, res, m)
		derive(tr, recs, m)
		o.spans = tr.snapshot()
	}
	o.props = measureInputs(s.w.name, e.seed, s.pool, s.issued)
	m["success_ratio"] = float64(o.attempted-o.failed) / float64(o.attempted)
	m["answer_accuracy"] = float64(s.accurate) / float64(o.attempted)
}

// latencies returns the completed units' due-time latencies in ms, for
// one class or (class < 0) all.
func latencies(recs []unitRec, res openResult, class kb.QueryClass) []float64 {
	var out []float64
	for i, r := range recs {
		if r.err == nil && (class < 0 || r.in.q.Class == class) {
			out = append(out, ms(res.lat[i]))
		}
	}
	return out
}

func lateP99(res openResult) float64 {
	late := make([]float64, len(res.late))
	for i, d := range res.late {
		late[i] = ms(d)
	}
	v, _ := percentile(late, 0.99)
	return v
}

// deriveStages records the pipeline's returned stage and component
// durations as derived spans under parent, in pipeline order.
func deriveStages(tr *tracer, unit, parent int, l sirius.Latency) {
	ids := tr.derive(unit, parent, []string{"asr", "imm", "qa"}, []time.Duration{l.ASR, l.IMM, l.QA})
	if ids[0] >= 0 {
		tr.derive(unit, ids[0], []string{"feature", "scoring", "search"}, []time.Duration{l.ASRFeature, l.ASRScoring, l.ASRSearch})
	}
	if ids[1] >= 0 {
		tr.derive(unit, ids[1], []string{"fe", "fd", "search"}, []time.Duration{l.IMMFE, l.IMMFD, l.IMMSearch})
	}
	if ids[2] >= 0 {
		tr.derive(unit, ids[2], []string{"stem", "regex", "crf", "retrieval"}, []time.Duration{l.QAStemming, l.QARegex, l.QACRF, l.QARetrieval})
	}
}

// layerMetrics fills the stage and component means per query (over
// every completed unit of the traced phase) from the Latency each
// response carried, plus the queueing wait in front of the pipeline.
func (s *oneShot) layerMetrics(recs []unitRec, res openResult, m map[string]float64) {
	var n, viq, viqMatched, frames float64
	var sum sirius.Latency
	var hits, wait, total float64
	for i, r := range recs {
		if r.in.q.Class == kb.VoiceImageQuery {
			viq++
			if r.err == nil && r.resp.MatchedImage == r.in.q.ImageID {
				viqMatched++
			}
		}
		if r.err != nil {
			continue
		}
		l := r.resp.Latency
		n++
		sum.Total += l.Total
		sum.ASR += l.ASR
		sum.ASRFeature += l.ASRFeature
		sum.ASRScoring += l.ASRScoring
		sum.ASRSearch += l.ASRSearch
		sum.QA += l.QA
		sum.QAStemming += l.QAStemming
		sum.QARegex += l.QARegex
		sum.QACRF += l.QACRF
		sum.QARetrieval += l.QARetrieval
		sum.IMM += l.IMM
		sum.IMMFE += l.IMMFE
		sum.IMMFD += l.IMMFD
		sum.IMMSearch += l.IMMSearch
		hits += float64(l.QAFilterHits)
		wait += ms(res.lat[i] - l.Total)
		if l.ASR > 0 {
			frames += float64(r.in.frames)
		}
	}
	if n == 0 {
		return
	}
	per := func(d time.Duration) float64 { return ms(d) / n }
	total = per(sum.Total)
	m["sirius.process_ms"] = total
	m["sirius.wait_ms"] = wait / n
	m["asr.ms"] = per(sum.ASR)
	m["asr.share"] = float64(sum.ASR) / float64(sum.Total)
	m["asr.frames"] = frames / n
	if frames > 0 {
		m["asr.us_per_frame"] = float64(sum.ASR) / float64(time.Microsecond) / frames
	}
	m["audio.feature_ms"] = per(sum.ASRFeature)
	m["gmm.scoring_ms"] = per(sum.ASRScoring)
	m["hmm.search_ms"] = per(sum.ASRSearch)
	m["qa.ms"] = per(sum.QA)
	m["qa.stem_ms"] = per(sum.QAStemming)
	m["qa.regex_ms"] = per(sum.QARegex)
	m["qa.crf_ms"] = per(sum.QACRF)
	m["qa.retrieval_ms"] = per(sum.QARetrieval)
	m["qa.filter_hits"] = hits / n
	m["imm.ms"] = per(sum.IMM)
	m["imm.fe_ms"] = per(sum.IMMFE)
	m["imm.fd_ms"] = per(sum.IMMFD)
	m["imm.search_ms"] = per(sum.IMMSearch)
	if viq > 0 {
		m["imm.match_ratio"] = viqMatched / viq
	}
}

// zeroLayers sets every per-layer metric to 0 so layers a workload
// never reaches still report.
func zeroLayers(m map[string]float64) {
	for _, d := range perLayer {
		m[d.name] = 0
	}
}

// referenceOutputs computes each pool input's expected output with
// sequential in-process calls and notes their mean (unloaded) time.
func referenceOutputs(o *outcome, pool []input, process func(in *input) (sirius.Response, error)) ([]sirius.Response, error) {
	refs := make([]sirius.Response, len(pool))
	start := time.Now()
	for i := range pool {
		r, err := process(&pool[i])
		if err != nil {
			return nil, fmt.Errorf("reference output for %s: %w", pool[i].q.ID, err)
		}
		refs[i] = r
	}
	o.note("reference pass: %.3f ms per input, sequential", ms(time.Since(start))/float64(len(pool)))
	return refs, nil
}

// tracedShare of --seconds goes to each phase of a traced run: the
// untraced and the traced open loop, and on voice_mix the traced stream.
const tracedShare = 1.0 / 3

// warmupSeconds of untimed open-loop load precede the measured units of
// a run, so the heap has grown to its loaded size and memory the process
// touches first is not charged to the first timed units.
const warmupSeconds = 3
