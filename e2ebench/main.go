// Command e2ebench is the end-to-end benchmark of the served Sirius
// configuration (sirius.DefaultConfig with the image pipeline at pool
// width, as sirius-server runs it with no flags: GMM engine, fp64,
// n-best + trigram rescoring, freshly trained models, no batcher, no
// result cache).
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload voice_mix --seed 1 --seconds 45 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1 --seconds 45
//
// Workloads (inputs are generated from --seed; the program sees only
// the generated inputs):
//
//	voice_mix   the Table 1 mix (16 VC : 16 VQ : 10 VIQ) as synthesized
//	            speech, VIQ with a warped photo, through Pipeline.Process
//	typed_http  the same 42 queries typed, as JSON /v1/query bodies over
//	            loopback to a cluster.Frontend fronting one sirius.Server
//
// Each run interleaves open-loop Poisson phases at a fixed rate (units
// timed from their due time, at most nproc callers) with closed-loop
// phases of nproc callers for throughput. voice_mix runs also stream
// every pooled utterance through Pipeline.NewStream, as /v1/stream
// does, and fail when a streamed final differs from the one-shot
// transcript. With --trace 0 a run reports the end-to-end metrics; with
// --trace 1 it runs the open-loop phase untraced, then traced (voice_mix
// adds a traced phase of streaming sessions paced in real time), and
// reports the per-layer breakdown computed from spans the benchmark
// records around the calls it makes, plus the tracing overhead.
//
// success_ratio is completed units over attempted (fail_ratio, 1 minus
// it, is printed too). The last line of standard output is one JSON
// object; the exit code is 1 when any output check failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"sirius/internal/hmm"
	"sirius/internal/kb"
	"sirius/internal/sirius"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; reported with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"vc_p50_ms", "ms"},
	{"vq_p50_ms", "ms"},
	{"viq_p50_ms", "ms"},
	{"throughput_qps", "q/s"},
	{"success_ratio", "ratio"},
	{"answer_accuracy", "ratio"},
	{"heap_peak_mb", "MB"},
}

// ungated end-to-end metrics are printed with the others but left out
// of the result line: on a shared 2-vCPU VM the p99 of ~1400 units
// spread 0.12 to 0.68 (quartile distance over median, ten seeds) from
// one hour to the next, past any bound a comparison could use.
var ungated = []metricDef{{"p99_ms", "ms"}}

// perLayer is the traced breakdown; reported with --trace 1. A layer a
// workload does not reach reports 0.
var perLayer = []metricDef{
	{"sirius.process_ms", "ms"},
	{"sirius.wait_ms", "ms"},
	{"asr.ms", "ms"},
	{"asr.share", "ratio"},
	{"asr.frames", "count"},
	{"asr.us_per_frame", "us"},
	{"audio.feature_ms", "ms"},
	{"gmm.scoring_ms", "ms"},
	{"hmm.search_ms", "ms"},
	{"qa.ms", "ms"},
	{"qa.stem_ms", "ms"},
	{"qa.regex_ms", "ms"},
	{"qa.crf_ms", "ms"},
	{"qa.retrieval_ms", "ms"},
	{"qa.filter_hits", "count"},
	{"imm.ms", "ms"},
	{"imm.fe_ms", "ms"},
	{"imm.fd_ms", "ms"},
	{"imm.search_ms", "ms"},
	{"imm.match_ratio", "ratio"},
	{"server.ms", "ms"},
	{"server.self_ms", "ms"},
	{"cluster.ms", "ms"},
	{"cluster.self_ms", "ms"},
	{"cluster.attempts_per_query", "ratio"},
	{"http.client_ms", "ms"},
	{"stream.push_ms", "ms"},
	{"stream.finish_ms", "ms"},
	{"stream.partials_per_session", "count"},
	{"stream.chunk_p99_ms", "ms"},
	{"runtime.alloc_mb_per_query", "MB"},
	{"runtime.allocs_per_query", "count"},
	{"runtime.gc_per_100_queries", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"bench.gen_late_ms", "ms"},
	{"bench.backlog", "count"},
	{"bench.trace_overhead", "ratio"},
	{"bench.layer_coverage", "ratio"},
}

// workload is one traffic mix. rate is its fixed open-loop offered
// rate in units per second. voice_mix runs at about half the closed-loop
// throughput measured on a 2-core x86 box when the benchmark was
// written. typed_http runs at about a quarter of it (100 of ~400 q/s):
// at half, text queries waiting behind photo queries made up a fifth of
// p50_ms, and that wait grows steeply with any slowdown of the machine,
// so ten seeds on a shared host spread p50_ms by up to 0.30 of its
// median (quartile distance), past the 0.25 bound. At 60 q/s, with the
// cores idle most of the time, the spread was no smaller. open is
// the share of --seconds the open-loop phases get in an end-to-end run,
// sized so that at 45 s they complete well over 1000 units and so
// support a p99; the closed-loop phases get the rest.
type workload struct {
	name string
	rate float64
	open float64
	run  func(e *env, w workload) (*outcome, error)
}

var workloads = []workload{
	{"voice_mix", 40, 0.8, runVoiceMix},
	{"typed_http", 100, 0.8, runTypedHTTP},
}

// setups is how many times set-up runs; setup_s is their median.
const setups = 5

// unitTimeout fails a unit that has not completed in this long.
const unitTimeout = 20 * time.Second

// env is one run's settings.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	out     string
	nproc   int
	lex     *hmm.Lexicon
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted  int
	failed     int
	mismatches []string
	metrics    map[string]float64
	props      inputProps
	notes      []string
	spans      []span
}

func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// servedConfig is the configuration sirius-server runs with no flags.
func servedConfig() sirius.Config {
	cfg := sirius.DefaultConfig()
	cfg.IMMWorkers = 0 // sirius-server runs the image pipeline at pool width
	return cfg
}

// timedSetups runs setup `setups` times, keeps the last result and
// returns the median wall time in seconds. Each earlier result is torn
// down before the next set-up starts.
func timedSetups[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var cur T
	times := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return cur, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i > 0 {
			teardown(cur)
		}
		cur = v
	}
	v, _ := percentile(times, 0.5)
	return cur, v, nil
}

// runtimeSample is a runtime/metrics snapshot for per-phase deltas.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(), s[3].Value.Float64(), s[4].Value.Float64()}
}

// addRuntime reports the Go runtime's work per unit between two
// snapshots taken around a phase of n units.
func addRuntime(m map[string]float64, a, b runtimeSample, n int) {
	if n == 0 {
		return
	}
	m["runtime.alloc_mb_per_query"] = float64(b.allocBytes-a.allocBytes) / 1e6 / float64(n)
	m["runtime.allocs_per_query"] = float64(b.allocObjects-a.allocObjects) / float64(n)
	m["runtime.gc_per_100_queries"] = 100 * float64(b.gcCycles-a.gcCycles) / float64(n)
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_share"] = (b.gcCPU - a.gcCPU) / cpu
	}
}

// heapPeak samples live heap every few milliseconds until stopped and
// reports the highest value in MB.
type heapPeak struct {
	stop chan struct{}
	done chan float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- float64(peak) / 1e6
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) end() float64 {
	close(h.stop)
	return <-h.done
}

// tailLatency reports the median and p99 of xs (ms) under name prefix,
// noting when the p99 lacks support.
func tailLatency(o *outcome, what string, xs []float64) (p50, p99 float64) {
	p50, _ = percentile(xs, 0.5)
	p99, beyond := percentile(xs, 0.99)
	if beyond < minBeyond {
		o.note("%s p99 unsupported: %d samples, %d beyond (need %d)", what, len(xs), beyond, minBeyond)
	}
	return p50, p99
}

func main() {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "input and schedule seed")
	seconds := flag.Float64("seconds", 45, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	out := flag.String("out", ".bench_out", "directory for span dumps and input properties")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	lex, _ := kb.BuildLexicon()
	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, nproc: runtime.NumCPU(), lex: lex}
	exit := 0
	for _, w := range todo {
		ok, err := runOne(e, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if !ok {
			exit = 1
		}
	}
	os.Exit(exit)
}

// runOne runs a workload, prints its report and result line, and
// reports whether every output check passed.
func runOne(e *env, w workload) (bool, error) {
	o, err := w.run(e, w)
	if err != nil {
		return false, err
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	fmt.Printf("== %s seed=%d seconds=%g trace=%v nproc=%d rate=%g/s\n", w.name, e.seed, e.seconds, e.trace, e.nproc, w.rate)
	fmt.Println(o.props)
	fmt.Printf("input pool %.1f MB (part of the live heap heap_peak_mb measures)\n", o.props.PoolMB)
	for _, n := range o.notes {
		fmt.Println("note:", n)
	}
	fmt.Printf("units: attempted %d, failed %d, fail_ratio %.4f ratio\n", o.attempted, o.failed, float64(o.failed)/float64(max(o.attempted, 1)))
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := map[string]jm{}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return false, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false, fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Printf("%-30s %14.4f %s\n", d.name, v, d.unit)
		res[d.name] = jm{v, d.unit}
	}
	if !e.trace {
		for _, d := range ungated {
			fmt.Printf("%-30s %14.4f %s (not gated)\n", d.name, o.metrics[d.name], d.unit)
		}
	}
	for i, m := range o.mismatches {
		if i == 10 {
			fmt.Printf("output check: %d more failures\n", len(o.mismatches)-10)
			break
		}
		fmt.Println("output check failed:", m)
	}
	if err := writeRecord(e, w.name, o); err != nil {
		return false, err
	}
	correct := len(o.mismatches) == 0
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{correct, o.attempted, o.failed, res})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return correct, nil
}

// writeRecord saves the run's input properties and, for traced runs,
// the span dump under the output directory.
func writeRecord(e *env, name string, o *outcome) error {
	mode := "e2e"
	if e.trace {
		mode = "trace"
	}
	base := filepath.Join(e.out, fmt.Sprintf("%s_seed%d_%s", name, e.seed, mode))
	rec := struct {
		Inputs  inputProps         `json:"inputs"`
		Metrics map[string]float64 `json:"metrics"`
		Notes   []string           `json:"notes,omitempty"`
	}{o.props, o.metrics, o.notes}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if e.trace {
		return writeSpans(base+"_spans.jsonl", o.spans)
	}
	return nil
}

// phaseCtx bounds a phase: units still running this long after the
// phase's nominal end are cancelled and count as failed.
func phaseCtx(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d+unitTimeout)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
