package main

import (
	"fmt"
	"math/rand"
	"strings"

	"sirius/internal/asr"
	"sirius/internal/audio"
	"sirius/internal/hmm"
	"sirius/internal/kb"
	"sirius/internal/sirius"
	"sirius/internal/vision"
)

// sampleRate is the 16 kHz rate every voice input is synthesized at.
const sampleRate = 16000

// variants is how many distinct renderings of each Table 1 query the
// pool holds: each voice rendering has its own synthesis seed and each
// photo its own warp, so one seed's figures do not hang on one take.
const variants = 4

// input is one pooled query.
type input struct {
	index   int // position in the pool
	q       kb.Query
	samples []float64     // synthesized speech (voice workloads)
	image   *vision.Image // warped photo of q.ImageID (VIQ, one-shot workloads)
	body    []byte        // pre-encoded /v1/query JSON body (typed_http)
	frames  int           // feature frames the served front end cuts from samples
}

// splitmix derives independent 63-bit seeds from the workload seed.
func splitmix(seed int64, k uint64) int64 {
	z := uint64(seed) + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// buildPool renders variants of each of the 42 Table 1 queries from
// seed. voice synthesizes speech; photos warps a database scene for
// every VIQ entry; typed pre-encodes each entry as a JSON /v1/query
// body with the query text (and photo) in place of speech.
func buildPool(lex *hmm.Lexicon, seed int64, voice, photos, typed bool) ([]input, error) {
	fe := audio.NewFrontEnd(audio.DefaultFrontEnd())
	scenes := map[string]*vision.Image{}
	var pool []input
	for v := 0; v < variants; v++ {
		for qi, q := range kb.AllQueries() {
			k := uint64(v*1000 + qi)
			in := input{index: len(pool), q: q}
			if voice {
				s, err := asr.SynthesizeText(lex, q.Text, splitmix(seed, 2*k))
				if err != nil {
					return nil, fmt.Errorf("synthesize %s: %w", q.ID, err)
				}
				in.samples, in.frames = s, fe.Frames(len(s))
			}
			if photos && q.ImageID != "" {
				scene, ok := scenes[q.ImageID]
				if !ok {
					scene = vision.GenerateScene(q.ImageID, vision.DefaultSceneConfig())
					scenes[q.ImageID] = scene
				}
				in.image = vision.Warp(scene, vision.DefaultWarp(splitmix(seed, 2*k+1)))
			}
			if typed {
				body, _, err := sirius.BuildJSONQuery(nil, in.image, q.Text)
				if err != nil {
					return nil, fmt.Errorf("encode %s: %w", q.ID, err)
				}
				in.body = body.Bytes()
			}
			pool = append(pool, in)
		}
	}
	return pool, nil
}

// order returns n pool indices: back-to-back seeded permutations of the
// pool, so every full cycle issues the Table 1 mix exactly.
func order(rng *rand.Rand, poolLen, n int) []int {
	out := make([]int, 0, n+poolLen)
	for len(out) < n {
		out = append(out, rng.Perm(poolLen)...)
	}
	return out[:n]
}

// inputProps are the properties of the inputs one run issued, printed
// and recorded so a claim that depends on one can cite its value.
type inputProps struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Distinct       int     `json:"distinct_inputs"`
	Issued         int     `json:"issued"`
	VCShare        float64 `json:"vc_share"`
	VQShare        float64 `json:"vq_share"`
	VIQShare       float64 `json:"viq_share"`
	PhotoShare     float64 `json:"photo_share"`
	AudioSeconds   float64 `json:"mean_audio_s"`
	FramesPerQuery float64 `json:"frames_per_query"`
	PoolMB         float64 `json:"pool_mb"`
}

func measureInputs(workload string, seed int64, pool []input, seq []int) inputProps {
	p := inputProps{Workload: workload, Seed: seed, Distinct: len(pool), Issued: len(seq)}
	var byClass [3]int
	var photos, samples, frames int
	for _, i := range seq {
		in := pool[i]
		byClass[in.q.Class]++
		if in.image != nil {
			photos++
		}
		samples += len(in.samples)
		frames += in.frames
	}
	n := float64(len(seq))
	p.VCShare = float64(byClass[kb.VoiceCommand]) / n
	p.VQShare = float64(byClass[kb.VoiceQuery]) / n
	p.VIQShare = float64(byClass[kb.VoiceImageQuery]) / n
	p.PhotoShare = float64(photos) / n
	p.AudioSeconds = float64(samples) / sampleRate / n
	p.FramesPerQuery = float64(frames) / n
	for _, in := range pool {
		bytes := 8 * len(in.samples)
		if in.image != nil {
			bytes += 8 * len(in.image.Pix)
		}
		p.PoolMB += float64(bytes+len(in.body)) / 1e6
	}
	return p
}

func (p inputProps) String() string {
	return fmt.Sprintf("inputs: %d distinct, %d issued; VC/VQ/VIQ %.3f/%.3f/%.3f; photo share %.3f; mean audio %.3f s; %.1f frames/query; pool %.1f MB",
		p.Distinct, p.Issued, p.VCShare, p.VQShare, p.VIQShare, p.PhotoShare, p.AudioSeconds, p.FramesPerQuery, p.PoolMB)
}

// accurate scores one response against the query's expected output:
// the action verb for VC, an answer containing Want for VQ/VIQ.
func accurate(q kb.Query, resp sirius.Response) bool {
	if q.Class == kb.VoiceCommand {
		return resp.Action == q.Want
	}
	return strings.Contains(strings.ToLower(resp.Answer), q.Want)
}

// sameOutput reports whether two responses carry the same user-visible
// output; latencies are ignored.
func sameOutput(a, b sirius.Response) bool {
	return a.Kind == b.Kind && a.Transcript == b.Transcript && a.Action == b.Action &&
		a.Answer == b.Answer && a.MatchedImage == b.MatchedImage
}
