package hmm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// This file keeps the search's two earlier implementations as test
// oracles: the 1-best decoder with one score per state, and the n-best
// search with a growable sorted token list per state and binary-search
// insertion. The k-token Session must reproduce both bit for bit.

// insertToken keeps list sorted descending with at most k entries; a
// token tying an existing score goes after it.
func insertToken(list []token, t token, k int) []token {
	pos := sort.Search(len(list), func(i int) bool { return list[i].score < t.score })
	if pos >= k {
		return list
	}
	list = append(list, token{})
	copy(list[pos+1:], list[pos:])
	list[pos] = t
	if len(list) > k {
		list = list[:k]
	}
	return list
}

func TestInsertToken(t *testing.T) {
	var list []token
	for _, s := range []float64{3, 1, 5, 2, 4} {
		list = insertToken(list, token{score: s}, 3)
	}
	if len(list) != 3 || list[0].score != 5 || list[1].score != 4 || list[2].score != 3 {
		t.Fatalf("list: %+v", list)
	}
}

// oracleEmissions scores every frame up front.
func oracleEmissions(scorer Scorer, frames [][]float64) [][]float64 {
	out := make([][]float64, len(frames))
	for f, fr := range frames {
		out[f] = make([]float64, scorer.NumSenones())
		scorer.ScoreAll(out[f], fr)
	}
	return out
}

// oracleDecode is the 1-best Viterbi decoder: one score and history per
// state, beam plus histogram pruning, strict-improvement relaxation.
func oracleDecode(g *Graph, scorer Scorer, cfg Config, frames [][]float64) Result {
	if len(frames) == 0 {
		return Result{}
	}
	n := g.NumStates()
	cur := make([]float64, n)
	next := make([]float64, n)
	curHist := make([]*histNode, n)
	nextHist := make([]*histNode, n)
	bins := make([]int, histBins)
	for i := range cur {
		cur[i] = math.Inf(-1)
	}
	totalActive := 0
	for t, emit := range oracleEmissions(scorer, frames) {
		if t == 0 {
			for wi, st := range g.wordStart {
				cur[st] = g.startProbs[wi] + emit[g.senones[st]]
			}
			for _, v := range cur {
				if !math.IsInf(v, -1) {
					totalActive++
				}
			}
			continue
		}
		for i := range next {
			next[i] = math.Inf(-1)
			nextHist[i] = nil
		}
		best := math.Inf(-1)
		for _, v := range cur {
			if v > best {
				best = v
			}
		}
		threshold := math.Inf(-1)
		if cfg.Beam > 0 {
			threshold = best - cfg.Beam
		}
		if cfg.MaxActive > 0 {
			if ht := histogramThreshold(cur, best, cfg.Beam, cfg.MaxActive, bins); ht > threshold {
				threshold = ht
			}
		}
		for s := 0; s < n; s++ {
			tokenScore := cur[s]
			if tokenScore < threshold || math.IsInf(tokenScore, -1) {
				continue
			}
			for _, a := range g.arcs[s] {
				if cand := tokenScore + a.weight; cand > next[a.to] {
					next[a.to] = cand
					nextHist[a.to] = curHist[s]
					if a.wordLabel >= 0 {
						nextHist[a.to] = &histNode{word: a.wordLabel, prev: curHist[s]}
					}
				}
			}
		}
		for s := 0; s < n; s++ {
			if !math.IsInf(next[s], -1) {
				next[s] += emit[g.senones[s]]
				totalActive++
			}
		}
		cur, next = next, cur
		curHist, nextHist = nextHist, curHist
	}
	bestScore, bestState := math.Inf(-1), -1
	secondScore, secondState := math.Inf(-1), -1
	for st := 0; st < n; st++ {
		if g.wordEnd[st] < 0 {
			continue
		}
		if cur[st] > bestScore {
			if bestState >= 0 && g.wordEnd[bestState] != g.wordEnd[st] {
				secondScore, secondState = bestScore, bestState
			}
			bestScore, bestState = cur[st], st
		} else if cur[st] > secondScore && (bestState < 0 || g.wordEnd[bestState] != g.wordEnd[st]) {
			secondScore, secondState = cur[st], st
		}
	}
	var hist *histNode
	if bestState >= 0 {
		hist = &histNode{word: g.wordEnd[bestState], prev: curHist[bestState]}
	} else {
		for st := 0; st < n; st++ {
			if cur[st] > bestScore {
				bestScore, bestState = cur[st], st
			}
		}
		if bestState >= 0 {
			hist = curHist[bestState]
		}
	}
	res := Result{
		Words:     historyWords(g, hist),
		Score:     bestScore,
		Frames:    len(frames),
		AvgActive: float64(totalActive) / float64(len(frames)),
	}
	if secondState >= 0 && !math.IsInf(secondScore, -1) {
		res.Confidence = (bestScore - secondScore) / float64(len(frames))
		res.RunnerUp = g.lex.Words()[g.wordEnd[secondState]]
	}
	return res
}

// oracleDecodeNBest is the n-best search: up to k = max(n+2, 4) tokens
// per state in insertToken-sorted lists, beam pruning only, every
// candidate on every arc tried, a fresh history node per labeled arc.
func oracleDecodeNBest(g *Graph, scorer Scorer, cfg Config, frames [][]float64, n int) []Result {
	if len(frames) == 0 {
		return nil
	}
	nStates := g.NumStates()
	cur := oracleNBestLists(g, scorer, cfg, frames, max(n+2, 4))
	// Word-final hypotheses deduped by word sequence, best score kept.
	seen := map[string]int{}
	var hyps []Result
	add := func(words []string, score float64) {
		key := strings.Join(words, " ")
		if idx, ok := seen[key]; ok {
			if score > hyps[idx].Score {
				hyps[idx].Score = score
			}
			return
		}
		seen[key] = len(hyps)
		hyps = append(hyps, Result{Words: words, Score: score, Frames: len(frames)})
	}
	for st := 0; st < nStates; st++ {
		if g.wordEnd[st] < 0 {
			continue
		}
		for _, tok := range cur[st] {
			add(historyWords(g, &histNode{word: g.wordEnd[st], prev: tok.hist}), tok.score)
		}
	}
	if len(hyps) == 0 {
		for st := 0; st < nStates; st++ {
			for _, tok := range cur[st] {
				add(historyWords(g, tok.hist), tok.score)
			}
		}
	}
	sort.Slice(hyps, func(i, j int) bool { return hyps[i].Score > hyps[j].Score })
	if len(hyps) > n {
		hyps = hyps[:n]
	}
	if len(hyps) > 1 {
		hyps[0].Confidence = (hyps[0].Score - hyps[1].Score) / float64(len(frames))
		if w := hyps[1].Words; len(w) > 0 {
			hyps[0].RunnerUp = w[len(w)-1]
		}
	}
	return hyps
}

// oracleNBestLists runs the n-best search's frame loop and returns
// each state's final token list.
func oracleNBestLists(g *Graph, scorer Scorer, cfg Config, frames [][]float64, k int) [][]token {
	nStates := g.NumStates()
	cur := make([][]token, nStates)
	next := make([][]token, nStates)
	for t, emit := range oracleEmissions(scorer, frames) {
		if t == 0 {
			for wi, st := range g.wordStart {
				cur[st] = insertToken(cur[st], token{score: g.startProbs[wi] + emit[g.senones[st]]}, k)
			}
			continue
		}
		for i := range next {
			next[i] = next[i][:0]
		}
		best := math.Inf(-1)
		for _, list := range cur {
			if len(list) > 0 && list[0].score > best {
				best = list[0].score
			}
		}
		threshold := math.Inf(-1)
		if cfg.Beam > 0 {
			threshold = best - cfg.Beam
		}
		for st := 0; st < nStates; st++ {
			for _, tok := range cur[st] {
				if tok.score < threshold {
					break
				}
				for _, a := range g.arcs[st] {
					h := tok.hist
					if a.wordLabel >= 0 {
						h = &histNode{word: a.wordLabel, prev: tok.hist}
					}
					next[a.to] = insertToken(next[a.to], token{score: tok.score + a.weight, hist: h}, k)
				}
			}
		}
		for st := 0; st < nStates; st++ {
			e := emit[g.senones[st]]
			for i := range next[st] {
				next[st][i].score += e
			}
		}
		cur, next = next, cur
	}
	return cur
}

// oracleCase is one decoding problem: a graph, a scorer and frames.
type oracleCase struct {
	name   string
	g      *Graph
	scorer Scorer
	frames [][]float64
}

// oracleCases builds the toy "stop go" utterances plus noisy random
// emission tables over a five-word lexicon whose words share phones,
// so many hypotheses stay close and token lists fill up and tie.
func oracleCases(t *testing.T, cfg Config) []oracleCase {
	t.Helper()
	var cases []oracleCase
	lex, lm := buildToy(t)
	g, err := CompileGraph(lex, lm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nSen := len(g.Phones()) * StatesPerPhone
	for _, phones := range [][]string{{"s", "t", "aa", "p", "k", "ow"}, {"k", "ow"}, {"k", "ow", "s", "t", "aa", "p", "k", "ow"}} {
		table, frames := synthEmissions(g, phones, 3)
		cases = append(cases, oracleCase{strings.Join(phones, "-"), g, &tableScorer{table: table, nSenones: nSen}, frames})
	}
	wide := NewLexicon()
	wide.Add("go", []string{"k", "ow"})
	wide.Add("stop", []string{"s", "t", "aa", "p"})
	wide.Add("top", []string{"t", "aa", "p"})
	wide.Add("cot", []string{"k", "aa", "t"})
	wide.Add("so", []string{"s", "ow"})
	wlm := NewBigram(wide)
	wlm.Observe("go stop so top")
	wlm.Observe("cot so go")
	wg, err := CompileGraph(wide, wlm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wSen := len(wg.Phones()) * StatesPerPhone
	// Two one-phone words under uniform emissions: equal-length paths
	// tie, so a state's list holds equal scores with different histories
	// ("a a" and "b a" both end in a's last state) and the tie order
	// decides which reach the n best.
	twins := NewLexicon()
	twins.Add("a", []string{"aa"})
	twins.Add("b", []string{"iy"})
	tlm := NewBigram(twins)
	tlm.Observe("a b")
	tlm.Observe("b a")
	tg, err := CompileGraph(twins, tlm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tSen := len(tg.Phones()) * StatesPerPhone
	uniform := make([][]float64, 12)
	uFrames := make([][]float64, len(uniform))
	for f := range uniform {
		uniform[f] = make([]float64, tSen)
		for s := range uniform[f] {
			uniform[f][s] = -3
		}
		uFrames[f] = []float64{float64(f)}
	}
	cases = append(cases, oracleCase{"twins-uniform", tg, &tableScorer{table: uniform, nSenones: tSen}, uFrames})
	// Scores drawn from few levels tie often; a single level (uniform
	// emissions) makes every path with the same transitions tie.
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		levels := []int{1, 2, 6, 6, 6, 6, 6, 6}[seed-1]
		nFrames := 20 + rng.Intn(40)
		table := make([][]float64, nFrames)
		frames := make([][]float64, nFrames)
		for f := range table {
			table[f] = make([]float64, wSen)
			for s := range table[f] {
				table[f][s] = -float64(1 + rng.Intn(levels))
			}
			frames[f] = []float64{float64(f)}
		}
		cases = append(cases, oracleCase{fmt.Sprintf("random-%d", seed), wg, &tableScorer{table: table, nSenones: wSen}, frames})
	}
	return cases
}

// advanceChunked feeds frames to s in chunks of the given size.
func advanceChunked(t *testing.T, s *Session, frames [][]float64, chunk int) {
	t.Helper()
	for off := 0; off < len(frames); off += chunk {
		if err := s.Advance(context.Background(), frames[off:min(off+chunk, len(frames))]); err != nil {
			t.Fatal(err)
		}
	}
}

// requireSameLists checks a live session's token lists against the
// oracle's, token by token: scores bit for bit and word histories, in
// order, so tie-breaking is pinned too.
func requireSameLists(t *testing.T, want [][]token, s *Session) {
	t.Helper()
	sc := s.sc
	for st, list := range want {
		got := sc.cur[st*sc.k : st*sc.k+int(sc.curN[st])]
		if len(got) != len(list) {
			t.Fatalf("state %d: %d tokens, want %d", st, len(got), len(list))
		}
		for i, tok := range list {
			gw, ww := historyWords(s.d.graph, got[i].hist), historyWords(s.d.graph, tok.hist)
			if math.Float64bits(got[i].score) != math.Float64bits(tok.score) || strings.Join(gw, " ") != strings.Join(ww, " ") {
				t.Fatalf("state %d token %d = (%v, %v), want (%v, %v)", st, i, got[i].score, gw, tok.score, ww)
			}
		}
	}
}

func requireSameResults(t *testing.T, want, got []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d hypotheses, want %d", len(got), len(want))
	}
	for i := range want {
		requireSameResult(t, want[i], got[i])
	}
}

// oracleConfigs covers the default beam, no beam, a tight beam,
// histogram pruning that actually engages, and a flat language model
// (no LM weight or word penalty), under which paths through different
// words score exactly alike and tie-breaking decides the lists.
func oracleConfigs() map[string]Config {
	def := DefaultConfig()
	noBeam := def
	noBeam.Beam = 0
	tight := def
	tight.Beam = 6
	capped := def
	capped.MaxActive = 6
	flat := def
	flat.LMWeight, flat.WordPenalty = 0, 0
	return map[string]Config{"default": def, "nobeam": noBeam, "tight": tight, "maxactive": capped, "flatlm": flat}
}

// TestNBestMatchesOracle: the k-token search returns exactly the n-best
// search's hypotheses — words, scores, confidence, runner-up — one-shot
// and chunked, for n in {1, 2, 4}.
func TestNBestMatchesOracle(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		if cfg.MaxActive != DefaultConfig().MaxActive {
			continue // the n-best oracle predates histogram pruning
		}
		for _, c := range oracleCases(t, cfg) {
			dec, err := NewDecoder(c.g, c.scorer, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/n%d", name, c.name, n), func(t *testing.T) {
					want := oracleDecodeNBest(c.g, c.scorer, cfg, c.frames, n)
					if len(want) == 0 {
						t.Fatal("oracle found no hypotheses")
					}
					requireSameResults(t, want, dec.DecodeNBest(c.frames, n))
					lists := oracleNBestLists(c.g, c.scorer, cfg, c.frames, max(n+2, 4))
					for _, chunk := range []int{1, 3, 7} {
						s := dec.NewNBestSession(n)
						advanceChunked(t, s, c.frames, chunk)
						requireSameLists(t, lists, s)
						requireSameResults(t, want, s.Finish())
					}
				})
			}
		}
	}
}

// TestOneBestMatchesOracle: with k=1 the search is the 1-best decoder,
// field for field (including AvgActive and histogram pruning), one-shot
// and chunked.
func TestOneBestMatchesOracle(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		for _, c := range oracleCases(t, cfg) {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				dec, err := NewDecoder(c.g, c.scorer, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := oracleDecode(c.g, c.scorer, cfg, c.frames)
				requireSameResult(t, want, dec.Decode(c.frames))
				for _, chunk := range []int{1, 3, 7} {
					s := dec.NewSession()
					advanceChunked(t, s, c.frames, chunk)
					requireSameResult(t, want, s.Result())
				}
			})
		}
	}
}
