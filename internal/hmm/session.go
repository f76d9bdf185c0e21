package hmm

import (
	"context"
	"math"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// token is one hypothesis in a state's k-best list.
type token struct {
	score float64
	hist  *histNode
}

// histNode is a shared immutable word-history backpointer.
type histNode struct {
	word int32
	prev *histNode
}

// histSlabSize is the node count of one arena slab.
const histSlabSize = 1024

// histArena bump-allocates histNodes from reusable slabs so the frame
// loop's word-boundary backpointers cost no heap allocations in steady
// state. reset recycles every node while keeping the slabs, so nodes
// must not be referenced across a reset (results copy their word
// sequences out before the scratch is recycled).
type histArena struct {
	slabs [][]histNode
	slab  int // slab currently allocating from
	used  int // nodes handed out of that slab
}

func (a *histArena) reset() { a.slab, a.used = 0, 0 }

func (a *histArena) alloc(word int32, prev *histNode) *histNode {
	if a.slab < len(a.slabs) && a.used == histSlabSize {
		a.slab++
		a.used = 0
	}
	if a.slab >= len(a.slabs) {
		a.slabs = append(a.slabs, make([]histNode, histSlabSize))
	}
	n := &a.slabs[a.slab][a.used]
	a.used++
	n.word, n.prev = word, prev
	return n
}

// histBins is the resolution of the histogram-pruning score buckets.
const histBins = 128

// searchScratch is the reusable state of one search. Token lists are
// flat [states×k] arrays: state st owns cur[st*k : st*k+curN[st]],
// sorted by descending score, and bit st of curOn is set when that list
// is non-empty, so frame loops visit active states in ascending order
// without scanning the graph. top mirrors each state's best score (-Inf
// when empty) for pruning and best-path queries. The arrays swap, never
// reallocate, across frames, and the whole scratch returns to the
// graph's pool when the search ends.
type searchScratch struct {
	k             int
	cur, next     []token
	curN, nextN   []int32
	curOn, nextOn []uint64
	top           []float64
	emit          []float64
	bins          []int
	bound         []*histNode // per-token word-boundary node, one frame's worth
	arena         histArena
}

// prepare sizes the scratch for a graph and k, empties every token
// list and recycles the arena.
func (sc *searchScratch) prepare(states, k, senones int) {
	sc.k = k
	sc.cur = resize(sc.cur, states*k)
	sc.next = resize(sc.next, states*k)
	sc.curN = resize(sc.curN, states)
	sc.nextN = resize(sc.nextN, states)
	sc.curOn = resize(sc.curOn, (states+63)/64)
	sc.nextOn = resize(sc.nextOn, (states+63)/64)
	sc.top = resize(sc.top, states)
	sc.emit = resize(sc.emit, senones)
	sc.bins = resize(sc.bins, histBins)
	sc.bound = resize(sc.bound, k)
	clear(sc.curN)
	clear(sc.curOn)
	for i := range sc.top {
		sc.top[i] = math.Inf(-1)
	}
	sc.arena.reset()
}

// forEach calls fn with the index of every set bit, ascending.
func forEach(set []uint64, fn func(i int)) {
	for w, word := range set {
		for word != 0 {
			fn(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Session is the frame-synchronous token-passing Viterbi search, kept
// live between Advance calls so it can be fed chunk by chunk as audio
// arrives. Each state holds up to k tokens. A 1-best session (k=1)
// finishes with Result; an n-best session (k = max(n+2, 4)) finishes
// with Finish, which returns the n best distinct word sequences for
// trigram rescoring. Decode and DecodeNBest are one session advanced
// over the whole utterance, so the streaming and one-shot paths cannot
// diverge. A Session is not safe for concurrent use.
type Session struct {
	d           *Decoder
	n           int
	sc          *searchScratch
	frames      int // feature frames consumed so far
	totalActive int
	elapsed     time.Duration // decode wall time across Advance calls
}

// NewSession starts a 1-best streaming search.
func (d *Decoder) NewSession() *Session { return d.newSession(1, 1) }

// NewNBestSession starts a streaming search for the n best distinct
// word sequences, keeping max(n+2, 4) tokens per state.
func (d *Decoder) NewNBestSession(n int) *Session {
	if n < 1 {
		n = 1
	}
	return d.newSession(max(n+2, 4), n)
}

func (d *Decoder) newSession(k, n int) *Session {
	g := d.graph
	sc, _ := g.scratch.Get().(*searchScratch)
	if sc == nil {
		sc = new(searchScratch)
	}
	sc.prepare(g.NumStates(), k, d.scorer.NumSenones())
	return &Session{d: d, n: n, sc: sc}
}

// release returns the scratch to the graph's pool; the session is dead
// afterwards.
func (s *Session) release() {
	if s.sc != nil {
		s.d.graph.scratch.Put(s.sc)
		s.sc = nil
	}
}

// Frames returns the number of feature frames consumed so far.
func (s *Session) Frames() int { return s.frames }

// Advance scores and relaxes one chunk of feature frames. Batch-capable
// scorers score the whole chunk up front (one call per chunk — the
// granularity the batch scheduler coalesces across requests); the frame
// loop checks ctx every ctxCheckInterval frames so an expired deadline
// releases the core mid-chunk.
func (s *Session) Advance(ctx context.Context, frames [][]float64) error {
	if len(frames) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	defer func() { s.elapsed += time.Since(start) }()
	d := s.d
	sc := s.sc
	var batch [][]float64
	if bs, ok := d.scorer.(BatchScorer); ok {
		batch = bs.ScoreAllBatch(frames)
	}
	// A canceled request's batch submission returns nil; catch it here
	// before falling back to frame-by-frame local scoring.
	if err := ctx.Err(); err != nil {
		return err
	}
	for f := range frames {
		if s.frames > 0 && s.frames%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		emit := sc.emit
		if batch != nil {
			emit = batch[f]
		} else {
			d.scorer.ScoreAll(emit, frames[f])
		}
		if s.frames == 0 {
			s.totalActive += s.enter(emit)
		} else {
			s.totalActive += s.step(emit)
		}
		s.frames++
	}
	return nil
}

// enter seeds frame 0: one token at each word's first state. Returns
// the number of active states.
func (s *Session) enter(emit []float64) int {
	g := s.d.graph
	sc := s.sc
	k := sc.k
	active := 0
	for wi, st := range g.wordStart {
		score := g.startProbs[wi] + emit[g.senones[st]]
		if !(score > math.Inf(-1)) {
			continue
		}
		sc.cur[int(st)*k] = token{score: score}
		sc.curN[st] = 1
		sc.curOn[st/64] |= 1 << (st % 64)
		sc.top[st] = score
		active++
	}
	return active
}

// step relaxes every arc for one frame against the emission scores in
// emit and swaps the token arrays. Arcs run in the outer loop and a
// source state's tokens, best first, in the inner one, so the first
// token a target rejects ends that arc: every later token scores lower
// on it. Insertion keeps each list sorted with ties after equal scores.
// A word-boundary history node is taken from the arena only when a
// candidate is accepted, once per source token and frame. Nothing is
// heap-allocated once the arena's slabs have grown. Returns the number
// of active states after the frame.
func (s *Session) step(emit []float64) int {
	d := s.d
	g := d.graph
	sc := s.sc
	k := sc.k
	cur, next := sc.cur, sc.next
	curN, nextN := sc.curN, sc.nextN
	nextOn := sc.nextOn
	clear(nextN)
	clear(nextOn)
	best := math.Inf(-1)
	forEach(sc.curOn, func(st int) {
		if v := sc.top[st]; v > best {
			best = v
		}
	})
	threshold := math.Inf(-1)
	if d.cfg.Beam > 0 {
		threshold = best - d.cfg.Beam
	}
	if d.cfg.MaxActive > 0 {
		if ht := histogramThreshold(sc.top, best, d.cfg.Beam, d.cfg.MaxActive, sc.bins); ht > threshold {
			threshold = ht
		}
	}
	forEach(sc.curOn, func(st int) {
		// Tokens inside the beam form a prefix of the sorted list.
		toks := cur[st*k : st*k+int(curN[st])]
		live := 0
		for live < len(toks) && !(toks[live].score < threshold) && !math.IsInf(toks[live].score, -1) {
			live++
		}
		if live == 0 {
			return
		}
		toks = toks[:live]
		bound := sc.bound[:live]
		clear(bound)
		for _, a := range g.arcs[st] {
			to := int(a.to)
			list := next[to*k : to*k+k]
			for i, tok := range toks {
				cand := tok.score + a.weight
				n := int(nextN[to])
				last := n
				if n == k {
					if !(cand > list[k-1].score) {
						break
					}
					last = k - 1
				} else {
					if !(cand > math.Inf(-1)) {
						break
					}
					if n == 0 {
						nextOn[to/64] |= 1 << (to % 64)
					}
					nextN[to]++
				}
				h := tok.hist
				if a.wordLabel >= 0 {
					// Every labeled arc out of a state completes the
					// same word, so one node serves all of them.
					if bound[i] == nil {
						bound[i] = sc.arena.alloc(a.wordLabel, h)
					}
					h = bound[i]
				}
				j := last
				for j > 0 && list[j-1].score < cand {
					list[j] = list[j-1]
					j--
				}
				list[j] = token{score: cand, hist: h}
			}
		}
	})
	forEach(sc.curOn, func(st int) { sc.top[st] = math.Inf(-1) })
	active := 0
	forEach(nextOn, func(st int) {
		active++
		e := emit[g.senones[st]]
		list := next[st*k : st*k+int(nextN[st])]
		for i := range list {
			list[i].score += e
		}
		sc.top[st] = list[0].score
	})
	sc.cur, sc.next = next, cur
	sc.curN, sc.nextN = nextN, curN
	sc.curOn, sc.nextOn = nextOn, sc.curOn
	return active
}

// BestWords returns the committed words on the current globally best
// path — the partial hypothesis. The word being decoded right now is
// not included (it has not crossed a word boundary yet), which is what
// makes the prefix monotone enough for stability detection. Returns nil
// before any frame has been consumed.
func (s *Session) BestWords() []string {
	if s.frames == 0 {
		return nil
	}
	sc := s.sc
	best := math.Inf(-1)
	bi := -1
	for i, v := range sc.top {
		if v > best {
			best = v
			bi = i
		}
	}
	if bi < 0 {
		return nil
	}
	return historyWords(s.d.graph, sc.cur[bi*sc.k].hist)
}

// Result ends the search and picks the winning hypothesis from each
// state's best token: the best word-final token, falling back to the
// global best, with the confidence margin against the runner-up ending
// in a different word. The Session must not be used afterwards.
func (s *Session) Result() Result {
	if s.frames == 0 {
		return Result{}
	}
	defer s.release()
	start := time.Now()
	g := s.d.graph
	sc := s.sc
	top := sc.top
	bestScore := math.Inf(-1)
	bestState := -1
	secondScore := math.Inf(-1)
	secondState := -1
	for st, v := range top {
		if g.wordEnd[st] < 0 {
			continue
		}
		if v > bestScore {
			if bestState >= 0 && g.wordEnd[bestState] != g.wordEnd[st] {
				secondScore, secondState = bestScore, bestState
			}
			bestScore = v
			bestState = st
		} else if v > secondScore && (bestState < 0 || g.wordEnd[bestState] != g.wordEnd[st]) {
			secondScore = v
			secondState = st
		}
	}
	var words []string
	if bestState >= 0 {
		final := histNode{word: g.wordEnd[bestState], prev: sc.cur[bestState*sc.k].hist}
		words = historyWords(g, &final)
	} else {
		for st, v := range top {
			if v > bestScore {
				bestScore = v
				bestState = st
			}
		}
		if bestState >= 0 {
			words = historyWords(g, sc.cur[bestState*sc.k].hist)
		}
	}
	res := Result{
		Words:     words,
		Score:     bestScore,
		Frames:    s.frames,
		AvgActive: float64(s.totalActive) / float64(s.frames),
	}
	if secondState >= 0 && !math.IsInf(secondScore, -1) {
		res.Confidence = (bestScore - secondScore) / float64(s.frames)
		res.RunnerUp = g.lex.Words()[g.wordEnd[secondState]]
	}
	decodeTime.Observe(s.elapsed + time.Since(start))
	return res
}

// Finish ends the search and returns the n best distinct word
// sequences (best first): every surviving word-final token becomes a
// hypothesis, deduped by word sequence keeping the best score, and the
// best carries the confidence margin against the runner-up. The Session
// must not be used afterwards.
func (s *Session) Finish() []Result {
	if s.frames == 0 {
		return nil
	}
	defer s.release()
	start := time.Now()
	hyps := s.hypotheses()
	sort.Slice(hyps, func(i, j int) bool { return hyps[i].res.Score > hyps[j].res.Score })
	if len(hyps) > s.n {
		hyps = hyps[:s.n]
	}
	out := make([]Result, len(hyps))
	for i, h := range hyps {
		out[i] = h.res
		if i == 0 && len(hyps) > 1 {
			out[i].Confidence = (hyps[0].res.Score - hyps[1].res.Score) / float64(s.frames)
			if len(hyps[1].res.Words) > 0 {
				out[i].RunnerUp = hyps[1].res.Words[len(hyps[1].res.Words)-1]
			}
		}
	}
	decodeTime.Observe(s.elapsed + time.Since(start))
	return out
}

// hyp is one deduped n-best entry keyed by its joined word sequence.
type hyp struct {
	words string
	res   Result
}

// hypotheses collects word-final hypotheses from the surviving token
// lists, deduped by word sequence (keeping the best score per
// sequence).
func (s *Session) hypotheses() []hyp {
	g := s.d.graph
	sc := s.sc
	seen := map[string]int{}
	var hyps []hyp
	add := func(words []string, score float64) {
		key := strings.Join(words, " ")
		if idx, ok := seen[key]; ok {
			if score > hyps[idx].res.Score {
				hyps[idx].res.Score = score
			}
			return
		}
		seen[key] = len(hyps)
		hyps = append(hyps, hyp{words: key, res: Result{Words: words, Score: score, Frames: s.frames}})
	}
	for st, cnt := range sc.curN {
		if g.wordEnd[st] < 0 {
			continue
		}
		for _, tok := range sc.cur[st*sc.k : st*sc.k+int(cnt)] {
			final := histNode{word: g.wordEnd[st], prev: tok.hist}
			add(historyWords(g, &final), tok.score)
		}
	}
	if len(hyps) == 0 {
		// No token ended on a word-final state (aggressive beam or an
		// utterance cut mid-word): fall back to every surviving token's
		// completed-word history, mirroring Result's fallback.
		for st, cnt := range sc.curN {
			for _, tok := range sc.cur[st*sc.k : st*sc.k+int(cnt)] {
				add(historyWords(g, tok.hist), tok.score)
			}
		}
	}
	return hyps
}

// historyWords materializes a backpointer chain in utterance order.
func historyWords(g *Graph, h *histNode) []string {
	var words []string
	for ; h != nil; h = h.prev {
		words = append(words, g.lex.Words()[h.word])
	}
	for i, j := 0, len(words)-1; i < j; i, j = i+1, j-1 {
		words[i], words[j] = words[j], words[i]
	}
	return words
}
