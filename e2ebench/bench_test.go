package main

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sirius/internal/kb"
)

func TestPercentileSupport(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 0.99); v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if _, beyond := percentile(xs[:999], 0.99); beyond >= minBeyond {
		t.Fatalf("p99 of 999 samples has %d beyond; it must not count as supported", beyond)
	}
	if v, _ := percentile(xs, 0.5); v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, want 500", v)
	}
	// Ties at the percentile are not beyond it.
	flat := []float64{1, 2, 2, 2, 2}
	if v, beyond := percentile(flat, 0.5); v != 2 || beyond != 0 {
		t.Fatalf("p50 of %v = %v with %d beyond, want 2 with 0", flat, v, beyond)
	}
	if v, _ := percentile(nil, 0.5); !math.IsNaN(v) {
		t.Fatalf("percentile of no samples = %v, want NaN", v)
	}
}

func TestSelfTime(t *testing.T) {
	sp := func(a, b int) span { return span{Start: time.Duration(a), End: time.Duration(b)} }
	cases := []struct {
		name     string
		parent   span
		children []span
		want     int
	}{
		{"no children", sp(0, 100), nil, 100},
		{"disjoint", sp(0, 100), []span{sp(10, 20), sp(40, 70)}, 60},
		{"overlap counts once", sp(0, 100), []span{sp(10, 30), sp(20, 50)}, 60},
		{"nested child", sp(0, 100), []span{sp(10, 60), sp(20, 30)}, 50},
		{"clipped to parent", sp(0, 100), []span{sp(-20, 10), sp(90, 130)}, 80},
		{"outside parent", sp(0, 100), []span{sp(200, 300)}, 100},
		{"fully covered", sp(0, 100), []span{sp(0, 100)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(c.parent, c.children); got != time.Duration(c.want) {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestDeriveAndIndex(t *testing.T) {
	tr := newTracer("test")
	root := tr.add(7, -1, "process", tr.origin, tr.origin.Add(100))
	ids := tr.derive(7, root, []string{"asr", "imm", "qa"}, []time.Duration{60, 0, 30})
	if ids[1] != -1 {
		t.Fatalf("a zero duration got span %d", ids[1])
	}
	ix := indexSpans(tr.snapshot())
	if got := ix.selfOf(ix.spans[root]); got != 10 {
		t.Fatalf("process self time %d, want 10", got)
	}
	qa := ix.spans[ids[2]]
	if qa.Start != 60 || qa.End != 90 || !qa.Derived {
		t.Fatalf("qa laid at [%d,%d] derived=%v, want [60,90] derived", qa.Start, qa.End, qa.Derived)
	}
	if len(ix.byUnit[7]) != 3 {
		t.Fatalf("unit 7 has %d spans, want 3", len(ix.byUnit[7]))
	}
	var nilTracer *tracer
	if nilTracer.add(0, -1, "x", time.Now(), time.Now()) != -1 || nilTracer.derive(0, 0, []string{"x"}, []time.Duration{1}) != nil {
		t.Fatal("a nil tracer recorded a span")
	}
}

func TestScheduleDeterminism(t *testing.T) {
	a := poissonDue(rand.New(rand.NewSource(5)), 40, 4000)
	b := poissonDue(rand.New(rand.NewSource(5)), 40, 4000)
	c := poissonDue(rand.New(rand.NewSource(6)), 40, 4000)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different arrival schedules")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same arrival schedule")
	}
	if rate := float64(len(a)) / a[len(a)-1].Seconds(); math.Abs(rate-40)/40 > 0.05 {
		t.Fatalf("schedule rate %.2f/s, want 40/s within 5%%", rate)
	}
	o1 := order(rand.New(rand.NewSource(5)), 84, 300)
	o2 := order(rand.New(rand.NewSource(5)), 84, 300)
	if !slices.Equal(o1, o2) {
		t.Fatal("same seed gave different input orders")
	}
	// Each full cycle issues every pooled input once.
	for c := 0; c+84 <= len(o1); c += 84 {
		cycle := slices.Clone(o1[c : c+84])
		slices.Sort(cycle)
		for i, v := range cycle {
			if v != i {
				t.Fatalf("cycle at %d is not a permutation of the pool", c)
			}
		}
	}
}

func TestPoolDeterminism(t *testing.T) {
	lex, _ := kb.BuildLexicon()
	a, err := buildPool(lex, 9, true, true, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildPool(lex, 9, true, true, true)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildPool(lex, 10, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != variants*len(kb.AllQueries()) {
		t.Fatalf("pool holds %d inputs, want %d", len(a), variants*len(kb.AllQueries()))
	}
	differs := 0
	for i := range a {
		if !slices.Equal(a[i].samples, b[i].samples) || !bytes.Equal(a[i].body, b[i].body) || a[i].frames != b[i].frames {
			t.Fatalf("input %d (%s) differs between two builds from one seed", i, a[i].q.ID)
		}
		if (a[i].image != nil) != (a[i].q.ImageID != "") {
			t.Fatalf("input %d (%s): photo present=%v for image id %q", i, a[i].q.ID, a[i].image != nil, a[i].q.ImageID)
		}
		if a[i].image != nil && !slices.Equal(a[i].image.Pix, b[i].image.Pix) {
			t.Fatalf("input %d (%s) photo differs between two builds from one seed", i, a[i].q.ID)
		}
		if !slices.Equal(a[i].samples, c[i].samples) {
			differs++
		}
	}
	if differs < len(a)/2 {
		t.Fatalf("only %d of %d utterances change with the seed", differs, len(a))
	}
	// The two variants of one query are distinct renderings.
	if slices.Equal(a[0].samples, a[len(kb.AllQueries())].samples) {
		t.Fatal("variants of one query share a synthesis seed")
	}
}

// TestDueTimeLatency stalls the only caller on the first unit: the units
// queued behind it must carry the stall in their latency, because they
// are timed from when they were due, not from when they were sent.
func TestDueTimeLatency(t *testing.T) {
	const stall = 200 * time.Millisecond
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	sendLate := make([]time.Duration, len(due))
	res := openLoop(context.Background(), due, 1, func(_ context.Context, i int, at time.Time) error {
		sendLate[i] = time.Since(at)
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	for i := 1; i < len(due); i++ {
		floor := stall - due[i]
		if sendLate[i] < floor {
			t.Errorf("unit %d was sent %v after its due time, want at least %v", i, sendLate[i], floor)
		}
		if res.lat[i] < sendLate[i] || res.lat[i] < floor {
			t.Errorf("unit %d latency %v hides the %v it waited to be sent", i, res.lat[i], sendLate[i])
		}
	}
	if res.backlog != len(due) {
		t.Errorf("backlog at last arrival %d, want %d (nothing completed during the stall)", res.backlog, len(due))
	}
	if res.lat[0] < stall {
		t.Errorf("stalled unit latency %v, want at least %v", res.lat[0], stall)
	}
}

func TestClosedLoop(t *testing.T) {
	done, failed, elapsed := closedLoop(context.Background(), 20*time.Millisecond, 2, func(_ context.Context, i int) error {
		time.Sleep(time.Millisecond)
		if i%2 == 1 {
			return context.DeadlineExceeded
		}
		return nil
	})
	if done == 0 || failed == 0 || done+failed < 4 {
		t.Fatalf("closed loop completed %d and failed %d units", done, failed)
	}
	if elapsed < 20*time.Millisecond {
		t.Fatalf("closed loop stopped after %v, before its %v", elapsed, 20*time.Millisecond)
	}
}
