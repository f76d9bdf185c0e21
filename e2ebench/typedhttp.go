package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sirius/internal/cluster"
	"sirius/internal/sirius"
)

// reqIDPrefix marks the request ids the benchmark sets, so the span
// wrappers can map a request back to its unit.
const reqIDPrefix = "e2ebench-"

// spanHandler wraps a tier's handler with a benchmark-owned span per
// /v1/query request, recorded while a tracer is installed.
func spanHandler(name string, h http.Handler, cur *atomic.Pointer[tracer]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := cur.Load()
		unit, err := strconv.Atoi(strings.TrimPrefix(r.Header.Get("X-Request-Id"), reqIDPrefix))
		if tr == nil || r.URL.Path != "/v1/query" || err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.add(unit, -1, name, start, time.Now())
	})
}

// httpStack is one sirius.Server behind one cluster.Frontend, each on
// its own loopback listener.
type httpStack struct {
	p        *sirius.Pipeline
	fe       *cluster.Frontend
	servers  []*http.Server
	serving  chan error
	url      string
	tracer   atomic.Pointer[tracer]
	client   *http.Client
	closeErr error
}

// serve starts h on a fresh loopback listener and returns its base URL.
func (s *httpStack) serve(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	go func() { s.serving <- srv.Serve(l) }()
	return "http://" + l.Addr().String(), nil
}

// startStack builds the pipeline, the server and the frontend, and
// returns once the frontend answers /readyz.
func startStack(nproc int) (*httpStack, error) {
	p, err := sirius.New(servedConfig())
	if err != nil {
		return nil, err
	}
	s := &httpStack{p: p, serving: make(chan error, 2)}
	backend, err := s.serve(spanHandler("backend", sirius.NewServer(p), &s.tracer))
	if err != nil {
		s.close()
		return nil, err
	}
	s.fe = cluster.NewFrontend(cluster.DefaultFrontendConfig())
	if _, err := s.fe.AddBackend(backend, "all"); err != nil {
		s.close()
		return nil, err
	}
	s.fe.Start()
	if s.url, err = s.serve(spanHandler("frontend", s.fe, &s.tracer)); err != nil {
		s.close()
		return nil, err
	}
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	resp, err := s.client.Get(s.url + "/readyz")
	if err != nil {
		s.close()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("frontend not ready: %s", resp.Status)
	}
	return s, nil
}

// close stops the listeners, the frontend's health checks and the
// pipeline, and waits for both serve loops to return.
func (s *httpStack) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
	for range s.servers {
		if err := <-s.serving; !errors.Is(err, http.ErrServerClosed) {
			s.closeErr = err
		}
	}
	if s.fe != nil {
		s.fe.Stop()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	s.p.Close()
}

// post sends one pre-encoded query through the frontend and decodes the
// reply; anything but a 200 with a decodable sirius.Response fails.
func (s *httpStack) post(ctx context.Context, tr *tracer, unit int, in *input) (sirius.Response, error) {
	var out sirius.Response
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/query", bytes.NewReader(in.body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", reqIDPrefix+strconv.Itoa(unit))
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return out, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s: status %d: %s", in.q.ID, resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, fmt.Errorf("%s: decode reply: %w", in.q.ID, err)
	}
	tr.add(unit, -1, "client", start, end)
	return out, nil
}

// runTypedHTTP posts the 42 queries as typed JSON bodies (VIQ with the
// warped photo) over loopback to a frontend fronting one server.
func runTypedHTTP(e *env, w workload) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	pool, err := buildPool(e.lex, e.seed, false, true, true)
	if err != nil {
		return nil, err
	}
	st, setup, err := timedSetups(func() (*httpStack, error) { return startStack(e.nproc) }, (*httpStack).close)
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setup
	// The reference is the in-process answer for the photo as the server
	// decodes it from the body's PNG.
	refs, err := referenceOutputs(o, pool, func(in *input) (sirius.Response, error) {
		req := sirius.Request{Text: in.q.Text}
		if in.image != nil {
			var png bytes.Buffer
			if err := sirius.EncodePNG(&png, in.image); err != nil {
				return sirius.Response{}, err
			}
			if req.Image, err = sirius.DecodePNG(&png); err != nil {
				return sirius.Response{}, err
			}
		}
		return st.p.Process(context.Background(), req)
	})
	if err != nil {
		st.close()
		return nil, err
	}
	// Warm the connections and both tiers once through every input.
	for i := range pool {
		if _, err := st.post(context.Background(), nil, i, &pool[i]); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	s := &oneShot{e: e, w: w, pool: pool, refs: refs, o: o, send: st.post, install: st.tracer.Store}
	if e.trace {
		zeroLayers(o.metrics)
	}
	s.run(func(tr *tracer, recs []unitRec, m map[string]float64) { linkHTTP(tr, recs, m) })
	st.close()
	return o, st.closeErr
}

// linkHTTP nests each traced unit's spans (client > frontend > backend
// attempts > derived process > stages), then reports each tier's time
// and self time per query.
func linkHTTP(tr *tracer, recs []unitRec, m map[string]float64) {
	ix := indexSpans(tr.snapshot())
	for unit, spans := range ix.byUnit {
		var client, front, last = -1, -1, -1
		for _, sp := range spans {
			switch sp.Name {
			case "client":
				client = sp.ID
			case "frontend":
				front = sp.ID
			}
		}
		if client < 0 || front < 0 {
			continue
		}
		tr.setParent(front, client)
		for _, sp := range spans {
			if sp.Name == "backend" {
				tr.setParent(sp.ID, front)
				last = sp.ID
			}
		}
		if last >= 0 {
			l := recs[unit].resp.Latency
			if ids := tr.derive(unit, last, []string{"process"}, []time.Duration{l.Total}); ids[0] >= 0 {
				deriveStages(tr, unit, ids[0], l)
			}
		}
	}
	ix = indexSpans(tr.snapshot())
	var n, clientSelf, front, frontSelf, back, backSelf, attempts float64
	for _, sp := range ix.spans {
		switch sp.Name {
		case "client":
			if len(ix.children[sp.ID]) > 0 {
				n++
				clientSelf += ms(ix.selfOf(sp))
			}
		case "frontend":
			front += ms(sp.dur())
			frontSelf += ms(ix.selfOf(sp))
		case "backend":
			attempts++
			back += ms(sp.dur())
			backSelf += ms(ix.selfOf(sp))
		}
	}
	if n == 0 {
		return
	}
	m["http.client_ms"] = clientSelf / n
	m["cluster.ms"] = front / n
	m["cluster.self_ms"] = frontSelf / n
	m["cluster.attempts_per_query"] = attempts / n
	m["server.ms"] = back / n
	m["server.self_ms"] = backSelf / n
	roundTrip := mean(durMs(ix.named("client")))
	m["bench.layer_coverage"] = (m["http.client_ms"] + m["cluster.self_ms"] + m["server.self_ms"] + m["sirius.process_ms"]) / roundTrip
}
