package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	pq "probequorum"
	"probequorum/client"
	"probequorum/internal/probeserve"
)

// nproc is the core count: the benchmark runs GOMAXPROCS = nproc and
// never opens more than nproc connections.
var nproc = runtime.NumCPU()

// reqIDHeader joins the server-side handler span to its client span.
const reqIDHeader = "X-Perfbench-Request"

// env is one running system under test: a session with the workload's
// cache tiers, a probeserve server on loopback, and a client for it.
type env struct {
	ev       *pq.Evaluator
	srv      *probeserve.Server
	hs       *http.Server
	served   chan struct{}
	tr       *http.Transport
	cl       *client.Client
	storeDir string
	mw       *middleware // nil when untraced
}

// newEnv starts a fresh system for w and runs its setup warm-up. With
// traced set, the handler is wrapped in the span-recording middleware and
// the client tags every attempt with its request id.
func newEnv(w *workload, p *plan, traced bool, tmp string) (*env, error) {
	e := &env{}
	opts := []pq.EvaluatorOption{pq.WithParallelism(w.parallelism)}
	if w.approx {
		opts = append(opts, pq.WithApprox(pq.NewApproxCache()))
	}
	if w.store {
		dir, err := os.MkdirTemp(tmp, "store-")
		if err != nil {
			return nil, fmt.Errorf("store dir: %w", err)
		}
		e.storeDir = dir
		st, err := pq.OpenArtifactStore(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("open store: %w", err)
		}
		opts = append(opts, pq.WithStore(st))
	}
	e.ev = pq.NewEvaluator(opts...)
	e.srv = probeserve.New(e.ev, probeserve.WithConcurrencyLimit(nproc))
	var h http.Handler = e.srv.Handler()
	if traced {
		e.mw = &middleware{next: h}
		h = e.mw
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.hs = &http.Server{Handler: h}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		e.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	e.tr = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true}
	e.cl = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: &countingTransport{base: e.tr, traced: traced}}),
		client.WithTimeout(time.Minute))
	ctx := context.Background()
	if len(p.warm) > 0 {
		res, err := e.ev.DoBatch(ctx, p.warm)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		for i, r := range res {
			if r.Error != "" {
				e.close()
				return nil, fmt.Errorf("warm-up query %d (%s): %s", i, p.warm[i].Spec, r.Error)
			}
		}
	}
	if err := e.cl.Health(ctx); err != nil {
		e.close()
		return nil, fmt.Errorf("health: %w", err)
	}
	for i := range p.warmReqs {
		a := e.send(ctx, &p.warmReqs[i], "")
		if msg := a.failed(); msg != "" {
			e.close()
			return nil, fmt.Errorf("warm-up request %d: %s", i, msg)
		}
	}
	return e, nil
}

// close stops the server, waits for its serve loop to end and removes
// the store directory.
func (e *env) close() {
	if e.hs != nil {
		e.hs.Close()
		<-e.served
	}
	if e.tr != nil {
		e.tr.CloseIdleConnections()
	}
	if e.ev != nil && e.ev.ArtifactStore() != nil {
		e.ev.ArtifactStore().Close()
	}
	if e.storeDir != "" {
		os.RemoveAll(e.storeDir)
	}
}

// counters is a snapshot of every counter the program exports.
type counters struct {
	eval   pq.EvalStats
	adm    probeserve.AdmissionStats
	store  pq.ArtifactStoreStats
	approx pq.ApproxCacheStats
}

func (e *env) counters() counters {
	c := counters{eval: e.ev.Stats(), adm: e.srv.AdmissionStats()}
	if st := e.ev.ArtifactStore(); st != nil {
		// Stats also scans the directory footprint; only the counters
		// are used, which it fills before scanning.
		c.store, _ = st.Stats()
	}
	if ac := e.ev.Approx(); ac != nil {
		c.approx = ac.Stats()
	}
	return c
}

func sumCounts(m map[string]uint64) uint64 {
	var s uint64
	for _, v := range m {
		s += v
	}
	return s
}

// reqInfo accumulates what the transport saw for one logical request,
// across the client's retries.
type reqInfo struct {
	id        string
	attempts  atomic.Int64
	non2xx    atomic.Int64
	bytes     atomic.Int64
	transport atomic.Int64
}

type reqInfoKey struct{}

// countingTransport is the benchmark's RoundTripper: it counts attempts,
// non-2xx answers and bytes per request, and in traced runs tags each
// attempt with the request id.
type countingTransport struct {
	base   http.RoundTripper
	traced bool
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	info, _ := req.Context().Value(reqInfoKey{}).(*reqInfo)
	if info == nil {
		return t.base.RoundTrip(req)
	}
	info.attempts.Add(1)
	if req.ContentLength > 0 {
		info.bytes.Add(req.ContentLength)
	}
	if t.traced {
		req = req.Clone(req.Context())
		req.Header.Set(reqIDHeader, info.id)
	}
	res, err := t.base.RoundTrip(req)
	if err != nil {
		info.transport.Add(1)
		return nil, err
	}
	if res.StatusCode/100 != 2 {
		info.non2xx.Add(1)
	}
	res.Body = &countingBody{ReadCloser: res.Body, n: &info.bytes}
	return res, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// answer is the outcome of sending one request through the client.
type answer struct {
	results []*pq.Result
	// firstValue is the time from send to the first cell carrying a
	// value (for /v1/eval, the whole response).
	firstValue time.Duration
	err        error
	info       *reqInfo
}

// failed reports whether the request failed on the wire or in any of
// its queries.
func (a *answer) failed() string {
	switch {
	case a.err != nil:
		return a.err.Error()
	case a.info.non2xx.Load() > 0:
		return fmt.Sprintf("%d non-2xx attempts", a.info.non2xx.Load())
	case a.info.transport.Load() > 0:
		return fmt.Sprintf("%d transport errors", a.info.transport.Load())
	}
	for i, r := range a.results {
		if r == nil {
			return fmt.Sprintf("query %d: no result", i)
		}
		if r.Error != "" {
			return fmt.Sprintf("query %d: %s", i, r.Error)
		}
	}
	return ""
}

// send runs one request through the client and the real service path.
func (e *env) send(ctx context.Context, r *request, id string) answer {
	info := &reqInfo{id: id}
	ctx = context.WithValue(ctx, reqInfoKey{}, info)
	a := answer{info: info}
	start := time.Now()
	if !r.Stream {
		a.results, a.err = e.cl.Eval(ctx, r.Queries)
		a.firstValue = time.Since(start)
		return a
	}
	var cells []pq.Cell
	for c, err := range e.cl.StreamEval(ctx, r.Queries) {
		if err != nil {
			a.err = err
			return a
		}
		if a.firstValue == 0 && c.Measure != "" && c.Err == "" {
			a.firstValue = time.Since(start)
		}
		cells = append(cells, c)
	}
	if a.firstValue == 0 {
		a.firstValue = time.Since(start)
	}
	a.results, a.err = pq.FoldCells(pq.CellSeq(cells), len(r.Queries))
	return a
}

// middleware records the server-side handler span of every tagged
// request, with the time its writes and flushes spent on the socket.
// It implements Flush and Unwrap so NDJSON flushes still reach the
// connection.
type middleware struct {
	next  http.Handler
	mu    sync.Mutex
	spans map[string]handlerSpan
}

type handlerSpan struct {
	start, end time.Time
	wire       time.Duration
	flushes    int
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(reqIDHeader)
	tw := &tracedWriter{ResponseWriter: w}
	start := time.Now()
	m.next.ServeHTTP(tw, r)
	end := time.Now()
	if id == "" {
		return
	}
	m.mu.Lock()
	if m.spans == nil {
		m.spans = map[string]handlerSpan{}
	}
	m.spans[id] = handlerSpan{start: start, end: end, wire: tw.wire, flushes: tw.flushes}
	m.mu.Unlock()
}

func (m *middleware) span(id string) (handlerSpan, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.spans[id]
	return s, ok
}

type tracedWriter struct {
	http.ResponseWriter
	wire    time.Duration
	flushes int
}

func (t *tracedWriter) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := t.ResponseWriter.Write(b)
	t.wire += time.Since(start)
	return n, err
}

func (t *tracedWriter) Flush() {
	start := time.Now()
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	t.flushes++
	t.wire += time.Since(start)
}

func (t *tracedWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }
