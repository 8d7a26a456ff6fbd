// Package client is a small HTTP client for the probeserved evaluation
// service: it submits Query batches to /v1/eval and decodes the shared
// Result wire encoding, so remote evaluation reads like a local
// Evaluator.DoBatch call — and it consumes the /v1/stream NDJSON cell
// frames as an iterator, so remote streaming reads like a local
// Evaluator.StreamBatch call.
//
// The client is built for a fleet that sheds and fails: unary calls
// carry a default timeout so a hung server can never hang a caller,
// and every idempotent call retries transient failures — 429 sheds
// (honoring Retry-After), transient 5xx, connection resets, truncated
// streams — under a bounded exponential backoff with jitter. /v1/eval
// is deterministic, so a stream that dies mid-body is resumed by
// re-requesting and skipping the cells already delivered; the iterator
// yields each cell exactly once. Failures the server types as final
// (CodeShutdown) and the caller's own context ending are never retried.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"time"

	"probequorum"
	"probequorum/internal/probeserve"
)

// DefaultTimeout bounds one unary request (dial to last body byte).
// Streaming requests are bounded per-read by the caller's context
// instead: a legitimate stream can run far longer than any fixed cap.
const DefaultTimeout = 30 * time.Second

// DefaultRetries is the default retry budget: transient failures are
// retried up to this many times after the first attempt.
const DefaultRetries = 3

// Default backoff bounds: retry n sleeps roughly base·2ⁿ, jittered,
// capped at max, and never less than the server's Retry-After hint.
const (
	DefaultBackoffBase = 100 * time.Millisecond
	DefaultBackoffMax  = 2 * time.Second
)

// ErrOverloaded matches (via errors.Is) a request shed by the server's
// admission gate with 429 Too Many Requests. The client retries these
// on its own; seeing this error means the retry budget ran out too.
var ErrOverloaded = errors.New("client: server overloaded")

// ErrServerShutdown matches (via errors.Is) a request or stream ended by
// server drain. It is final for this endpoint — the client does not
// retry it; a fleet caller re-resolves and goes elsewhere.
var ErrServerShutdown = errors.New("client: server shutting down")

// ServerError is a typed non-2xx answer decoded from the service's
// error body. It matches ErrOverloaded and ErrServerShutdown through
// errors.Is.
type ServerError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the service's machine-readable failure class ("overloaded",
	// "shutdown", "panic"), empty on untyped errors.
	Code string
	// Message is the server's human-readable error.
	Message string
	// RetryAfter is the server's Retry-After hint (zero when absent).
	RetryAfter time.Duration
}

func (e *ServerError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("client: server returned %d", e.Status)
	}
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

// Is matches the typed sentinels so callers can branch with errors.Is
// without reaching into the struct.
func (e *ServerError) Is(target error) bool {
	switch target {
	case ErrOverloaded:
		return e.Code == probeserve.CodeOverloaded || e.Status == http.StatusTooManyRequests
	case ErrServerShutdown:
		return e.Code == probeserve.CodeShutdown
	}
	return false
}

// Client talks to one probeserved base URL. It is safe for concurrent
// use.
type Client struct {
	base string
	// hc serves unary calls under an overall timeout; sc serves streams,
	// which must not be killed by a fixed cap mid-body.
	hc          *http.Client
	sc          *http.Client
	timeout     time.Duration
	retries     int
	backoffBase time.Duration
	backoffMax  time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client for both unary
// and streaming calls, as given — its own Timeout (or lack of one)
// replaces the client's default timeout handling.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc, c.sc = hc, hc
			c.timeout = 0
		}
	}
}

// WithTimeout bounds each unary request attempt (default DefaultTimeout;
// non-positive disables the cap). Streaming calls are unaffected — bound
// those with the context.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithRetries sets the retry budget for idempotent calls: transient
// failures are retried up to n times after the first attempt (default
// DefaultRetries; 0 disables retries).
func WithRetries(n int) Option {
	return func(c *Client) {
		if n >= 0 {
			c.retries = n
		}
	}
}

// WithBackoff bounds the retry backoff: retry n sleeps base·2ⁿ with
// jitter, capped at max.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) {
		if base > 0 {
			c.backoffBase = base
		}
		if max > 0 {
			c.backoffMax = max
		}
	}
}

// New returns a client for the service at base, e.g.
// "http://localhost:8773".
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:        strings.TrimRight(base, "/"),
		timeout:     DefaultTimeout,
		retries:     DefaultRetries,
		backoffBase: DefaultBackoffBase,
		backoffMax:  DefaultBackoffMax,
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.hc == nil {
		c.hc = &http.Client{Timeout: c.timeout}
		c.sc = &http.Client{}
	} else if c.timeout > 0 {
		// WithTimeout alongside WithHTTPClient: respect the explicit cap
		// on unary calls without mutating the caller's client.
		hc := *c.hc
		hc.Timeout = c.timeout
		c.hc = &hc
	}
	return c
}

// retriable reports whether an attempt's failure is worth retrying: a
// transport-level failure (reset, refused, timeout of one attempt), a
// 429 shed, or a transient 5xx. The caller's own context ending and
// failures the server types as final (shutdown) are not.
func retriable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrServerShutdown) {
		// Both forms of a drain — the 503 answer and a stream's terminal
		// shutdown frame — are final for this endpoint.
		return false
	}
	var ste *streamError
	if errors.As(err, &ste) {
		// A terminal error frame is the server reporting the evaluation
		// itself failed; deterministic, so a retry answers the same.
		return false
	}
	var se *ServerError
	if errors.As(err, &se) {
		if se.Code == probeserve.CodeShutdown {
			return false
		}
		switch se.Status {
		case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	return true
}

// backoff is the sleep before retry attempt (0-based): base·2ᵃᵗᵗᵉᵐᵖᵗ
// jittered into [d/2, d] so a shed burst of clients does not return in
// lockstep, capped at max, and never under the server's Retry-After.
func (c *Client) backoff(attempt int, err error) time.Duration {
	d := c.backoffBase
	for i := 0; i < attempt && d < c.backoffMax; i++ {
		d *= 2
	}
	if d > c.backoffMax {
		d = c.backoffMax
	}
	if half := d / 2; half > 0 {
		d = half + time.Duration(rand.Int64N(int64(half)+1))
	}
	var se *ServerError
	if errors.As(err, &se) && se.RetryAfter > d {
		d = se.RetryAfter
	}
	return d
}

// sleepCtx sleeps d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Eval submits the query batch to /v1/eval and returns one Result per
// query, in order. Queries must name systems by Spec: a System value
// cannot cross the wire. Individually failed queries come back with
// Result.Error set, exactly as Evaluator.DoBatch reports them. Transient
// failures retry under the client's backoff policy — /v1/eval is
// deterministic, so a retried batch answers bit-identically.
func (c *Client) Eval(ctx context.Context, queries []probequorum.Query) ([]*probequorum.Result, error) {
	body, err := encodeBatch(queries)
	if err != nil {
		return nil, err
	}
	var resp probeserve.EvalResponse
	if err := c.doJSON(ctx, http.MethodPost, c.base+"/v1/eval", body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(queries) {
		return nil, protocolErrorf("got %d results for %d queries", len(resp.Results), len(queries))
	}
	return resp.Results, nil
}

// encodeBatch validates a query batch for the wire and encodes the
// request body both /v1/eval and /v1/stream take. A query holding a
// System value is refused with a *RequestError: a System cannot cross
// the wire.
func encodeBatch(queries []probequorum.Query) ([]byte, error) {
	for i, q := range queries {
		if q.System != nil {
			return nil, requestErrorf("query %d holds a System value; remote queries must name systems by Spec", i)
		}
	}
	body, err := json.Marshal(probeserve.EvalRequest{Queries: queries})
	if err != nil {
		return nil, fmt.Errorf("client: encode request: %w", err)
	}
	return body, nil
}

// maxStreamLineBytes bounds one NDJSON frame the streaming reader will
// accept; a frame carrying a strategy-tree rendering is the largest
// legitimate line by far and fits comfortably. Oversized lines fail
// loudly instead of being split mid-JSON.
const maxStreamLineBytes = 8 << 20

// ErrStreamTruncated reports a /v1/stream response that ended without a
// terminal done or error frame: the transport failed mid-stream, so the
// cells received so far are a prefix, not the whole answer. The client
// retries and resumes these on its own; seeing this error means the
// retry budget ran out too.
var ErrStreamTruncated = errors.New("client: stream ended without a terminal frame")

// errStreamConsumerStopped is the internal signal that the iterating
// caller broke out; the stream is simply over.
var errStreamConsumerStopped = errors.New("client: stream consumer stopped")

// StreamEval submits the query batch to /v1/stream and returns the cell
// stream as an iterator, each cell yielded as its NDJSON frame arrives —
// remote streaming reads like a local Evaluator.StreamBatch call, and
// probequorum.FoldCells folds the cells into the same Results /v1/eval
// would have answered. The terminal pair of a failed stream carries a
// non-nil error: the server's error frame (matching ErrServerShutdown
// when drain cut the stream), ErrStreamTruncated or the transport
// failure once the retry budget is spent. Transient failures — sheds,
// resets, truncation — are retried and resumed: the cell stream is
// deterministic, so the client re-requests and skips the cells it
// already delivered, and the caller sees each cell exactly once.
// Breaking out of the iteration closes the response body, which cancels
// the server-side evaluation.
func (c *Client) StreamEval(ctx context.Context, queries []probequorum.Query) iter.Seq2[probequorum.Cell, error] {
	return func(yield func(probequorum.Cell, error) bool) {
		body, err := encodeBatch(queries)
		if err != nil {
			yield(probequorum.Cell{}, err)
			return
		}
		delivered := 0
		for attempt := 0; ; attempt++ {
			err := c.streamOnce(ctx, body, &delivered, yield)
			switch {
			case err == nil, errors.Is(err, errStreamConsumerStopped):
				return
			case !retriable(err), attempt >= c.retries:
				yield(probequorum.Cell{}, err)
				return
			}
			if sleepCtx(ctx, c.backoff(attempt, err)) != nil {
				yield(probequorum.Cell{}, err)
				return
			}
		}
	}
}

// streamOnce runs one /v1/stream attempt, skipping the first *delivered
// cell frames (already yielded by an earlier attempt) and bumping the
// counter for each cell it hands the consumer. A nil return is a
// completed stream; errStreamConsumerStopped means the consumer broke
// out; any other error is the attempt's failure, judged by retriable.
func (c *Client) streamOnce(ctx context.Context, body []byte, delivered *int, yield func(probequorum.Cell, error) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := c.sc.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(res.Body, 1<<20))
		return decodeError(res, data)
	}

	seen := 0
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 64<<10), maxStreamLineBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var frame probeserve.StreamFrame
		if err := json.Unmarshal(line, &frame); err != nil {
			return fmt.Errorf("client: decode stream frame: %w", err)
		}
		switch {
		case frame.Error != "":
			// Server-typed terminal frames are final: the evaluation
			// itself failed (or drain ended it) — a retry would not help.
			if frame.Code == probeserve.CodeShutdown {
				return fmt.Errorf("client: stream failed: %s: %w", frame.Error, ErrServerShutdown)
			}
			return &streamError{msg: frame.Error}
		case frame.Done != nil:
			return nil
		case frame.Cell != nil:
			seen++
			if seen <= *delivered {
				continue // resumed stream: already yielded by a prior attempt
			}
			*delivered++
			if !yield(*frame.Cell, nil) {
				return errStreamConsumerStopped
			}
		default:
			return protocolErrorf("empty stream frame %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("client: read stream: %w (%w)", err, ErrStreamTruncated)
	}
	return ErrStreamTruncated
}

// streamError is a terminal error frame reported by the server — an
// evaluation failure, not a transport one, so never retried.
type streamError struct{ msg string }

func (e *streamError) Error() string { return "client: stream failed: " + e.msg }

// RequestError reports a request the client refused to send: the caller
// built something that cannot cross the wire. Retrying unchanged cannot
// succeed. Match the class with errors.As.
type RequestError struct {
	// Msg describes the defect, without the "client: " prefix.
	Msg string
}

func (e *RequestError) Error() string { return "client: " + e.Msg }

// requestErrorf builds a *RequestError the way fmt.Errorf would spell it.
func requestErrorf(format string, args ...any) error {
	return &RequestError{Msg: fmt.Sprintf(format, args...)}
}

// ProtocolError reports a response the client could not trust: a frame,
// count, size or status that violates the service protocol. It is
// distinct from *ServerError (a well-formed error answer) and from
// transport errors (wrapped with %w). Match the class with errors.As.
type ProtocolError struct {
	// Msg describes the violation, without the "client: " prefix.
	Msg string
}

func (e *ProtocolError) Error() string { return "client: " + e.Msg }

// protocolErrorf builds a *ProtocolError the way fmt.Errorf would spell it.
func protocolErrorf(format string, args ...any) error {
	return &ProtocolError{Msg: fmt.Sprintf(format, args...)}
}

// Systems returns the construction names registered on the server.
func (c *Client) Systems(ctx context.Context) ([]string, error) {
	resp, err := c.SystemsInfo(ctx)
	if err != nil {
		return nil, err
	}
	return resp.Specs, nil
}

// SystemsInfo returns the full /v1/systems answer: the registered
// construction names and every measure the server recognizes,
// including the timed (temporal-engine) measures.
func (c *Client) SystemsInfo(ctx context.Context) (probeserve.SystemsResponse, error) {
	var resp probeserve.SystemsResponse
	err := c.doJSON(ctx, http.MethodGet, c.base+"/v1/systems", nil, &resp)
	return resp, err
}

// CacheStats returns the server's cache accounting: the evaluation
// session's build/coalesce and per-tier hit/miss counters, plus the
// persistent store footprint and approximate-cache sizes when the
// server runs those tiers (nil otherwise).
func (c *Client) CacheStats(ctx context.Context) (probeserve.CacheStatsResponse, error) {
	var resp probeserve.CacheStatsResponse
	err := c.doJSON(ctx, http.MethodGet, c.base+"/v1/admin/cache", nil, &resp)
	return resp, err
}

// Render returns the server's ASCII rendering of the system named by the
// spec string.
func (c *Client) Render(ctx context.Context, spec string) (string, error) {
	u := c.base + "/v1/render?spec=" + url.QueryEscape(spec)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return "", err
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(io.LimitReader(res.Body, 1<<20))
	if err != nil {
		return "", err
	}
	if res.StatusCode != http.StatusOK {
		return "", decodeError(res, data)
	}
	return string(data), nil
}

// Health checks /healthz, returning nil when the service answers OK. It
// is deliberately never retried: a health probe's job is to report the
// truth of this instant, not to paper over it.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	io.Copy(io.Discard, io.LimitReader(res.Body, 1<<10))
	if res.StatusCode != http.StatusOK {
		return protocolErrorf("health check returned %s", res.Status)
	}
	return nil
}

// Ready checks /readyz, returning nil while the server is admitting new
// evaluation work; a draining or saturated server answers 503. Like
// Health, it is never retried.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return err
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(res.Body, 1<<10))
	if res.StatusCode != http.StatusOK {
		return protocolErrorf("not ready: %s (%s)", res.Status, bytes.TrimSpace(data))
	}
	return nil
}

// maxResponseBytes bounds how much of a response the client will read.
// Reads that hit the bound fail loudly instead of silently truncating —
// a truncated JSON document would otherwise surface as a confusing
// decode error.
const maxResponseBytes = 64 << 20

// doJSON executes an idempotent JSON request under the client's retry
// policy and decodes the answer into out. The request body, when
// non-nil, is replayed verbatim on every attempt.
func (c *Client) doJSON(ctx context.Context, method, url string, body []byte, out any) error {
	for attempt := 0; ; attempt++ {
		err := c.once(ctx, method, url, body, out)
		if err == nil {
			return nil
		}
		if !retriable(err) || attempt >= c.retries {
			return err
		}
		if sleepCtx(ctx, c.backoff(attempt, err)) != nil {
			return err
		}
	}
}

// once is a single request attempt: non-2xx answers become typed
// *ServerError values carrying the server's message, code and
// Retry-After hint.
func (c *Client) once(ctx context.Context, method, url string, body []byte, out any) error {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, reader)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(io.LimitReader(res.Body, maxResponseBytes+1))
	if err != nil {
		return err
	}
	if len(data) > maxResponseBytes {
		return protocolErrorf("response exceeds %d bytes; split the batch", maxResponseBytes)
	}
	if res.StatusCode != http.StatusOK {
		return decodeError(res, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

// decodeError builds the typed *ServerError of a non-2xx response.
func decodeError(res *http.Response, body []byte) error {
	se := &ServerError{Status: res.StatusCode}
	var e probeserve.ErrorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		se.Message, se.Code = e.Error, e.Code
		if e.RetryAfterMS > 0 {
			se.RetryAfter = time.Duration(e.RetryAfterMS) * time.Millisecond
		}
	}
	if se.RetryAfter == 0 {
		if secs, err := time.ParseDuration(res.Header.Get("Retry-After") + "s"); err == nil && secs > 0 {
			se.RetryAfter = secs
		}
	}
	return se
}
