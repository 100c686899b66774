package main

// The load generator's HTTP side: one transport per run, capped at the
// machine's core count in connections.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// requestIDHeader carries the load generator's request id, so the traced
// run can join its client-side spans with the daemon-side handler span.
const requestIDHeader = "X-Bench-Request"

var (
	transportsMu sync.Mutex
	transports   []*http.Transport
	nextReqID    atomic.Int64
)

// newClient returns a client whose transport opens at most
// runtime.NumCPU() connections.
func newClient() *http.Client {
	n := runtime.NumCPU()
	t := &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}
	transportsMu.Lock()
	transports = append(transports, t)
	transportsMu.Unlock()
	return &http.Client{Transport: t}
}

// closeClients drops every idle keep-alive connection the run opened.
func closeClients() {
	transportsMu.Lock()
	defer transportsMu.Unlock()
	for _, t := range transports {
		t.CloseIdleConnections()
	}
}

// httpError is a non-2xx answer.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// call is one finished request.
type call struct {
	id      int64
	start   time.Time
	latency time.Duration
	body    []byte
}

// do sends one request and reads the whole answer. A non-2xx status is
// an *httpError.
func do(ctx context.Context, c *http.Client, method, url, ctype string, body []byte) (call, error) {
	cl := call{id: nextReqID.Add(1)}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return cl, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	req.Header.Set(requestIDHeader, strconv.FormatInt(cl.id, 10))
	cl.start = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return cl, err
	}
	cl.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	cl.latency = time.Since(cl.start)
	if err != nil {
		return cl, err
	}
	if resp.StatusCode/100 != 2 {
		return cl, &httpError{status: resp.StatusCode, body: string(bytes.TrimSpace(cl.body))}
	}
	return cl, nil
}

// doJSON marshals in (when non-nil), sends it and decodes the answer
// into out (when non-nil).
func doJSON(ctx context.Context, c *http.Client, method, url string, in, out any) (call, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return call{}, err
		}
	}
	cl, err := do(ctx, c, method, url, "application/json", body)
	if err != nil {
		return cl, err
	}
	if out != nil {
		if err := json.Unmarshal(cl.body, out); err != nil {
			return cl, fmt.Errorf("decode %s %s: %w", method, url, err)
		}
	}
	return cl, nil
}
