package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"pipecache/internal/core"
	"pipecache/internal/gen"
	"pipecache/internal/obs"
)

// benchInsts is the per-benchmark instruction budget of every lab the
// benchmark builds: the default 16-benchmark suite at 200k instructions
// makes a cold /v1/best cost well under a second.
const benchInsts = 200_000

// benchParams returns the lab parameters shared by every workload.
func benchParams() core.Params {
	p := core.DefaultParams()
	p.Insts = benchInsts
	return p
}

// buildSuite synthesizes the default Table 1 suite.
func buildSuite() (*core.Suite, error) { return core.BuildSuite(gen.Table1()) }

// newLab builds a lab over suite with its own metric registry.
func newLab(suite *core.Suite) (*core.Lab, *obs.Registry, error) {
	lab, err := core.NewLab(suite, benchParams())
	if err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry()
	lab.SetObs(reg)
	return lab, reg, nil
}

// loopback is one HTTP server on a fresh 127.0.0.1 port, run by serve
// until stop is called; stop returns once the serve goroutine has exited.
type loopback struct {
	url    string
	cancel context.CancelFunc
	done   chan error
}

// serveHTTP serves h on a loopback port with a plain http.Server.
func serveHTTP(h http.Handler) (*loopback, error) {
	return serveWith(func(ctx context.Context, ln net.Listener) error {
		hs := &http.Server{Handler: h}
		go func() {
			<-ctx.Done()
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			hs.Shutdown(sctx)
		}()
		if err := hs.Serve(ln); err != http.ErrServerClosed {
			return err
		}
		return nil
	})
}

// serveWith runs serve(ctx, ln) on a loopback listener; serve must return
// once ctx is cancelled.
func serveWith(serve func(ctx context.Context, ln net.Listener) error) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	lb := &loopback{url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { lb.done <- serve(ctx, ln) }()
	return lb, nil
}

func (lb *loopback) stop() error {
	lb.cancel()
	return <-lb.done
}

// response is one HTTP reply as the benchmark checks it.
type response struct {
	status int
	body   []byte
	etag   string
	xcache string
}

// client is one closed-loop caller: it owns its keep-alive connections and
// waits for each reply before sending the next request.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
}

// post sends body and reads the whole reply; the latency runs from send to
// the last body byte.
func (c *client) post(url string, body []byte, header http.Header) (response, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return response{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header[k] = v
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return response{}, 0, err
	}
	return response{status: resp.StatusCode, body: b, etag: resp.Header.Get("ETag"), xcache: resp.Header.Get("X-Cache")}, lat, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// record answers one request in-process through h; the reference servers
// of the output checks need no listener.
func record(h http.Handler, path string, body []byte) response {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return response{status: rec.Code, body: rec.Body.Bytes(), etag: rec.Header().Get("ETag"), xcache: rec.Header().Get("X-Cache")}
}

// sameReply reports why got differs from the reference reply want, or ""
// when the bodies are byte-identical under the same strong ETag.
func sameReply(got, want response) string {
	switch {
	case want.status != http.StatusOK:
		return fmt.Sprintf("reference answered %d", want.status)
	case got.status != http.StatusOK:
		return fmt.Sprintf("status %d", got.status)
	case !bytes.Equal(got.body, want.body):
		return "body differs from reference"
	case got.etag != want.etag:
		return fmt.Sprintf("etag %s, reference %s", got.etag, want.etag)
	}
	return ""
}

// counters returns a copy of the registry's counter totals.
func counters(reg *obs.Registry) map[string]int64 { return reg.Snapshot().Counters }

// delta returns after-before for one counter.
func delta(after, before map[string]int64, name string) int64 { return after[name] - before[name] }

// simDigest hashes the simulated cache and BTB counters accumulated between
// two snapshots (before may be nil). Simulation is deterministic, so equal
// work must give equal digests on every op and in every run.
func simDigest(after, before map[string]int64) string {
	var keys []string
	for k := range after {
		if strings.HasPrefix(k, "cache.") || strings.HasPrefix(k, "btb.") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, after[k]-before[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sumCounters adds every counter whose name has the prefix and suffix.
func sumCounters(m map[string]int64, prefix, suffix string) int64 {
	var n int64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			n += v
		}
	}
	return n
}
