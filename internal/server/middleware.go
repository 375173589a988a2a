package server

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"time"

	"pipecache/internal/obs"
)

// statusWriter records the status code and body size a handler produced.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// Instrument returns the endpoint middleware shared by the serving tiers
// (the backend passes "server", the coordinator "cluster"): request
// counting, a per-endpoint latency histogram, an optional request-timeout
// deadline (zero means none), panic recovery, and structured access
// logging. Every metric is named under prefix — <prefix>.req.<name>,
// <prefix>.requests, <prefix>.latency_seconds.<name>, <prefix>.panics,
// and <prefix>.status.<N>xx.
func Instrument(prefix string, reg *obs.Registry, logger *log.Logger, timeout time.Duration) func(name string, h http.HandlerFunc) http.Handler {
	requests, panics := prefix+".requests", prefix+".panics"
	return func(name string, h http.HandlerFunc) http.Handler {
		reqs := reg.Counter(prefix + ".req." + name)
		latency := prefix + ".latency_seconds." + name
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			reqs.Inc()
			reg.Counter(requests).Inc()
			stop := reg.Time(latency)
			start := time.Now()
			sw := &statusWriter{ResponseWriter: w}

			ctx := r.Context()
			if timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, timeout)
				defer cancel()
			}

			defer func() {
				if p := recover(); p != nil {
					reg.Counter(panics).Inc()
					logger.Printf("panic in %s %s: %v", r.Method, r.URL.Path, p)
					if sw.code == 0 {
						http.Error(sw, "internal error", http.StatusInternalServerError)
					}
				}
				stop()
				code := sw.code
				if code == 0 {
					code = http.StatusOK
				}
				reg.Counter(fmt.Sprintf("%s.status.%dxx", prefix, code/100)).Inc()
				logger.Printf("%s %s %d %dB %s", r.Method, r.URL.Path, code, sw.bytes, time.Since(start).Round(time.Microsecond))
			}()

			h(sw, r.WithContext(ctx))
		})
	}
}
