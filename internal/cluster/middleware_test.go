package cluster_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pipecache/internal/cluster"
	"pipecache/internal/core"
	"pipecache/internal/obs"
	"pipecache/internal/server"
)

// panicOnceWriter is a ResponseWriter whose first Header call panics: the
// tier's own handler code then panics mid-request, before it has written
// anything, and the middleware must still answer.
type panicOnceWriter struct {
	*httptest.ResponseRecorder
	fired bool
}

func (w *panicOnceWriter) Header() http.Header {
	if !w.fired {
		w.fired = true
		panic("injected handler panic")
	}
	return w.ResponseRecorder.Header()
}

// TestMiddlewarePanicAnswers500 drives a panicking handler through both
// serving tiers' real routes: each must recover, answer 500, and count
// the panic and the 5xx under its own metric prefix.
func TestMiddlewarePanicAnswers500(t *testing.T) {
	tiers := []struct {
		prefix string
		build  func(t *testing.T) (http.Handler, *obs.Registry)
	}{
		{"server", func(t *testing.T) (http.Handler, *obs.Registry) {
			lab, err := core.NewLab(clusterSuite(t), clusterParams())
			if err != nil {
				t.Fatal(err)
			}
			lab.SetObs(obs.NewRegistry())
			srv, err := server.New(lab, server.Config{AccessLog: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			return srv.Handler(), srv.Registry()
		}},
		{"cluster", func(t *testing.T) (http.Handler, *obs.Registry) {
			c, err := cluster.New(cluster.Config{
				Shards:    []string{backend(t, clusterSuite(t)).URL},
				AccessLog: io.Discard,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			return c.Handler(), c.Registry()
		}},
	}
	for _, tier := range tiers {
		t.Run(tier.prefix, func(t *testing.T) {
			h, reg := tier.build(t)
			w := &panicOnceWriter{ResponseRecorder: httptest.NewRecorder()}
			h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
			if !w.fired {
				t.Fatal("handler never touched the response headers")
			}
			if w.Code != http.StatusInternalServerError {
				t.Errorf("status = %d, want 500", w.Code)
			}
			if !strings.Contains(w.Body.String(), "internal error") {
				t.Errorf("body = %q", w.Body)
			}
			for name, want := range map[string]int64{
				tier.prefix + ".panics":      1,
				tier.prefix + ".status.5xx":  1,
				tier.prefix + ".status.2xx":  0,
				tier.prefix + ".req.healthz": 1,
				tier.prefix + ".requests":    1,
			} {
				if got := reg.Counter(name).Value(); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
		})
	}
}
