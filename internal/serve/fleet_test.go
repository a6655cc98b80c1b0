package serve

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"multiscalar/internal/dist"
	"multiscalar/internal/grid"
	"multiscalar/internal/obs/span"
	"multiscalar/internal/sim"
)

// TestFleetBadRequests: the worker protocol decodes as strictly as every
// other route — unknown fields, trailing data, and incomplete messages get
// a structured 400 before the scheduler sees them — and answers structured
// 404s without a fleet and 405s for the wrong method.
func TestFleetBadRequests(t *testing.T) {
	sched := dist.NewScheduler(dist.SchedOptions{})
	defer sched.Close()
	srv, _ := newTestServer(t, grid.Options{Workers: 1}, Config{Fleet: sched})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct{ name, path, body string }{
		{"register unknown field", "/v1/dist/register", `{"hint":"h","bogus":1}`},
		{"register trailing data", "/v1/dist/register", `{"hint":"h"} {"hint":"again"}`},
		{"pull unknown field", "/v1/dist/pull", `{"worker":"w1","bogus":1}`},
		{"pull trailing data", "/v1/dist/pull", `{"worker":"w1"} {}`},
		{"pull missing worker", "/v1/dist/pull", `{}`},
		{"report malformed json", "/v1/dist/report", `{"worker":`},
		{"report missing worker", "/v1/dist/report", `{"key":"k","error":"boom"}`},
		{"report missing key", "/v1/dist/report", `{"worker":"w1","error":"boom"}`},
		{"report without outcome", "/v1/dist/report", `{"worker":"w1","key":"k"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.Client(), ts.URL+tc.path, tc.body)
			var eb ErrorBody
			if err := json.Unmarshal([]byte(body), &eb); err != nil {
				t.Fatalf("error body not structured: %q (%v)", body, err)
			}
			if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "invalid_request" {
				t.Errorf("status %d code %q, want 400 invalid_request (message %q)",
					resp.StatusCode, eb.Error.Code, eb.Error.Message)
			}
		})
	}
	if n := sched.Stats().RemoteWorkers; n != 0 {
		t.Errorf("rejected registrations reached the scheduler (%d workers)", n)
	}

	resp, body := getBody(t, ts.Client(), ts.URL+"/v1/dist/pull")
	if resp.StatusCode != http.StatusMethodNotAllowed || !strings.Contains(body, "method_not_allowed") ||
		resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET /v1/dist/pull = %d %q (Allow %q), want structured 405", resp.StatusCode, body, resp.Header.Get("Allow"))
	}

	plain, _ := newTestServer(t, grid.Options{Workers: 1}, Config{})
	ts2 := httptest.NewServer(plain.Handler())
	defer ts2.Close()
	for _, path := range []string{"/v1/dist/register", "/v1/dist/pull", "/v1/dist/report"} {
		resp, body := postJSON(t, ts2.Client(), ts2.URL+path, `{}`)
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, "not_found") {
			t.Errorf("%s without a fleet = %d %q, want structured 404", path, resp.StatusCode, body)
		}
	}
}

// TestLeaderHealthzCountsWorkers: a leader's /healthz counts the remote
// workers registered with its fleet.
func TestLeaderHealthzCountsWorkers(t *testing.T) {
	sched := dist.NewScheduler(dist.SchedOptions{})
	defer sched.Close()
	srv, _ := newTestServer(t, grid.Options{Workers: 1}, Config{Fleet: sched})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	health := func() HealthResponse {
		t.Helper()
		_, body := getBody(t, ts.Client(), ts.URL+"/healthz")
		var h HealthResponse
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatal(err)
		}
		if h.Backend == nil {
			t.Fatalf("leader healthz has no backend block: %s", body)
		}
		return h
	}
	if n := health().Backend.DistWorkers; n != 0 {
		t.Errorf("dist_workers = %d before any registration, want 0", n)
	}
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/dist/register", `{"hint":"test"}`)
		var reg dist.RegisterResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal([]byte(body), &reg) != nil || reg.Worker == "" {
			t.Fatalf("register = %d %q", resp.StatusCode, body)
		}
	}
	if n := health().Backend.DistWorkers; n != 2 {
		t.Errorf("dist_workers = %d after two registrations, want 2", n)
	}
}

// TestTracedFleetOpensNoRequestSpans: on a traced leader, the worker
// protocol opens no serve.request spans — every idle long-poll would
// otherwise become its own trace in the flight recorder — while the
// worker's cache traffic on the same server is still traced.
func TestTracedFleetOpensNoRequestSpans(t *testing.T) {
	fastSim(t)
	tr := span.New(span.Options{Process: "leader", Ring: 4096})
	sched := dist.NewScheduler(dist.SchedOptions{Tracer: tr})
	cache := dist.NewTiered(dist.NewLRU(64))
	eng := grid.New(grid.Options{Workers: 1, Cache: cache, Dispatcher: sched})
	srv := New(Config{Engine: eng, Cache: cache, Fleet: sched, Tracer: tr})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	w, err := dist.NewWorker(dist.WorkerOptions{
		Leader:       ts.URL,
		Engine:       grid.New(grid.Options{Workers: 1, Cache: dist.NewTiered(dist.NewRemoteCache(ts.URL, dist.RemoteOptions{}))}),
		PollInterval: time.Millisecond,
		Logger:       log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(context.Background()) }()

	ctx, root := tr.StartRoot(context.Background(), "sweep")
	for _, pus := range []int{2, 4} {
		if _, err := eng.RunCtx(ctx, grid.Job{Workload: "fpppp", Config: sim.DefaultConfig(pus)}); err != nil {
			t.Fatal(err)
		}
	}
	root.End(nil)
	sched.Close()
	if err := <-workerDone; err != nil {
		t.Fatalf("worker exited with %v", err)
	}
	if st := w.Stats(); st.Jobs != 2 {
		t.Fatalf("worker executed %d jobs, want 2", st.Jobs)
	}

	waitFor(t, "the sweep trace", func() bool { return tr.Recorder().Get(root.TraceID()) != nil })
	paths := map[string]int{}
	for _, td := range tr.Recorder().List(span.Filter{Limit: 1 << 20}) {
		for _, s := range td.Spans {
			if s.Name == "serve.request" {
				paths[s.Attrs["path"]]++
			}
		}
	}
	cacheSpans := 0
	for path, n := range paths {
		if strings.HasPrefix(path, "/v1/dist/") {
			t.Errorf("%d serve.request spans for %s", n, path)
		}
		if strings.HasPrefix(path, "/v1/cache/") {
			cacheSpans += n
		}
	}
	if cacheSpans == 0 {
		t.Errorf("no serve.request spans for the worker's cache traffic (got %v); the check has no teeth", paths)
	}
}
