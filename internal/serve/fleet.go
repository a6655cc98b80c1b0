package serve

import (
	"net/http"
	"time"

	"multiscalar/internal/dist"
)

// pullWait bounds how long /v1/dist/pull holds an empty request open
// waiting for work before answering "none". Long-polling keeps idle workers
// off the network without delaying fresh jobs.
const pullWait = 500 * time.Millisecond

func (s *Server) handleDistRegister(w http.ResponseWriter, r *http.Request) {
	if _, ok := decode[dist.RegisterRequest](w, r, s.cfg.MaxBodyBytes); !ok {
		return
	}
	name, home, lease := s.cfg.Fleet.Register(true)
	s.log.Info("dist_register", "worker", name, "home", home)
	writeJSON(w, http.StatusOK, dist.RegisterResponse{
		Worker: name, Home: home, LeaseMS: lease.Milliseconds(),
	})
}

func (s *Server) handleDistPull(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[dist.PullRequest](w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, "invalid_request", "missing worker name")
		return
	}
	// Long-poll: retry the scheduler at a short cadence until work appears,
	// the run closes, the poll window expires, or the worker hangs up.
	deadline := time.NewTimer(pullWait)
	defer deadline.Stop()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		key, job, sc, ok, closed := s.cfg.Fleet.Pull(req.Worker)
		switch {
		case closed:
			writeJSON(w, http.StatusOK, dist.PullResponse{Closed: true})
			return
		case ok:
			resp := dist.PullResponse{Key: key, Job: &job}
			if sc.Valid() {
				resp.Trace = &sc
			}
			writeJSON(w, http.StatusOK, resp)
			return
		}
		select {
		case <-tick.C:
		case <-deadline.C:
			writeJSON(w, http.StatusOK, dist.PullResponse{None: true})
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleDistReport(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[dist.ReportRequest](w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	if req.Worker == "" || req.Key == "" {
		writeError(w, http.StatusBadRequest, "invalid_request", "missing worker or key")
		return
	}
	if req.Result == nil && req.Error == "" {
		writeError(w, http.StatusBadRequest, "invalid_request", "report carries neither result nor error")
		return
	}
	// Ingest spans BEFORE completing the job: Report unblocks the Dispatch
	// waiter, which ends the dispatch span and may finalize the whole trace
	// — the worker's spans must already be merged by then.
	s.tracer.Ingest(req.Spans)
	s.cfg.Fleet.Report(req.Worker, req.Key, req.Result, req.Error)
	w.WriteHeader(http.StatusNoContent)
}
