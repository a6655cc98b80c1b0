package dist

import (
	"multiscalar/internal/grid"
	"multiscalar/internal/obs/span"
	"multiscalar/internal/sim"
)

// Wire types of the worker protocol, served by package serve at
// POST /v1/dist/register, /v1/dist/pull, and /v1/dist/report. grid.Job
// marshals directly — both of its option structs are plain exported data.

// RegisterRequest announces a worker to the leader.
type RegisterRequest struct {
	// Hint is a free-form label the worker offers (host:pid); the leader
	// assigns the authoritative name.
	Hint string `json:"hint,omitempty"`
}

// RegisterResponse carries the worker's assigned identity and lease terms.
type RegisterResponse struct {
	Worker  string `json:"worker"`
	Home    int    `json:"home"`
	LeaseMS int64  `json:"lease_ms"`
}

// PullRequest asks for the next job.
type PullRequest struct {
	Worker string `json:"worker"`
}

// PullResponse is one of three answers: a job, "nothing right now", or
// "the run is over — exit". Trace, when present, is the dispatching
// request's span context: the worker parents its execution spans under it
// so one trace covers the job end to end.
type PullResponse struct {
	Key    string            `json:"key,omitempty"`
	Job    *grid.Job         `json:"job,omitempty"`
	Trace  *span.SpanContext `json:"trace,omitempty"`
	None   bool              `json:"none,omitempty"`
	Closed bool              `json:"closed,omitempty"`
}

// ReportRequest delivers one finished job, plus any trace spans the worker
// recorded while executing it (empty when either side is untraced).
type ReportRequest struct {
	Worker string          `json:"worker"`
	Key    string          `json:"key"`
	Result *sim.Result     `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	Spans  []span.SpanData `json:"spans,omitempty"`
}
