// Package coord is the fault-tolerant scheduler behind every pimbench
// worker fleet — the `pimbench coord` batch run and the `pimbench
// serve` daemon alike. Pool dispatches distinct jobs, one at a time
// per worker, to a fleet that may grow and shrink while it runs,
// retries jobs from crashed or erroring workers on the survivors (the
// failed worker excluded per job, a bounded attempt budget per job,
// an adaptive backoff per worker) and delivers every settled job to
// its own callback as it lands. Workers are `pimbench work`
// subprocesses speaking a line-delimited JSON protocol over
// stdin/stdout (ProcWorker, Serve) or in-process Worker values.
//
// The wire protocol (one JSON value per line, worker side implemented
// by Serve):
//
//	worker -> coordinator  {"type":"hello","distinct":-1}
//	coordinator -> worker  {"type":"job","key":K,"fp":F,"spec":{"exp":E,"scale":S,"seed":N,"overrides":O}}
//	worker -> coordinator  {"type":"result","key":K,"fp":F,"result":{...},"error":""}
//	coordinator -> worker  {"type":"bye"}        (or stdin EOF)
//
// A worker plans nothing at startup. Each job carries its spec, the
// request the job was planned from, and the worker derives that plan
// itself (planning is deterministic, so both sides compute identical
// fingerprints) and memoizes it across jobs; it then runs the job
// planned under the frame's fingerprint. A fingerprint the worker's
// plan does not contain — version or flag skew between the two sides —
// comes back as a job-level "unknown fingerprint" error instead of a
// wrong point. Results travel back as the same system.Result JSON the
// result cache persists. The hello's distinct field is always
// DynamicDistinct; StartProc rejects a worker announcing anything
// else (a binary that still speaks the retired startup-plan protocol).
package coord

import (
	"encoding/json"
	"fmt"

	"bulkpim/internal/system"
)

// DynamicDistinct is the hello distinct-count every worker announces:
// it plans per job spec, so it has no startup plan to skew.
const DynamicDistinct = -1

// JobSpec is a job's full identity: the request parameters a worker
// needs to re-derive the plan a fingerprint belongs to. Overrides
// carries the request's raw config-override JSON (empty for none) so
// the worker reproduces the exact mutated Config.
type JobSpec struct {
	Exp       string `json:"exp"`
	Scale     string `json:"scale"`
	Seed      uint64 `json:"seed,omitempty"`
	Overrides string `json:"overrides,omitempty"`
}

// helloMsg is the worker's startup handshake.
type helloMsg struct {
	Type     string `json:"type"` // "hello"
	Distinct int    `json:"distinct"`
}

// request is a coordinator-to-worker message.
type request struct {
	Type        string   `json:"type"` // "job" or "bye"
	Key         string   `json:"key,omitempty"`
	Fingerprint string   `json:"fp,omitempty"`
	Spec        *JobSpec `json:"spec,omitempty"`
}

// readRequest decodes and validates the next coordinator-to-worker
// frame. io.EOF passes through untouched (it is the coordinator
// hanging up, not a protocol error); any other decode failure or an
// unknown frame type is an error.
func readRequest(dec *json.Decoder) (request, error) {
	var req request
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	switch req.Type {
	case "job", "bye":
		return req, nil
	default:
		return req, fmt.Errorf("unknown request type %q", req.Type)
	}
}

// readResponse decodes and validates the next worker-to-coordinator
// frame; anything but a well-formed result frame is an error.
func readResponse(dec *json.Decoder) (response, error) {
	var resp response
	if err := dec.Decode(&resp); err != nil {
		return resp, err
	}
	if resp.Type != "result" {
		return resp, fmt.Errorf("unknown response type %q", resp.Type)
	}
	return resp, nil
}

// response is a worker-to-coordinator job outcome. Error carries a
// job-level failure; the worker itself stays available.
type response struct {
	Type        string        `json:"type"` // "result"
	Key         string        `json:"key"`
	Fingerprint string        `json:"fp"`
	Result      system.Result `json:"result"`
	Error       string        `json:"error,omitempty"`
}
