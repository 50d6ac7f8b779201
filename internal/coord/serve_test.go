package coord

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"bulkpim/internal/system"
)

// serveConn drives Serve over in-memory pipes, mimicking the
// coordinator side of the protocol.
type serveConn struct {
	t    *testing.T
	enc  *json.Encoder
	dec  *json.Decoder
	done chan error
}

func startServe(t *testing.T, o ServeOptions) *serveConn {
	t.Helper()
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	c := &serveConn{t: t, enc: json.NewEncoder(reqW), dec: json.NewDecoder(respR), done: make(chan error, 1)}
	go func() {
		c.done <- Serve(reqR, respW, o)
		respW.Close()
	}()
	var h helloMsg
	if err := c.dec.Decode(&h); err != nil || h.Type != "hello" {
		t.Fatalf("no hello: %+v, %v", h, err)
	}
	if h.Distinct != DynamicDistinct {
		t.Fatalf("hello distinct = %d, want %d", h.Distinct, DynamicDistinct)
	}
	return c
}

// testSpec is the spec every test job frame carries.
var testSpec = &JobSpec{Exp: "fig3", Scale: "smoke"}

func (c *serveConn) job(key, fp string) response {
	c.t.Helper()
	if err := c.enc.Encode(request{Type: "job", Key: key, Fingerprint: fp, Spec: testSpec}); err != nil {
		c.t.Fatal(err)
	}
	var resp response
	if err := c.dec.Decode(&resp); err != nil {
		c.t.Fatal(err)
	}
	return resp
}

// TestServeProtocol: hello handshake, job execution with the frame's
// spec, job-level errors in result frames (a failing job and a
// spec-less frame alike), and a clean bye.
func TestServeProtocol(t *testing.T) {
	c := startServe(t, ServeOptions{
		Execute: func(spec JobSpec, key, fp string) (system.Result, error) {
			if spec != *testSpec {
				return system.Result{}, errors.New("spec lost in transit")
			}
			if fp == "bad" {
				return system.Result{}, errors.New("sim exploded")
			}
			return system.Result{Cycles: 99}, nil
		},
	})
	resp := c.job("k1", "f1")
	if resp.Type != "result" || resp.Key != "k1" || resp.Fingerprint != "f1" ||
		resp.Error != "" || resp.Result.Cycles != 99 {
		t.Fatalf("result frame %+v", resp)
	}
	resp = c.job("k2", "bad")
	if resp.Error != "sim exploded" {
		t.Fatalf("job error not in result frame: %+v", resp)
	}
	// A job error must not kill the worker.
	if resp = c.job("k3", "f3"); resp.Result.Cycles != 99 {
		t.Fatalf("worker dead after job error: %+v", resp)
	}
	// Neither does a spec-less frame: it fails as a job.
	if err := c.enc.Encode(request{Type: "job", Key: "k4", Fingerprint: "f4"}); err != nil {
		t.Fatal(err)
	}
	if err := c.dec.Decode(&resp); err != nil || resp.Fingerprint != "f4" ||
		!strings.Contains(resp.Error, "no spec") {
		t.Fatalf("spec-less frame: %+v, %v", resp, err)
	}
	if resp = c.job("k5", "f5"); resp.Result.Cycles != 99 {
		t.Fatalf("worker dead after spec-less frame: %+v", resp)
	}
	if err := c.enc.Encode(request{Type: "bye"}); err != nil {
		t.Fatal(err)
	}
	if err := <-c.done; err != nil {
		t.Fatalf("bye: %v", err)
	}
}

// TestServeFailAfter: the crash-injection hook serves exactly N jobs,
// then dies on the next request without replying.
func TestServeFailAfter(t *testing.T) {
	failed := make(chan struct{})
	c := startServe(t, ServeOptions{
		Execute: func(JobSpec, string, string) (system.Result, error) {
			return system.Result{Cycles: 1}, nil
		},
		FailAfter: 2,
		Fail:      func() { close(failed) },
	})
	c.job("k1", "f1")
	c.job("k2", "f2")
	if err := c.enc.Encode(request{Type: "job", Key: "k3", Fingerprint: "f3", Spec: testSpec}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-failed:
	case <-time.After(5 * time.Second):
		t.Fatal("Fail hook not invoked on the job after -fail-after")
	}
	if err := <-c.done; err == nil || !strings.Contains(err.Error(), "fail-after") {
		t.Fatalf("crashed Serve error = %v", err)
	}
	// The in-flight job got no reply: the response stream ends.
	var resp response
	if err := c.dec.Decode(&resp); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF after crash, got %+v, %v", resp, err)
	}
}

// TestServeEOF: stdin EOF (coordinator gone) is a clean exit.
func TestServeEOF(t *testing.T) {
	var out bytes.Buffer
	if err := Serve(strings.NewReader(""), &out, ServeOptions{
		Execute: func(JobSpec, string, string) (system.Result, error) { return system.Result{}, nil },
	}); err != nil {
		t.Fatalf("EOF must be clean: %v", err)
	}
}

// TestServeUnknownType: a desynchronized stream is fatal for the
// worker (continuing could execute wrong work).
func TestServeUnknownType(t *testing.T) {
	var out bytes.Buffer
	err := Serve(strings.NewReader(`{"type":"frobnicate"}`+"\n"), &out, ServeOptions{
		Execute: func(JobSpec, string, string) (system.Result, error) { return system.Result{}, nil },
	})
	if err == nil || !strings.Contains(err.Error(), "unknown request type") {
		t.Fatalf("err = %v", err)
	}
}
