package coord

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"
)

// The wire protocol ingests bytes from subprocess pipes (possibly an
// ssh hop away), so the decoders must reject arbitrary garbage with an
// error — never a panic, never an accepted frame of an unknown type.

func FuzzProtoRequest(f *testing.F) {
	f.Add([]byte(`{"type":"job","key":"fig1/base","fp":"abc123"}` + "\n"))
	f.Add([]byte(`{"type":"job","key":"k","fp":"f","spec":{"exp":"fig3","scale":"smoke","seed":7,"overrides":"{\"Cores\":2}"}}` + "\n"))
	f.Add([]byte(`{"type":"bye"}` + "\n"))
	f.Add([]byte(`{"type":"hello","distinct":3}` + "\n"))
	f.Add([]byte(`{"type":"job"`))
	f.Add([]byte("\x00\xff{"))
	f.Add([]byte(`{"type":"job","spec":{"exp":1e999}}`))
	f.Add([]byte(`[]{"type":"bye"}`))
	// A spec-less job frame decodes; Serve fails it as a job.
	f.Add([]byte(`{"type":"job","key":"k","fp":"f","spec":null}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		// Drain the stream like Serve does: frames until EOF or the
		// first malformed/unknown frame. Each iteration consumes input
		// or stops, so the loop is bounded by len(data).
		for {
			req, err := readRequest(dec)
			if err != nil {
				if !errors.Is(err, io.EOF) && err.Error() == "" {
					t.Fatalf("empty error for malformed frame")
				}
				return
			}
			if req.Type != "job" && req.Type != "bye" {
				t.Fatalf("accepted unknown frame type %q", req.Type)
			}
		}
	})
}

func FuzzProtoResponse(f *testing.F) {
	f.Add([]byte(`{"type":"result","key":"k","fp":"f","result":{"cycles":12,"seconds":0.5,"stats":{"x":1}}}` + "\n"))
	f.Add([]byte(`{"type":"result","key":"k","fp":"f","error":"boom"}` + "\n"))
	f.Add([]byte(`{"type":"hello","distinct":-1}` + "\n"))
	f.Add([]byte(`{"type":"result","result":{"stats":`))
	f.Add([]byte(`nullnull`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		for {
			resp, err := readResponse(dec)
			if err != nil {
				if !errors.Is(err, io.EOF) && err.Error() == "" {
					t.Fatalf("empty error for malformed frame")
				}
				return
			}
			if resp.Type != "result" {
				t.Fatalf("accepted unknown frame type %q", resp.Type)
			}
		}
	})
}
