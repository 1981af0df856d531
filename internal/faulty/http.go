package faulty

import (
	"io"
	"strings"
	"time"
)

// HTTPFault is one misbehaving-client scenario against the serving daemon's
// eval routes, paired with the typed response the serving contract requires:
// a documented HTTP status carrying a JSON error body whose class names an
// errs sentinel — never a panic, never a 200, never a hung connection.
//
// WantStatus 0 marks a fault whose failure is client-side (the client
// cancels and never sees a response); the matrix then asserts the transport
// error and that the server stays healthy for the next request.
type HTTPFault struct {
	Name        string
	ContentType string
	// Body builds a fresh request body per attempt (bodies are one-shot).
	Body func() io.Reader
	// Timeout is the ?timeout_ms to request; 0 keeps the server default.
	Timeout time.Duration
	// CancelAfter, when positive, cancels the request context mid-flight.
	CancelAfter time.Duration
	WantStatus  int
	// WantClass is the obs.ErrClass the JSON error body must carry.
	WantClass string
}

// slowReader trickles its payload one byte per read with a pause before
// each, modelling a client stalled mid-upload.  The serving side must bound
// it with the request deadline, not wait for the body forever.
type slowReader struct {
	data []byte
	gap  time.Duration
}

func (s *slowReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	time.Sleep(s.gap)
	p[0] = s.data[0]
	s.data = s.data[1:]
	return 1, nil
}

// SlowBody returns a reader that delivers data one byte at a time with gap
// between bytes.
func SlowBody(data []byte, gap time.Duration) io.Reader {
	return &slowReader{data: data, gap: gap}
}

// stalledReader delivers head in one read, then pauses before every later
// read (tail, then io.EOF): a client that sends its whole JSON document and
// then stalls mid-body before the tail.
type stalledReader struct {
	head, tail []byte
	stall      time.Duration
}

func (s *stalledReader) Read(p []byte) (int, error) {
	if len(s.head) > 0 {
		n := copy(p, s.head)
		s.head = s.head[n:]
		return n, nil
	}
	time.Sleep(s.stall)
	if len(s.tail) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.tail)
	s.tail = s.tail[n:]
	return n, nil
}

// HTTPFaults returns the serving fault matrix.  The classify and transform
// routes share a decode path, so the matrix applies to both.
func HTTPFaults() []HTTPFault {
	const jsonCT = "application/json"
	str := func(s string) func() io.Reader {
		return func() io.Reader { return strings.NewReader(s) }
	}
	return []HTTPFault{
		{
			Name:        "truncated-json",
			ContentType: jsonCT,
			Body:        str(`{"instances":[[1.0,2.0,`),
			WantStatus:  400,
			WantClass:   "bad-input",
		},
		{
			Name:        "empty-body",
			ContentType: jsonCT,
			Body:        str(""),
			WantStatus:  400,
			WantClass:   "bad-input",
		},
		{
			Name:        "trailing-garbage",
			ContentType: jsonCT,
			Body:        str(`{"instances":[[1.0,2.0]]} & more`),
			WantStatus:  400,
			WantClass:   "bad-input",
		},
		{
			Name:        "unknown-field",
			ContentType: jsonCT,
			Body:        str(`{"instanzes":[[1.0,2.0]]}`),
			WantStatus:  400,
			WantClass:   "bad-input",
		},
		{
			Name:        "nonfinite-value",
			ContentType: jsonCT,
			Body:        str(`{"instances":[[1.0,1e999]]}`),
			WantStatus:  400,
			WantClass:   "bad-input",
		},
		{
			Name:        "empty-instance",
			ContentType: jsonCT,
			Body:        str(`{"instances":[[]]}`),
			WantStatus:  400,
			WantClass:   "bad-input",
		},
		{
			Name:        "wrong-content-type",
			ContentType: "text/plain",
			Body:        str(`{"instances":[[1.0,2.0]]}`),
			WantStatus:  400,
			WantClass:   "bad-input",
		},
		{
			Name:        "truncated-tsv",
			ContentType: "text/tab-separated-values",
			Body:        str("0\t1.5\t2.5\t0.5\n0\t1.7\t2e"),
			WantStatus:  400,
			WantClass:   "bad-input",
		},
		{
			// The body trickles slower than the requested deadline allows:
			// the ctx-checking body reader must trip the deadline and answer
			// 504 instead of waiting out the upload.
			Name:        "slow-client",
			ContentType: jsonCT,
			Body: func() io.Reader {
				return SlowBody([]byte(`{"instances":[[1.0,2.0,3.0,4.0]]}`), 40*time.Millisecond)
			},
			Timeout:    150 * time.Millisecond,
			WantStatus: 504,
			WantClass:  "canceled",
		},
		{
			// The whole JSON document arrives, then the body's tail stalls
			// past the deadline: the deadline firing during the
			// trailing-data check is a 504, not a malformed body.
			Name:        "stalled-tail",
			ContentType: jsonCT,
			Body: func() io.Reader {
				return &stalledReader{head: []byte(`{"instances":[[1.0,2.0,3.0,4.0]]}`), tail: []byte("\n"), stall: 300 * time.Millisecond}
			},
			Timeout:    100 * time.Millisecond,
			WantStatus: 504,
			WantClass:  "canceled",
		},
		{
			// The client hangs up mid-upload.  No response reaches it (the
			// transport reports the cancellation); the server must shrug the
			// request off and stay healthy.
			Name:        "canceled-request",
			ContentType: jsonCT,
			Body: func() io.Reader {
				return SlowBody([]byte(`{"instances":[[1.0,2.0,3.0,4.0]]}`), 40*time.Millisecond)
			},
			CancelAfter: 100 * time.Millisecond,
			WantStatus:  0,
		},
	}
}
