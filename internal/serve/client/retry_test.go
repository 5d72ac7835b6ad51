package client

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/serve/proto"
	"parrot/internal/workload"
)

// canonicalResponse runs one tiny cell in-process and wraps it as the wire
// response a healthy parrotd would produce, so the client's digest
// verification passes on the real payload.
func canonicalResponse(t *testing.T) *proto.RunResponse {
	t.Helper()
	app, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	res := core.Run(config.Get(config.TON), app, 2000)
	return &proto.RunResponse{
		Digest:       experiments.RunSpec{Model: config.Get(config.TON), App: app, Insts: 2000}.Normalize().Digest(),
		Result:       res,
		ResultDigest: experiments.ResultDigest(res),
		Disposition:  "exact",
	}
}

// flakyServer fails the first failures requests with status (or a dropped
// connection when status == 0), then serves the canned response.
func flakyServer(t *testing.T, failures int, status int, resp *proto.RunResponse) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if int(n) <= failures {
			if status == 0 {
				// Hard transport failure: hijack and sever the connection.
				hj, ok := w.(http.Hijacker)
				if !ok {
					t.Fatal("recorder not hijackable")
				}
				conn, _, err := hj.Hijack()
				if err != nil {
					t.Fatal(err)
				}
				conn.Close()
				return
			}
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(proto.Error{Error: "transient"})
			return
		}
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(hs.Close)
	return hs, &calls
}

func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
}

func TestRunRetriesOn5xx(t *testing.T) {
	resp := canonicalResponse(t)
	hs, calls := flakyServer(t, 2, http.StatusServiceUnavailable, resp)

	c := New(hs.URL, WithRetry(fastRetry(4)))
	out, err := c.Run(context.Background(), proto.RunRequest{Model: "TON", App: "gzip", Insts: 2000})
	if err != nil {
		t.Fatalf("Run after two 503s: %v", err)
	}
	if out.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3 (two 503s + success)", out.Attempts)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d requests, want 3", calls.Load())
	}
	if out.Digest != resp.Digest {
		t.Fatalf("digest = %s, want %s", out.Digest, resp.Digest)
	}
}

func TestRunRetriesOnSeveredConnection(t *testing.T) {
	resp := canonicalResponse(t)
	hs, _ := flakyServer(t, 1, 0, resp)

	c := New(hs.URL, WithRetry(fastRetry(3)))
	out, err := c.Run(context.Background(), proto.RunRequest{Model: "TON", App: "gzip", Insts: 2000})
	if err != nil {
		t.Fatalf("Run after a dropped connection: %v", err)
	}
	if out.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", out.Attempts)
	}
}

func TestRunRetryBudgetExhausted(t *testing.T) {
	resp := canonicalResponse(t)
	hs, calls := flakyServer(t, 99, http.StatusServiceUnavailable, resp)

	c := New(hs.URL, WithRetry(fastRetry(3)))
	_, err := c.Run(context.Background(), proto.RunRequest{Model: "TON", App: "gzip"})
	if err == nil {
		t.Fatal("Run succeeded though every attempt 503ed")
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d requests, want exactly the 3-attempt budget", calls.Load())
	}
}

func TestRunSingleAttemptDisablesRetry(t *testing.T) {
	resp := canonicalResponse(t)
	hs, calls := flakyServer(t, 1, http.StatusServiceUnavailable, resp)

	c := New(hs.URL, WithRetry(RetryPolicy{MaxAttempts: 1}))
	if _, err := c.Run(context.Background(), proto.RunRequest{Model: "TON", App: "gzip"}); err == nil {
		t.Fatal("MaxAttempts=1 should fail fast on the first 503")
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d requests, want 1", calls.Load())
	}
}

func TestRunDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(proto.Error{Error: "unknown model"})
	}))
	t.Cleanup(hs.Close)

	c := New(hs.URL, WithRetry(fastRetry(4)))
	if _, err := c.Run(context.Background(), proto.RunRequest{Model: "bogus", App: "gzip"}); err == nil {
		t.Fatal("Run succeeded against a 400")
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d requests for a 400, want 1 (4xx must not retry)", calls.Load())
	}
}

func TestWithHeaderStampedOnEveryAttempt(t *testing.T) {
	resp := canonicalResponse(t)
	var calls, stamped atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if r.Header.Get("X-Parrot-Forwarded") == "http://me" {
			stamped.Add(1)
		}
		if n == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(hs.Close)

	c := New(hs.URL, WithRetry(fastRetry(2)), WithHeader("X-Parrot-Forwarded", "http://me"))
	if _, err := c.Run(context.Background(), proto.RunRequest{Model: "TON", App: "gzip", Insts: 2000}); err != nil {
		t.Fatal(err)
	}
	if stamped.Load() != calls.Load() {
		t.Fatalf("header stamped on %d of %d attempts", stamped.Load(), calls.Load())
	}
}

func TestCorruptResultRejected(t *testing.T) {
	resp := canonicalResponse(t)
	corrupt := *resp
	bad := *resp.Result
	bad.Cycles += 12345
	corrupt.Result = &bad

	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(&corrupt)
	}))
	t.Cleanup(hs.Close)

	c := New(hs.URL)
	if _, err := c.Run(context.Background(), proto.RunRequest{Model: "TON", App: "gzip", Insts: 2000}); err == nil {
		t.Fatal("client accepted a result that does not reproduce its digest")
	}
}

// TestRetryPolicyNext pins the one retry decision the client and the
// cluster router share, case by case.
func TestRetryPolicyNext(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}
	live := context.Background()
	done, cancel := context.WithCancel(live)
	cancel()
	short, cancelShort := context.WithTimeout(live, 50*time.Millisecond)
	defer cancelShort()
	expired, cancelExpired := context.WithTimeout(live, time.Nanosecond)
	defer cancelExpired()
	<-expired.Done()

	reset := &url.Error{Op: "Post", URL: "http://peer/v1/run", Err: io.ErrUnexpectedEOF}
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		attempt int
		err     error
		other   bool // the next attempt fails over to another server
		retry   bool
		wait    time.Duration // exact wait; 0 = jittered backoff in [5ms, 10ms]
	}{
		{"transport error", live, 1, reset, false, true, 0},
		{"5xx", live, 1, &HTTPError{Status: 503}, false, true, 0},
		{"hinted 429 waits the hint", live, 1, &HTTPError{Status: 429, RetryAfter: 30 * time.Millisecond}, false, true, 30 * time.Millisecond},
		{"hinted 429, failover backs off", live, 1, &HTTPError{Status: 429, RetryAfter: 30 * time.Millisecond}, true, true, 0},
		{"unhinted 429", live, 1, &HTTPError{Status: 429}, false, false, 0},
		{"400", live, 1, &HTTPError{Status: 400}, false, false, 0},
		{"404", live, 1, &HTTPError{Status: 404}, false, false, 0},
		{"caller cancelled", done, 1, context.Canceled, false, false, 0},
		{"caller deadline passed", expired, 1, context.DeadlineExceeded, false, false, 0},
		{"attempt deadline, caller live", live, 1, context.DeadlineExceeded, false, true, 0},
		{"budget spent", live, 3, &HTTPError{Status: 503}, false, false, 0},
		{"hint past the deadline", short, 1, &HTTPError{Status: 429, RetryAfter: time.Second}, false, false, 0},
		{"hint past the deadline, failover", short, 1, &HTTPError{Status: 429, RetryAfter: time.Second}, true, true, 0},
	} {
		wait, retry := p.Next(tc.ctx, tc.attempt, tc.err, !tc.other)
		if retry != tc.retry {
			t.Errorf("%s: retry = %v, want %v", tc.name, retry, tc.retry)
			continue
		}
		switch {
		case !retry && wait != 0:
			t.Errorf("%s: no retry but wait %v", tc.name, wait)
		case retry && tc.wait != 0 && wait != tc.wait:
			t.Errorf("%s: wait %v, want %v", tc.name, wait, tc.wait)
		case retry && tc.wait == 0 && (wait < 5*time.Millisecond || wait > 10*time.Millisecond):
			t.Errorf("%s: wait %v, want jittered backoff in [5ms, 10ms]", tc.name, wait)
		}
	}
	// The backoff doubles per attempt and caps at MaxBackoff, ±50%.
	if wait, _ := p.Next(live, 2, reset, true); wait < 10*time.Millisecond || wait > 20*time.Millisecond {
		t.Errorf("second backoff %v, want in [10ms, 20ms]", wait)
	}
	big := RetryPolicy{MaxAttempts: 10, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}
	if wait, _ := big.Next(live, 8, reset, true); wait < 20*time.Millisecond || wait > 40*time.Millisecond {
		t.Errorf("capped backoff %v, want in [20ms, 40ms]", wait)
	}
}
