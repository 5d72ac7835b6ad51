package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"parrot/internal/config"
	"parrot/internal/experiments"
	"parrot/internal/serve/client"
	"parrot/internal/serve/proto"
	"parrot/internal/telemetry"
	"parrot/internal/workload"
)

// statusPeer is a fake node that answers every request with status, a
// Retry-After-Ms hint when hintMs > 0, and counts what it saw.
func statusPeer(t *testing.T, status int, hintMs int) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		calls.Add(1)
		if hintMs > 0 {
			w.Header().Set(proto.RetryAfterMsHeader, fmt.Sprint(hintMs))
		}
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(proto.Error{Error: http.StatusText(status), RetryAfterMs: int64(hintMs)})
	}))
	t.Cleanup(hs.Close)
	return hs, &calls
}

// keyWithCandidates finds a routing key whose ring candidates start with
// the given nodes, in order.
func keyWithCandidates(t *testing.T, reg *Registry, want ...string) string {
	t.Helper()
	ring, _ := reg.Ring()
	for i := 0; i < 4096; i++ {
		d := fmt.Sprintf("cell-%d", i)
		cands := ring.Candidates(d, 0)
		ok := len(cands) >= len(want)
		for j := 0; ok && j < len(want); j++ {
			ok = cands[j] == want[j]
		}
		if ok {
			return d
		}
	}
	t.Fatalf("no key in 4096 probes has candidates starting %v", want)
	return ""
}

// TestHintedShedsOpenNoBreaker: an overloaded but live owner answering
// hinted 429s — three times the breaker threshold of them — must not be
// breaker-opened: a shed is a live node asking for patience, not a fault.
func TestHintedShedsOpenNoBreaker(t *testing.T) {
	peer, calls := statusPeer(t, http.StatusTooManyRequests, 1)
	reg := NewRegistry(RegistryConfig{Self: "http://self", Peers: []string{peer.URL}, VNodes: 16})
	c := NewClient(reg, ClientConfig{BreakerThreshold: 3, Registry: telemetry.NewRegistry()})
	key := keyWithCandidates(t, reg, peer.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 9; i++ {
		c.RunRemote(ctx, proto.RunRequest{Model: "TON", App: "gzip"}, key)
	}
	if got := c.breakerOpen.Value(); got != 0 {
		t.Fatalf("parrot_cluster_breaker_opens_total = %v after %d hinted sheds, want 0", got, calls.Load())
	}
	if calls.Load() < 9 {
		t.Fatalf("peer saw %d requests, want >= 9 sheds", calls.Load())
	}
	if st := c.BreakerState(peer.URL, time.Now()); st != "closed" {
		t.Fatalf("breaker state = %q, want closed", st)
	}
}

// TestPeerClientErrorNotRetried: a peer's 400 is the request's fault, not
// the node's, so the router neither retries it on a successor nor counts
// it as a strike.
func TestPeerClientErrorNotRetried(t *testing.T) {
	p1, calls1 := statusPeer(t, http.StatusBadRequest, 0)
	p2, calls2 := statusPeer(t, http.StatusBadRequest, 0)
	reg := NewRegistry(RegistryConfig{Self: "http://self", Peers: []string{p1.URL, p2.URL}, VNodes: 16})
	c := NewClient(reg, ClientConfig{Registry: telemetry.NewRegistry()})
	key := keyWithCandidates(t, reg, p1.URL, p2.URL)

	_, info, err := c.RunRemote(context.Background(), proto.RunRequest{Model: "TON", App: "gzip"}, key)
	if he, ok := client.AsHTTPError(err); !ok || he.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want the peer's 400", err)
	}
	if info.Attempts != 1 || calls1.Load() != 1 || calls2.Load() != 0 {
		t.Fatalf("attempts = %d, owner saw %d, successor saw %d; want 1, 1, 0",
			info.Attempts, calls1.Load(), calls2.Load())
	}
}

// TestPeerWrongDigestFails: a peer that answers with a valid response for
// another digest — version skew between nodes is enough — has failed the
// attempt; its result never reaches the caller.
func TestPeerWrongDigestFails(t *testing.T) {
	other := hedgeResponse(t, 2000)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		json.NewEncoder(w).Encode(other)
	}))
	t.Cleanup(peer.Close)
	reg := NewRegistry(RegistryConfig{Self: "http://self", Peers: []string{peer.URL}, VNodes: 16})
	c := NewClient(reg, ClientConfig{Registry: telemetry.NewRegistry()})

	gzip, _ := workload.ByName("gzip")
	ring, _ := reg.Ring()
	insts, digest := 3000, ""
	for ; insts < 3000+4096; insts++ {
		d := experiments.RunSpec{Model: config.Get(config.TON), App: gzip, Insts: insts}.Digest()
		if owner, _ := ring.Owner(d); owner == peer.URL {
			digest = d
			break
		}
	}
	if digest == "" {
		t.Fatal("no TON/gzip budget owned by the peer in 4096 probes")
	}

	out, _, err := c.RunRemote(context.Background(), proto.RunRequest{Model: "TON", App: "gzip", Insts: insts}, digest)
	if err == nil {
		t.Fatalf("RunRemote returned digest %.12s… for requested %.12s…, want an error", out.Digest, digest)
	}
	if out != nil {
		t.Fatal("a failed attempt returned a response")
	}
}

// TestHungPeerOpensBreaker: a peer that accepts requests but never answers
// strikes its breaker each time an attempt's deadline is spent waiting on
// it, so it opens at the threshold; a half-open trial that times out the
// same way re-opens it.
func TestHungPeerOpensBreaker(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-time.After(10 * time.Second):
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(peer.Close)
	reg := NewRegistry(RegistryConfig{Self: "http://self", Peers: []string{peer.URL}, VNodes: 16})
	const cooldown = 200 * time.Millisecond
	c := NewClient(reg, ClientConfig{BreakerThreshold: 3, BreakerCooldown: cooldown, Registry: telemetry.NewRegistry()})
	key := keyWithCandidates(t, reg, peer.URL)

	run := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		c.RunRemote(ctx, proto.RunRequest{Model: "TON", App: "gzip"}, key)
	}
	for i := 0; i < 3; i++ {
		run()
	}
	if got := c.breakerOpen.Value(); got != 1 {
		t.Fatalf("breaker opens = %v after 3 timed-out attempts, want 1", got)
	}
	if st := c.BreakerState(peer.URL, time.Now()); st != "open" {
		t.Fatalf("breaker state = %q, want open", st)
	}

	time.Sleep(cooldown)
	run() // the half-open trial, spent waiting on the hung peer
	if got := c.breakerOpen.Value(); got != 2 {
		t.Fatalf("breaker opens = %v after a timed-out half-open trial, want 2", got)
	}
	if st := c.BreakerState(peer.URL, time.Now()); st != "open" {
		t.Fatalf("breaker state = %q after a timed-out trial, want open", st)
	}
}

// TestShedOwnerFailsOverWithoutItsHint: an owner shedding with a
// Retry-After longer than the caller's budget does not hold the cell
// back: the hint speaks for the owner only, so the router fails over to
// the successor after the plain backoff.
func TestShedOwnerFailsOverWithoutItsHint(t *testing.T) {
	var resp *proto.RunResponse // set once the cell is known
	shed, _ := statusPeer(t, http.StatusTooManyRequests, 10000)
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(good.Close)
	reg := NewRegistry(RegistryConfig{Self: "http://self", Peers: []string{shed.URL, good.URL}, VNodes: 16})
	c := NewClient(reg, ClientConfig{Registry: telemetry.NewRegistry()})

	gzip, _ := workload.ByName("gzip")
	ring, _ := reg.Ring()
	insts := 3000
	for ; insts < 3000+4096; insts++ {
		d := experiments.RunSpec{Model: config.Get(config.TON), App: gzip, Insts: insts}.Digest()
		if cands := ring.Candidates(d, 0); cands[0] == shed.URL && cands[1] == good.URL {
			break
		}
	}
	if insts == 3000+4096 {
		t.Fatal("no TON/gzip budget with candidates [shed, good] in 4096 probes")
	}
	resp = hedgeResponse(t, insts)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	t0 := time.Now()
	out, info, err := c.RunRemote(ctx, proto.RunRequest{Model: "TON", App: "gzip", Insts: insts}, resp.Digest)
	if err != nil {
		t.Fatalf("RunRemote: %v", err)
	}
	if out.Digest != resp.Digest || info.Node != good.URL || info.Attempts != 2 {
		t.Fatalf("served %.12s… by %s in %d attempts, want %.12s… by the successor in 2",
			out.Digest, info.Node, info.Attempts, resp.Digest)
	}
	if el := time.Since(t0); el > time.Second {
		t.Fatalf("failover took %v, want the plain backoff, not the owner's 10s hint", el)
	}
}
