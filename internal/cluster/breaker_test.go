package cluster

import (
	"testing"
	"time"
)

func TestBreakerOpensAtThreshold(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, 2*time.Second)

	for i := 0; i < 2; i++ {
		if opened := b.Observe(false, now); opened {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i+1)
		}
		if !b.Allow(now) {
			t.Fatalf("closed breaker refused traffic after %d failures", i+1)
		}
	}
	if opened := b.Observe(false, now); !opened {
		t.Fatal("third failure did not open the breaker")
	}
	if b.Allow(now) {
		t.Fatal("open breaker admitted traffic inside the cooldown")
	}
	if got := b.State(now); got != "open" {
		t.Fatalf("state = %q, want open", got)
	}
	if b.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", b.Opens())
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, 2*time.Second)
	b.Observe(false, now)
	b.Observe(false, now)
	b.Observe(true, now) // streak broken
	b.Observe(false, now)
	b.Observe(false, now)
	if !b.Allow(now) {
		t.Fatal("breaker opened though no 3-failure streak occurred")
	}
}

func TestBreakerHalfOpenSingleTrial(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, 2*time.Second)
	for i := 0; i < 3; i++ {
		b.Observe(false, now)
	}

	later := now.Add(2 * time.Second)
	if !b.Allow(later) {
		t.Fatal("breaker did not admit the half-open trial after cooldown")
	}
	if b.Allow(later) {
		t.Fatal("breaker admitted a second concurrent half-open trial")
	}
	if got := b.State(later); got != "half_open" {
		t.Fatalf("state = %q, want half_open", got)
	}

	// Successful trial closes the circuit fully.
	b.Observe(true, later)
	if !b.Allow(later) || !b.Allow(later) {
		t.Fatal("closed breaker should admit traffic freely")
	}
	if got := b.State(later); got != "closed" {
		t.Fatalf("state = %q, want closed", got)
	}
}

func TestBreakerFailedTrialReopens(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, 2*time.Second)
	for i := 0; i < 3; i++ {
		b.Observe(false, now)
	}
	trialAt := now.Add(2 * time.Second)
	if !b.Allow(trialAt) {
		t.Fatal("no half-open trial admitted")
	}
	if opened := b.Observe(false, trialAt); !opened {
		t.Fatal("failed half-open trial did not re-open the circuit")
	}
	if b.Allow(trialAt.Add(time.Second)) {
		t.Fatal("re-opened breaker admitted traffic before a fresh cooldown")
	}
	if !b.Allow(trialAt.Add(2 * time.Second)) {
		t.Fatal("re-opened breaker never re-admitted a trial")
	}
	if b.Opens() != 2 {
		t.Fatalf("opens = %d, want 2", b.Opens())
	}
}

func TestBreakerDefaults(t *testing.T) {
	b := NewBreaker(0, 0)
	now := time.Unix(0, 0)
	for i := 0; i < 3; i++ {
		b.Observe(false, now)
	}
	if b.Allow(now.Add(time.Second)) {
		t.Fatal("default cooldown should be 2s, traffic admitted at 1s")
	}
	if !b.Allow(now.Add(2 * time.Second)) {
		t.Fatal("default cooldown elapsed but no trial admitted")
	}
}

// TestBreakerUnresolvedTrialExpires: a half-open trial that never reports
// (its admission was not used, or its leg was cancelled) must not wedge the
// circuit: after another cooldown a fresh trial is admitted.
func TestBreakerUnresolvedTrialExpires(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, 2*time.Second)
	for i := 0; i < 3; i++ {
		b.Observe(false, now)
	}
	trialAt := now.Add(2 * time.Second)
	if !b.Allow(trialAt) {
		t.Fatal("no half-open trial admitted")
	}
	if b.Allow(trialAt.Add(time.Second)) {
		t.Fatal("a second trial was admitted while the first is within its cooldown")
	}
	if !b.Allow(trialAt.Add(2 * time.Second)) {
		t.Fatal("an unresolved trial wedged the breaker half-open")
	}
}
