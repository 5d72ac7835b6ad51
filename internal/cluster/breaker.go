package cluster

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit.
type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is a per-node circuit breaker: after Threshold consecutive
// failures the circuit opens and Allow refuses traffic for Cooldown, then
// admits one half-open trial at a time; the trial's outcome closes or
// re-opens the circuit. It protects the fleet from burning its bounded
// retry budget on a peer that fails fast (connection refused to a dead
// process returns in microseconds — without a breaker every cell would
// still pay the attempt).
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	state     breakerState
	fails     int
	openedAt  time.Time
	trialAt   time.Time
	opens     uint64
}

// NewBreaker builds a breaker (threshold <=0 = 3 failures, cooldown <=0 =
// 2s).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether a request may be sent now. In the open state it
// returns false until the cooldown elapses, then transitions to half-open
// and admits a single trial. Concurrent callers see false until the trial
// resolves via Observe or, unresolved, expires after another cooldown: an
// admission that never reports (a pick that sent elsewhere, a leg that was
// cancelled) cannot leave the circuit stuck half-open.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			b.trialAt = now
			return true
		}
		return false
	default: // half-open: one trial already admitted
		if now.Sub(b.trialAt) >= b.cooldown {
			b.trialAt = now
			return true
		}
		return false
	}
}

// Observe records a request outcome. Success closes the circuit; failure
// re-opens a half-open circuit immediately and opens a closed one at the
// threshold. Returns true when this observation opened the circuit (the
// caller counts breaker opens).
func (b *Breaker) Observe(ok bool, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.state = breakerClosed
		b.fails = 0
		return false
	}
	b.fails++
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.fails >= b.threshold) {
		b.state = breakerOpen
		b.openedAt = now
		b.opens++
		return true
	}
	if b.state == breakerOpen {
		// Failures while already open (e.g. a hedge resolving late) keep
		// the circuit open but restart nothing.
		return false
	}
	return false
}

// State returns the current state label ("closed", "open", "half_open"),
// resolving an elapsed cooldown as "half_open" for display.
func (b *Breaker) State(now time.Time) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			return "half_open"
		}
		return "open"
	default:
		return "half_open"
	}
}

// Opens returns how many times the circuit has opened.
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
