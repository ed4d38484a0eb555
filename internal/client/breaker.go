package client

import (
	"errors"
	"fmt"
	"time"
)

// This file implements the per-server circuit breaker that sits under
// the pager's retry layer. A server that times out repeatedly — on the
// data path, across requests — is "opened": further requests fail fast
// instead of each burning a full retry budget against a black hole,
// and the membership failure detector is told immediately that the
// server is suspect rather than waiting for the next missed heartbeat.
// After a cooldown the breaker half-opens: exactly one trial request
// is let through, and its outcome decides between closing the breaker
// (server recovered) and re-opening it (still wedged).
//
// The breaker is a pure state machine; all transitions run under the
// pager's mutex, so one trial request at a time is guaranteed by the
// caller's serialization.

// ErrBreakerOpen is returned (wrapped) when a request is refused
// because the target server's circuit breaker is open.
var ErrBreakerOpen = errors.New("client: server circuit breaker open")

// breakerState is the classic three-state circuit-breaker machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("breakerState(%d)", int(s))
}

// breakerDefaults: open after 4 consecutive transport failures, try a
// probe after 1s.
const (
	defaultBreakerThreshold = 4
	defaultBreakerCooldown  = time.Second
)

// breaker tracks consecutive transport failures (timeouts, severed
// connections) to one server. Checksum faults and server-reported
// statuses do not count: a server that answers, even with an error, is
// not wedged.
//
//rmpvet:holds Pager.mu
type breaker struct {
	threshold int           // consecutive failures before opening
	cooldown  time.Duration // open → half-open delay

	// state is the current position in the three-state machine.
	// Guarded by Pager.mu.
	state breakerState
	// failures counts consecutive transport failures. Guarded by
	// Pager.mu.
	failures int
	// openedAt is when the breaker last opened. Guarded by Pager.mu.
	openedAt time.Time
}

func newBreaker(threshold int, cooldown time.Duration) breaker {
	if threshold <= 0 {
		threshold = defaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	return breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a request may proceed now. An open breaker
// whose cooldown has elapsed transitions to half-open and admits that
// one call as the trial probe.
func (b *breaker) allow(now time.Time) bool {
	switch b.state {
	case breakerClosed, breakerHalfOpen:
		// Half-open admits the trial; the caller's serialization means
		// success/failure always lands before the next allow.
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	}
	return true
}

// success records a completed round trip (including one the server
// answered with a non-OK status): the server is responsive. Closes a
// half-open breaker and resets the failure run.
func (b *breaker) success() {
	b.state = breakerClosed
	b.failures = 0
}

// failure records a transport failure. Returns true when this failure
// opened the breaker (closed → open transition), so the caller can
// count it and report the server suspect exactly once per opening.
func (b *breaker) failure(now time.Time) bool {
	b.failures++
	switch b.state {
	case breakerHalfOpen:
		// The trial failed: back to open, restart the cooldown.
		b.state = breakerOpen
		b.openedAt = now
		return false
	case breakerClosed:
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = now
			return true
		}
	}
	return false
}

// reset returns the breaker to closed (a revived or re-joined server
// starts with a clean slate).
func (b *breaker) reset() {
	b.state = breakerClosed
	b.failures = 0
	b.openedAt = time.Time{}
}

// describe reports the state for surveys, accounting for a cooldown
// that has elapsed but not yet been consumed by a request.
func (b *breaker) describe(now time.Time) string {
	if b.state == breakerOpen && now.Sub(b.openedAt) >= b.cooldown {
		return breakerHalfOpen.String()
	}
	return b.state.String()
}
