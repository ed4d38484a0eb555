package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"syscall"
	"time"

	"rmp/internal/wire"
)

// This file is the pager's bounded-retry layer: every data-path
// request to a server runs through withConn, which combines
//
//   - the connection's adaptive deadline (conn.go) turning a wedged
//     server into a prompt timeout,
//   - exponential backoff with full jitter between attempts,
//   - reconnection and replay of idempotent requests (PAGEIN always;
//     PAGEOUT/XORWRITE are keyed puts, so a replay lands the same
//     bytes under the same key; FREE/ALLOC/LOAD tolerate replay),
//   - a total per-fault budget, after which the caller degrades
//     (reads reconstruct through the redundancy policy or the disk,
//     writes fall back to the local swap store) — at once, budget
//     unspent, when a re-dial is refused: that server is gone, not
//     slow, and
//   - the per-server circuit breaker (breaker.go), which fail-fasts
//     requests to a server that keeps timing out and reports it
//     suspect to the membership detector immediately.
//
// Server pages and swap reservations survive a reconnect: the server
// purges a client's namespace only after BYE (server.go), so closing a
// poisoned connection and replaying on a fresh one is safe.

// Retry-layer defaults (overridable via Config).
const (
	defaultRetryBudget = 2 * time.Second
	defaultRetryBase   = 5 * time.Millisecond
	defaultRetryCap    = 200 * time.Millisecond
	// backoffMaxShift bounds the exponential doubling so the shift
	// cannot overflow; the cap dominates long before this.
	backoffMaxShift = 16
	// badChecksumRetries is how many times a BAD_CHECKSUM verdict is
	// replayed in place before it is treated as persistent corruption
	// and handed to the redundancy policy for reconstruction.
	badChecksumRetries = 2
)

// backoffDelay computes the delay before retry number attempt+1:
// exponential doubling of base, capped at max, with "equal jitter" —
// the result is uniform in [d/2, d] where d = min(cap, base·2^attempt).
// rnd must be in [0, 1); it is a parameter so tests can pin the bounds.
func backoffDelay(attempt int, base, max time.Duration, rnd float64) time.Duration {
	if base <= 0 {
		base = defaultRetryBase
	}
	if max <= 0 {
		max = defaultRetryCap
	}
	if max < base {
		max = base
	}
	if attempt > backoffMaxShift {
		attempt = backoffMaxShift
	}
	d := base << uint(attempt)
	if d <= 0 || d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rnd*float64(half))
}

// retryBudget is the total time one fault may spend on a single
// server across attempts, backoffs, and re-dials. One in-flight
// request can overshoot it by at most its own deadline.
func (p *Pager) retryBudget() time.Duration {
	if p.cfg.RetryBudget > 0 {
		return p.cfg.RetryBudget
	}
	return defaultRetryBudget
}

// deadlines resolves the configured adaptive-deadline parameters.
func (p *Pager) deadlines() Deadlines {
	return Deadlines{Floor: p.cfg.ReqTimeoutFloor, Ceil: p.cfg.ReqTimeout}.withDefaults()
}

// dialOpts bundles the pager's connection knobs for a dial bounded by
// timeout: adaptive deadlines and the injected transport.
func (p *Pager) dialOpts(timeout time.Duration) DialOptions {
	return DialOptions{
		Timeout:   timeout,
		Deadlines: p.deadlines(),
		Dial:      p.cfg.Dial,
	}
}

// isTimeoutErr reports whether err is a deadline miss (request or
// dial) as opposed to a fast transport failure (refused, reset, EOF).
// Only timeouts feed the circuit breaker: fast failures are cheap and
// need no fail-fast protection.
func isTimeoutErr(err error) bool {
	if errors.Is(err, ErrReqTimeout) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// isRefused reports whether a re-dial was refused outright: the host
// answered and nothing listens on the port, so the daemon is gone and
// the memory it served with it. That is a verdict, where a timeout, a
// reset or an EOF is only a symptom; the retry loop ends on it at once
// instead of spending the budget re-dialling.
func isRefused(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED)
}

// isBadChecksum reports whether err is a checksum failure — either the
// server rejecting our frame or our verification of its response. The
// connection stays framed (the frame was fully read), so the exchange
// can simply be re-requested.
func isBadChecksum(err error) bool {
	var se *wire.StatusError
	return errors.As(err, &se) && se.Status == wire.StatusBadChecksum
}

// reportSuspect marks srv suspect in the pager's view and tells the
// membership detector immediately, so death confirmation starts now
// instead of at the next missed heartbeat. Runs with p.mu held; the
// detector callback re-enters the pager, so the report is dispatched
// asynchronously.
//
//rmpvet:holds Pager.mu
func (p *Pager) reportSuspect(srv int, cause error) {
	rs := p.servers[srv]
	rs.suspect = true
	p.logf("server %s suspect (circuit breaker open): %v", rs.addr, cause)
	if p.hb != nil {
		go p.hb.Suspect(rs.addr, cause)
	}
}

// sleepBackoff waits the jittered backoff before retry attempt+1 if
// that still fits in the budget; false means the budget is exhausted
// and the caller must degrade. Runs with p.mu held — the pager
// serializes requests like the paper's one paging daemon, so a fault
// in retry blocks its siblings at most for the remaining budget.
//
//rmpvet:holds Pager.mu
func (p *Pager) sleepBackoff(attempt int, budgetEnd time.Time) bool {
	d := backoffDelay(attempt, p.cfg.RetryBaseDelay, p.cfg.RetryMaxDelay, rand.Float64())
	if time.Now().Add(d).After(budgetEnd) {
		return false
	}
	time.Sleep(d)
	return true
}

// withConn runs op against server srv's connection under the retry
// layer. idempotent ops are re-issued (with backoff, on a fresh
// connection) until they succeed, a re-dial is refused or the retry
// budget is exhausted;
// non-idempotent ops (XORDELTA) get exactly one bounded attempt.
// Checksum failures are retried in place (the stream stays framed),
// and so are deadline misses — the late ack is dropped by id, the
// session stays healthy; other transport failures poison the
// connection and re-dial.
//
// On return with a transport-level error the server's connection is
// closed; callers route such errors to serverDied, whose recovery
// (synchronous or background) is the guaranteed degradation path.
// Runs with p.mu held.
//
//rmpvet:holds Pager.mu
func (p *Pager) withConn(srv int, idempotent bool, op func(*Conn) error) error {
	rs := p.servers[srv]
	if !rs.alive || rs.conn == nil {
		return fmt.Errorf("client: server %s is down", rs.addr)
	}
	budgetEnd := time.Now().Add(p.retryBudget())
	broken := false // connection closed; next attempt must re-dial
	badSums := 0
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if !p.sleepBackoff(attempt-1, budgetEnd) {
				p.stats.DeadlineFallbacks++
				return lastErr
			}
			p.stats.Retries++
		}
		if !rs.breaker.allow(time.Now()) {
			if lastErr != nil {
				return fmt.Errorf("%w: %s (last: %w)", ErrBreakerOpen, rs.addr, lastErr)
			}
			return fmt.Errorf("%w: %s", ErrBreakerOpen, rs.addr)
		}
		if broken {
			remaining := time.Until(budgetEnd)
			if remaining > DialTimeout {
				remaining = DialTimeout
			}
			nc, derr := DialWithOptions(rs.addr, p.cfg.ClientName, p.cfg.AuthToken, p.dialOpts(remaining))
			if derr != nil {
				lastErr = derr
				if isRefused(derr) {
					// Gone, not slow: no backoff will bring its pages
					// back, so the fault degrades now, whatever the
					// operation that met the dead server was.
					return lastErr
				}
				p.noteTransportFailure(rs, derr)
				continue
			}
			rs.conn = nc
			broken = false
		}
		err := op(rs.conn)
		if err == nil {
			rs.breaker.success()
			return nil
		}
		if !isConnError(err) {
			// The server answered — transport is healthy even if the
			// verdict is not OK.
			rs.breaker.success()
			if isBadChecksum(err) && idempotent && badSums < badChecksumRetries {
				// Transient line corruption clears on a replay; if it
				// persists, the stored copy itself is bad — surface it
				// quickly so the policy can reconstruct from redundancy.
				badSums++
				p.stats.ChecksumFaults++
				lastErr = err
				continue
			}
			return err
		}
		lastErr = err
		p.noteTransportFailure(rs, err)
		// The session survives a deadline miss: the late ack is
		// discarded by id, the stream stays framed. Keep the
		// connection and replay on it — the breaker still counted the
		// timeout, so a persistently wedged server fail-fasts
		// regardless. Anything else discards it.
		if !errors.Is(err, ErrReqTimeout) || rs.conn.Broken() {
			rs.conn.Close()
			broken = true
		}
		if !idempotent {
			return err
		}
	}
}

// noteTransportFailure accounts a transport-level failure: timeouts
// are counted and fed to the circuit breaker; an opening breaker is
// counted and reported to the failure detector.
//
//rmpvet:holds Pager.mu
func (p *Pager) noteTransportFailure(rs *remoteServer, err error) {
	if !isTimeoutErr(err) {
		return
	}
	p.stats.Timeouts++
	if rs.breaker.failure(time.Now()) {
		p.stats.BreakerOpens++
		p.reportSuspect(p.indexOf(rs), err)
	}
}

// indexOf finds rs's index in the server table (p.mu held).
//
//rmpvet:holds Pager.mu
func (p *Pager) indexOf(rs *remoteServer) int {
	for i, s := range p.servers {
		if s == rs {
			return i
		}
	}
	return -1
}
