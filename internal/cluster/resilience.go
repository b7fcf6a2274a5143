package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// Per-backend circuit breaker states. The breaker subsumes the old
// consecutive-failure health hysteresis: closed is the healthy state,
// open means the backend is shed from first-pass traffic, and half-open
// is the recovery probation — successes are flowing but fewer than
// UpAfter of them have accumulated, so one failure snaps straight back
// to open. The up flag request paths read is derived: true iff closed.
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

// breakerStateName renders a breaker state for /stats and /metrics.
func breakerStateName(s int32) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// observeBreaker feeds one outcome — a health probe's or a live
// request's — into b's breaker. Closed trips open after DownAfter
// consecutive failures; open moves to half-open on the first success;
// half-open closes after UpAfter total consecutive successes and
// reopens on any failure. Request outcomes drive the same machine as
// probes, so a failing backend is shed as fast as traffic discovers it
// rather than at probe cadence — but only probes touch the reprobe
// backoff schedule (nextProbe belongs to the health loop). A close
// (down->up) kicks the hint drainer, exactly when queued writes should
// replay.
func (c *Coordinator) observeBreaker(b *backend, ok, fromProbe bool) {
	b.bMu.Lock()
	state := b.bState.Load()
	if ok {
		b.consecFails = 0
		b.consecOKs++
		if fromProbe {
			b.probeInterval.Store(int64(c.baseProbeInterval()))
			b.nextProbe = time.Time{}
		}
		if state == breakerClosed {
			b.bMu.Unlock()
			return
		}
		if state == breakerOpen {
			b.bState.Store(breakerHalfOpen)
			b.halfOpens.Add(1)
			state = breakerHalfOpen
		}
		if state == breakerHalfOpen && b.consecOKs >= c.cfg.UpAfter {
			b.bState.Store(breakerClosed)
			b.closes.Add(1)
			b.up.Store(true)
			b.downSince.Store(0)
			b.transitions.Add(1)
			b.bMu.Unlock()
			c.logf("backend %s is up (breaker closed)", b.addr)
			c.kickHintDrain()
			return
		}
		b.bMu.Unlock()
		return
	}
	b.consecOKs = 0
	b.consecFails++
	opened := false
	switch state {
	case breakerClosed:
		if b.consecFails >= c.cfg.DownAfter {
			opened = true
		}
	case breakerHalfOpen:
		// Probation failed: reopen immediately, no hysteresis.
		opened = true
	}
	fails := b.consecFails
	if opened {
		b.bState.Store(breakerOpen)
		b.opens.Add(1)
		if b.up.Load() {
			b.up.Store(false)
			b.downSince.Store(time.Now().UnixNano())
			b.transitions.Add(1)
		}
	}
	if fromProbe && !b.up.Load() {
		b.scheduleReprobe(c.baseProbeInterval(), c.cfg.MaxProbeInterval)
	}
	b.bMu.Unlock()
	if opened {
		c.logf("backend %s is down after %d consecutive failures (breaker open)", b.addr, fails)
	}
}

// retryBudget is the coordinator-wide token bucket that caps retry
// amplification: every retried backend call — search retry passes, hint
// replays, repair copies, enumeration retries — spends one token, and
// tokens refill at a fixed rate. When the bucket runs dry retries are
// denied (the caller degrades: a search goes partial, a hint stays
// queued for the next drain pass) instead of storming a recovering
// backend with the whole cluster's backlog at once.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	rate   float64 // tokens per second
	last   time.Time

	spent  atomic.Int64 // retries granted
	denied atomic.Int64 // retries denied on an empty bucket
}

func newRetryBudget(max int, rate float64) *retryBudget {
	return &retryBudget{tokens: float64(max), max: float64(max), rate: rate, last: time.Now()}
}

// allow takes n tokens, or none: a half-granted retry pass would retry
// some backends and silently skip others, which is worse than an
// honest denial. It reports whether the tokens were granted.
func (rb *retryBudget) allow(n int) bool {
	if n <= 0 {
		return true
	}
	rb.mu.Lock()
	now := time.Now()
	rb.tokens += now.Sub(rb.last).Seconds() * rb.rate
	if rb.tokens > rb.max {
		rb.tokens = rb.max
	}
	rb.last = now
	if rb.tokens < float64(n) {
		rb.mu.Unlock()
		rb.denied.Add(int64(n))
		return false
	}
	rb.tokens -= float64(n)
	rb.mu.Unlock()
	rb.spent.Add(int64(n))
	return true
}

// remaining returns the current token count (refilled to now).
func (rb *retryBudget) remaining() float64 {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	tokens := rb.tokens + time.Since(rb.last).Seconds()*rb.rate
	if tokens > rb.max {
		tokens = rb.max
	}
	return tokens
}

// acquireFanout admits one fan-out under the concurrency bound, or
// sheds it. The returned release func is nil when the fan-out was shed;
// the caller then answers 503 with Retry-After so well-behaved clients
// back off instead of re-slamming a saturated coordinator.
func (c *Coordinator) acquireFanout() func() {
	n := c.fanouts.Add(1)
	if n > int64(c.cfg.MaxFanout) {
		c.fanouts.Add(-1)
		c.metrics.shed.Add(1)
		return nil
	}
	return func() { c.fanouts.Add(-1) }
}
