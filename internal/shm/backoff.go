package shm

// Backoff is the one escalating-wait ladder shared by every spin site in
// the transport: producer Claim on a full ring, the consumer poll loop in
// ConsumeLoop, and tests that wait on ring state. It replaces the two
// divergent magic-constant ladders PR 8 left in Claim and the consume
// loops with a single tunable policy: a stretch of tight spins (cheap
// when the condition clears within nanoseconds), then scheduler yields
// (let the peer goroutine run — essential on a single-CPU host), then
// short sleeps (stop burning the core on a genuinely stuck condition).

import (
	"runtime"
	"time"
)

// Default ladder stages; a zero-value Backoff uses exactly the constants
// PR 8 hard-coded in Claim.
const (
	defaultBackoffSpin  = 64
	defaultBackoffYield = 1024
	defaultBackoffSleep = 10 * time.Microsecond
)

// Backoff escalates from tight spins through yields to sleeps. The zero
// value is ready to use with the default ladder; set the fields to tune a
// site (Yield < 0 means "yield forever, never sleep" — the consumer poll
// loop's policy, where parking, not sleeping, is the terminal state; its
// Spin is SpinController.Tight on a multi-P host and -1, no tight
// stage, on a single-P one).
type Backoff struct {
	// Spin is how many Wait calls busy-spin before yielding.
	Spin int
	// Yield is how many Wait calls runtime.Gosched before sleeping; < 0
	// yields on every call past Spin and never sleeps.
	Yield int
	// Sleep is the per-call sleep once past Spin+Yield.
	Sleep time.Duration

	n int
}

// Wait performs the next step of the ladder.
func (b *Backoff) Wait() {
	spin, yield, sleep := b.Spin, b.Yield, b.Sleep
	if spin == 0 {
		spin = defaultBackoffSpin
	} else if spin < 0 {
		spin = 0 // yield immediately — no tight-spin stretch
	}
	if yield == 0 {
		yield = defaultBackoffYield
	}
	if sleep == 0 {
		sleep = defaultBackoffSleep
	}
	n := b.n
	if n < 1<<30 {
		b.n++
	}
	switch {
	case n < spin:
		// Tight spin: the condition usually clears within a cache miss.
	case yield < 0 || n < spin+yield:
		runtime.Gosched()
	default:
		time.Sleep(sleep)
	}
}

// Reset restarts the ladder; call it whenever the condition made
// progress.
func (b *Backoff) Reset() { b.n = 0 }
