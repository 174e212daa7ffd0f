package shm

// SpinController adapts a consumer's spin budget — how many empty polls
// it burns before parking on the doorbell — from the park/wake history
// PR 8 only counted. The policy reads each park's outcome:
//
//   - A productive wake (frames waiting when the consumer came to) that
//     arrived almost immediately means the park was premature — traffic
//     is flowing and spinning a little longer would have caught the
//     frame without any doorbell round trip — so the budget doubles.
//   - A productive but slow wake is neutral: it says the *doorbell* is
//     slow (a socket relay under load easily takes milliseconds), not
//     that the ring went idle, and shrinking the budget on it would
//     collapse a busy slow-doorbell connection into a park storm.
//   - An empty wake (the bounded wait expired with nothing published)
//     means the ring is genuinely idle and the pre-park spinning was
//     wasted heat, so the budget halves.
//
// The budget is clamped to [MinSpinBudget, MaxSpinBudget] and starts at
// the PR-8 constant, so a ring that never parks behaves exactly as
// before. On a single-P host (GOMAXPROCS=1) growth is capped at the
// default instead: spinning only pays when the producer can run
// concurrently with the spinner — with one P every extra empty poll is
// a timeslice stolen from the producer, and measured throughput drops.
//
// The same single-P rule fixes the poll ladder's shape at construction
// (Tight): on a multi-P host the first TightPolls empty polls busy-spin,
// since the producer runs on another P and its frame usually lands
// within a cache miss; only then does the consumer start yielding. With
// one P there is no tight stage: the ladder yields from the first poll.

import (
	"runtime"
	"sync/atomic"
	"time"
)

const (
	// MinSpinBudget / MaxSpinBudget clamp the adaptive budget.
	MinSpinBudget = 32
	MaxSpinBudget = 8192
	// DefaultSpinBudget is the starting budget — the fixed constant the
	// controller replaces.
	DefaultSpinBudget = 256
	// TightPolls is the poll ladder's tight-spin stage on a multi-P host:
	// empty polls that busy-spin before the consumer starts yielding.
	// They count against the spin budget like every other poll.
	TightPolls = 64

	// promptWake is the park-duration threshold that classifies a park as
	// premature: woken faster than this, the consumer would likely have
	// seen the frame by spinning a bit longer.
	promptWake = time.Millisecond
)

// SpinController is one ring's adaptive spin-budget state. All methods
// are safe for concurrent use (the consumer adjusts, metrics readers
// observe).
type SpinController struct {
	budget atomic.Int64
	parks  atomic.Uint64
	wakes  atomic.Uint64
	// max is the growth ceiling, fixed at construction (MaxSpinBudget,
	// or DefaultSpinBudget on a single-P host where spinning cannot
	// overlap the producer).
	max int64
	// tight is the poll ladder's tight-spin stage, fixed at
	// construction: TightPolls, or 0 on a single-P host.
	tight int
}

// NewSpinController returns a controller starting at DefaultSpinBudget.
func NewSpinController() *SpinController {
	c := &SpinController{max: MaxSpinBudget, tight: TightPolls}
	if runtime.GOMAXPROCS(0) == 1 {
		c.max = DefaultSpinBudget
		c.tight = 0
	}
	c.budget.Store(DefaultSpinBudget)
	return c
}

// Tight returns how many empty polls busy-spin before the consumer
// yields: TightPolls on a multi-P host, 0 on a single-P host or for a nil
// controller.
func (c *SpinController) Tight() int {
	if c == nil {
		return 0
	}
	return c.tight
}

// Budget returns the current spin budget in empty polls.
func (c *SpinController) Budget() int {
	if c == nil {
		return DefaultSpinBudget
	}
	return int(c.budget.Load())
}

// Parked records that the consumer parked.
func (c *SpinController) Parked() {
	if c != nil {
		c.parks.Add(1)
	}
}

// Woke records the outcome of a park: how long the consumer was blocked
// and whether the wake was productive (frames were waiting — the
// doorbell rang or a publish raced the timeout) or empty (the bounded
// wait expired on an idle ring), feeding the budget.
func (c *SpinController) Woke(blocked time.Duration, productive bool) {
	if c == nil {
		return
	}
	c.wakes.Add(1)
	b := c.budget.Load()
	switch {
	case !productive:
		if b = b / 2; b < MinSpinBudget {
			b = MinSpinBudget
		}
	case blocked < promptWake:
		if b = b * 2; b > c.max {
			b = c.max
		}
	default:
		return // slow doorbell, not an idle ring: leave the budget alone
	}
	c.budget.Store(b)
}

// Parks returns the total number of parks recorded.
func (c *SpinController) Parks() uint64 {
	if c == nil {
		return 0
	}
	return c.parks.Load()
}

// Wakes returns the total number of park wakeups recorded.
func (c *SpinController) Wakes() uint64 {
	if c == nil {
		return 0
	}
	return c.wakes.Load()
}
