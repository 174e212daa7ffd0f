package shm

// ConsumeLoop is the one consume-side driver both ends of the transport
// share: dracod's per-ring server goroutine draining submissions runs it
// for the life of the connection (Run), and on the client whichever
// caller holds the completion ring's reap role runs it for as long as it
// is waiting for its own completion (RunUntil). It owns the park protocol
// (set parked → re-check → sleep on the doorbell → unpark), the adaptive
// spin budget, and tolerance for spurious wakes — a doorbell that rings
// with nothing published just runs another poll round.

import (
	"context"
	"time"
)

// ConsumeLoop drains one ring until the ring closes or Stop fires. The
// consumer side of a ring is single-threaded: at most one goroutine may be
// inside Run/RunUntil at a time, and successive runs by different
// goroutines must be ordered by a lock.
type ConsumeLoop struct {
	// Ring is the ring this side consumes.
	Ring *Ring
	// Door is the ring's doorbell (the consumer sleeps on it).
	Door *Doorbell
	// Spin adapts the empty-poll budget; nil uses a fixed
	// DefaultSpinBudget.
	Spin *SpinController
	// Stop ends the loop (optional).
	Stop <-chan struct{}

	// Handle receives each consumed frame; the payload aliases slot
	// memory and is valid only during the call.
	Handle func(f *Frame)
	// Drained, when set, fires after handling a frame that leaves the
	// ring empty — the transport's batch-boundary signal.
	Drained func()

	// frame is what Handle is shown. It escapes through that indirect
	// call, so it lives here, allocated once per loop, not once per run.
	frame Frame
}

// Run consumes until the ring closes (nil return) or a slot is torn
// (the protocol-violation error).
func (cl *ConsumeLoop) Run() error { return cl.RunUntil(context.Background(), nil) }

// RunUntil is Run with one more way out, for a consumer that needs the
// ring only while it waits for something: it also returns nil as soon as
// done reports true or ctx is cancelled, checked after every handled
// frame and on every empty poll, and leaves whatever is still unconsumed
// to the next run. A parked consumer cannot poll, so the park itself is
// made interruptible: ctx's cancellation rings the doorbell (armed only
// around the sleep, so the polling path pays nothing for it). done may be
// nil.
func (cl *ConsumeLoop) RunUntil(ctx context.Context, done func() bool) error {
	r := cl.Ring
	cancelled := ctx.Done() // nil for a context that cannot be cancelled
	leave := func() bool {
		if done != nil && done() {
			return true
		}
		select {
		case <-cancelled:
			return true
		default:
			return false
		}
	}
	// Poll ladder: on a multi-P host a tight-spin stage first (the
	// producer runs on another P, and its frame usually lands within a
	// cache miss, sooner than a Gosched round trip), then a yield on
	// every empty poll. With one P the producer shares our core, so
	// giving up the slice IS the fast path and the ladder yields from the
	// first poll. Parking is the terminal state; the ladder never reaches
	// sleep.
	poll := Backoff{Spin: -1, Yield: -1}
	if n := cl.Spin.Tight(); n > 0 {
		poll.Spin = n
	}
	empties := 0
	f := &cl.frame
	for {
		ok, err := r.Consume(f)
		if err != nil {
			return err
		}
		if ok {
			cl.Handle(f)
			r.Release()
			if r.Empty() && cl.Drained != nil {
				cl.Drained()
			}
			if leave() {
				return nil
			}
			empties = 0
			poll.Reset()
			continue
		}
		if r.Closed() || cl.stopped() || leave() {
			return nil
		}
		empties++
		if empties < cl.Spin.Budget() {
			poll.Wait()
			continue
		}
		// Budget exhausted: park. Capture the doorbell token before
		// raising the parked flag, then re-check — a frame published
		// between the flag store and here means the producer may have
		// skipped the doorbell, so we must not sleep.
		token := cl.Door.Prepare()
		r.SetParked(true)
		if !r.Empty() || r.Closed() || cl.stopped() || leave() {
			r.SetParked(false)
			empties = 0
			continue
		}
		cl.Spin.Parked()
		start := time.Now()
		// A cancellation from here on bumps the doorbell after Prepare, so
		// the sleep below cannot miss it (one already delivered makes
		// AfterFunc ring at once). The ring runs on a goroutine of its own
		// and touches the doorbell's mapped word, which whoever takes
		// the ring over next may unmap: a ring that has started is
		// waited for, so none outlives this run.
		var disarm func() bool
		var rung chan struct{}
		if cancelled != nil {
			rung = make(chan struct{})
			disarm = context.AfterFunc(ctx, func() {
				cl.Door.Notify()
				close(rung)
			})
		}
		cl.Door.Sleep(token, cl.Stop)
		if disarm != nil && !disarm() {
			<-rung
		}
		r.SetParked(false)
		// Productive = frames waiting right now. A timeout that raced a
		// publish classifies as productive, which is the truth that
		// matters: the ring is carrying traffic.
		cl.Spin.Woke(time.Since(start), !r.Empty())
		empties = 0
		poll.Reset()
	}
}

func (cl *ConsumeLoop) stopped() bool {
	select {
	case <-cl.Stop:
		return true
	default:
		return false
	}
}
