package shm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoorbellParseAndPick(t *testing.T) {
	if runtime.GOOS == "linux" && PlatformCaps() != CapDoorbellSocket|CapDoorbellFutex {
		t.Fatalf("linux platform caps %#x, want socket|futex", PlatformCaps())
	}
	all := CapDoorbellSocket | CapDoorbellFutex
	cases := []struct {
		client, server Caps
		want           DoorbellKind
	}{
		{all, all, DoorbellFutex},
		{CapDoorbellSocket, all, DoorbellSocket},
		{all, CapDoorbellSocket, DoorbellSocket},
		{0, 0, DoorbellSocket}, // socket is the unconditional floor
		// Reserved bit 2 and unknown bits never select anything.
		{all | 1<<2 | 1<<30, CapDoorbellSocket | 1<<2 | 1<<30, DoorbellSocket},
	}
	for i, c := range cases {
		if got := PickDoorbell(c.client, c.server); got != c.want {
			t.Fatalf("case %d: picked %v, want %v", i, got, c.want)
		}
	}
	for k, want := range map[DoorbellKind]string{DoorbellSocket: "socket", DoorbellFutex: "futex", 2: "doorbell(2)"} {
		if k.String() != want {
			t.Fatalf("%d stringifies as %q", k, k.String())
		}
	}
	if _, err := NewDoorbell(2, nil, DoorbellConfig{}); err == nil {
		t.Fatal("doorbell kind 2 built")
	}
}

func TestSpinControllerAdapts(t *testing.T) {
	c := NewSpinController()
	if c.Budget() != DefaultSpinBudget {
		t.Fatalf("initial budget %d", c.Budget())
	}
	if runtime.GOMAXPROCS(0) == 1 && c.max != DefaultSpinBudget {
		t.Fatalf("single-P growth ceiling %d, want %d", c.max, DefaultSpinBudget)
	}
	// Exercise the full policy range regardless of the test host's P count.
	c.max = MaxSpinBudget
	// Prompt productive wakes mean parking was premature: the budget grows
	// to its cap.
	for i := 0; i < 20; i++ {
		c.Parked()
		c.Woke(10*time.Microsecond, true)
	}
	if c.Budget() != MaxSpinBudget {
		t.Fatalf("budget %d after prompt wakes, want %d", c.Budget(), MaxSpinBudget)
	}
	// Slow productive wakes blame the doorbell, not the traffic: the
	// budget must hold, or a busy socket-doorbell ring would collapse
	// into a park storm.
	for i := 0; i < 20; i++ {
		c.Parked()
		c.Woke(time.Second, true)
	}
	if c.Budget() != MaxSpinBudget {
		t.Fatalf("budget %d after slow productive wakes, want %d held", c.Budget(), MaxSpinBudget)
	}
	// Empty wakes mean the ring is idle and spinning is wasted: the
	// budget collapses.
	for i := 0; i < 20; i++ {
		c.Parked()
		c.Woke(time.Second, false)
	}
	if c.Budget() != MinSpinBudget {
		t.Fatalf("budget %d after idle parks, want %d", c.Budget(), MinSpinBudget)
	}
	if c.Parks() != 60 || c.Wakes() != 60 {
		t.Fatalf("counted %d parks / %d wakes, want 60/60", c.Parks(), c.Wakes())
	}
	// The nil controller is a fixed-budget fallback, not a crash.
	var nilC *SpinController
	if nilC.Budget() != DefaultSpinBudget || nilC.Parks() != 0 {
		t.Fatal("nil controller misbehaves")
	}
	nilC.Parked()
	nilC.Woke(0, false)
}

// TestSpinControllerTightStage pins the poll ladder's shape: no tight
// stage with one P, where a spin only delays the producer sharing the
// core, and the TightPolls stage with two.
func TestSpinControllerTightStage(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := NewSpinController().Tight(); got != 0 {
		t.Fatalf("GOMAXPROCS(1): tight stage %d, want 0", got)
	}
	runtime.GOMAXPROCS(2)
	if got := NewSpinController().Tight(); got != 64 {
		t.Fatalf("GOMAXPROCS(2): tight stage %d, want 64", got)
	}
	var nilC *SpinController
	if nilC.Tight() != 0 {
		t.Fatal("nil controller has a tight stage")
	}
}

func TestBackoffLadder(t *testing.T) {
	// The ladder must terminate each stage and Reset must restart it; the
	// stages themselves are timing, so this is a does-not-hang check plus
	// the Yield<0 contract (never sleep — returns promptly even deep in).
	b := Backoff{Spin: 2, Yield: 2, Sleep: time.Microsecond}
	for i := 0; i < 10; i++ {
		b.Wait()
	}
	b.Reset()
	yo := Backoff{Spin: -1, Yield: -1}
	start := time.Now()
	for i := 0; i < 5000; i++ {
		yo.Wait() // must stay in Gosched: 5000 sleeps would take seconds
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("yield-only ladder slept")
	}
}

// startConsumeLoop runs a ConsumeLoop collecting frame IDs.
func startConsumeLoop(t *testing.T, r *Ring, d *Doorbell, sc *SpinController) (ids *[]uint64, mu *sync.Mutex, done chan error) {
	t.Helper()
	ids = &[]uint64{}
	mu = &sync.Mutex{}
	done = make(chan error, 1)
	cl := &ConsumeLoop{
		Ring: r,
		Door: d,
		Spin: sc,
		Handle: func(f *Frame) {
			mu.Lock()
			*ids = append(*ids, f.ID)
			mu.Unlock()
		},
	}
	go func() { done <- cl.Run() }()
	return ids, mu, done
}

// testDoorbellStress drives a ConsumeLoop through repeated park/wake
// cycles on the given doorbell kind while a spurious-wake injector rings
// the bell with nothing published. Every frame must arrive exactly once,
// in order, and the controller must have parked at least once.
func testDoorbellStress(t *testing.T, kind DoorbellKind) {
	l := Layout{SlotSize: 256, SubmitSlots: 8, CompleteSlots: 8, Doorbell: kind}
	reg := newTestRegion(t, l)
	r := reg.Submit

	d, err := NewDoorbell(kind, r, DoorbellConfig{})
	if err != nil {
		t.Skipf("no %v doorbell on this platform: %v", kind, err)
	}
	sc := NewSpinController()
	ids, mu, done := startConsumeLoop(t, r, d, sc)

	// Spurious-wake injector: rings the bell regardless of ring state.
	stopSpur := make(chan struct{})
	var spurWG sync.WaitGroup
	spurWG.Add(1)
	go func() {
		defer spurWG.Done()
		for {
			select {
			case <-stopSpur:
				return
			default:
				d.Notify()
				runtime.Gosched()
			}
		}
	}()

	const frames = 400
	for i := 0; i < frames; i++ {
		pos, buf := r.Claim()
		if buf == nil {
			t.Fatal("Claim returned nil")
		}
		if err := r.Publish(pos, 1, uint64(i), buf); err != nil {
			t.Fatal(err)
		}
		if r.ConsumerParked() {
			d.Ring()
		}
		if i%20 == 0 {
			// Let the consumer drain and park so the doorbell actually
			// gets exercised, not just the spin path.
			time.Sleep(2 * time.Millisecond)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(*ids)
		mu.Unlock()
		if n == frames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("consumer saw %d/%d frames", n, frames)
		}
		time.Sleep(time.Millisecond)
	}
	close(stopSpur)
	spurWG.Wait()
	reg.Invalidate()
	d.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, id := range *ids {
		if id != uint64(i) {
			t.Fatalf("frame %d has id %d", i, id)
		}
	}
	if kind != DoorbellSocket && sc.Parks() == 0 {
		t.Fatal("stress never parked — the doorbell was not exercised")
	}
}

func TestFutexDoorbellStress(t *testing.T) {
	if !PlatformCaps().Has(CapDoorbellFutex) {
		t.Skip("no futex on this platform")
	}
	testDoorbellStress(t, DoorbellFutex)
}

func TestSocketDoorbellStress(t *testing.T) {
	testDoorbellStress(t, DoorbellSocket)
}

// TestFutexParkWake pins the raw futex protocol: a waiter on the shared
// word blocks until a wake bumps it, and a stale token returns
// immediately (the lost-wakeup guard).
func TestFutexParkWake(t *testing.T) {
	if !PlatformCaps().Has(CapDoorbellFutex) {
		t.Skip("no futex on this platform")
	}
	l := Layout{SlotSize: 256, SubmitSlots: 4, CompleteSlots: 4}
	reg := newTestRegion(t, l)
	w := reg.Submit.futexWord()

	// Stale token: the word moved after the snapshot — wait must not block.
	tok := w.Load()
	w.Add(1)
	start := time.Now()
	futexWait(w, tok, time.Second)
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("stale-token wait blocked %v", d)
	}

	// Live wait: a waker releases it well before the timeout.
	tok = w.Load()
	var woke atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		futexWait(w, tok, 5*time.Second)
		woke.Store(true)
	}()
	time.Sleep(5 * time.Millisecond)
	w.Add(1)
	futexWake(w)
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("futex wake lost")
	}
	if !woke.Load() {
		t.Fatal("waiter never returned")
	}
}
