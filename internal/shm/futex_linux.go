//go:build linux

package shm

// Linux futex doorbell, by raw syscall: the futex word lives in the
// shared mapping, so it must be a process-shared futex — no
// FUTEX_PRIVATE_FLAG.

import (
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// platformCaps: this build has the futex doorbell.
const platformCaps = CapDoorbellFutex

// Futex operations — deliberately without FUTEX_PRIVATE_FLAG: the word
// is in a file-backed MAP_SHARED mapping and the waiter may be another
// process.
const (
	sysFutexWait = 0 // FUTEX_WAIT
	sysFutexWake = 1 // FUTEX_WAKE
)

// futexWake wakes every waiter parked on w. Errors are ignored: a wake
// on a word nobody waits on is a no-op, and the only caller-visible
// failure mode (EFAULT on a torn-down mapping) is already excluded by
// the two-phase region teardown.
func futexWake(w *atomic.Uint32) {
	syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(w)),
		sysFutexWake, uintptr(^uint32(0)>>1), 0, 0, 0)
}

// futexWait blocks until w's value differs from val, a wake arrives, the
// timeout elapses, or a signal interrupts — all of which simply return
// (the park loop re-checks the ring; spurious returns are safe).
func futexWait(w *atomic.Uint32, val uint32, timeout time.Duration) {
	ts := syscall.NsecToTimespec(timeout.Nanoseconds())
	syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(w)),
		sysFutexWait, uintptr(val), uintptr(unsafe.Pointer(&ts)), 0, 0)
}
