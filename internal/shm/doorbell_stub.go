//go:build !linux

package shm

// Non-Linux builds have only the portable socket doorbell: the futex
// entry points exist so doorbell.go compiles everywhere, but NewDoorbell
// refuses the kind before either can run.

import (
	"sync/atomic"
	"time"
)

const platformCaps Caps = 0

func futexWake(w *atomic.Uint32)                                    {}
func futexWait(w *atomic.Uint32, val uint32, timeout time.Duration) {}
