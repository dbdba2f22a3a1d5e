package transport

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestStepLoopGridIdleAndExit pins the step loop's lifecycle: a busy
// subscriber runs on grid ticks only, an idle one is not called until
// Wake, and the loop goroutine exits with its last subscriber.
func TestStepLoopGridIdleAndExit(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewClock(100 * time.Microsecond)
	const gap = 3
	var (
		calls  atomic.Int64
		twice  atomic.Int64 // calls within a grid period already served
		served int64        // last grid period served; owned by the loop
		busy   atomic.Bool
	)
	busy.Store(true)
	served = -1
	sub := c.Subscribe(gap, func() bool {
		if p := c.Now() / gap; p <= served {
			twice.Add(1)
		} else {
			served = p
		}
		calls.Add(1)
		return busy.Load()
	})
	sub.Wake()
	waitFor(t, func() bool { return calls.Load() >= 20 })
	if n := twice.Load(); n != 0 {
		t.Errorf("%d steps ran twice in one grid period", n)
	}

	busy.Store(false)
	time.Sleep(10 * time.Millisecond) // a step begun before the Store may still say busy once
	idle := calls.Load()
	time.Sleep(20 * time.Millisecond)
	if n := calls.Load(); n != idle {
		t.Fatalf("idle subscriber stepped %d times without a Wake", n-idle)
	}
	sub.Wake()
	waitFor(t, func() bool { return calls.Load() > idle })

	sub.Stop()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
	c.mu.Lock()
	running := c.running
	c.mu.Unlock()
	if running {
		t.Fatal("step loop still marked running after its last subscriber stopped")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}
