package transport

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"
)

// The step loop is one goroutine per Clock that runs every subscriber
// at its grid ticks: the multiples of the subscriber's gap. It sleeps
// between grid ticks in sleepUntil, a blocking nanosleep where the
// platform has one, because Go timers cannot keep a sub-millisecond
// grid: the runtime rounds an idle timer wait under 1 ms up to 1 ms, so
// a 300 µs time.Ticker fires every 0.9–1.1 ms and then delivers the
// ticks it missed back to back.
//
// A late wake serves only the latest grid tick; the ones it slept
// through are skipped, never replayed in a burst.

// Subscription is one subscriber of a Clock's step loop.
type Subscription struct {
	clock *Clock
	gap   int64
	step  func() bool
	busy  atomic.Bool
	next  int64 // first grid tick not yet served; owned by the loop
}

// Subscribe registers step to run on the clock's step loop at grid
// ticks, the multiples of gap (at least 1), starting the loop if it is
// not running. The loop calls step from one goroutine shared by every
// subscriber of the clock, so a slow step delays them all. step reports
// whether the subscriber still has work; once it reports false it is
// not called again until Wake.
func (c *Clock) Subscribe(gap int64, step func() bool) *Subscription {
	if gap < 1 {
		gap = 1
	}
	s := &Subscription{clock: c, gap: gap, step: step}
	c.mu.Lock()
	c.subs = append(c.subs, s)
	if !c.running {
		c.running = true
		go c.run()
	}
	c.mu.Unlock()
	return s
}

// Wake tells the loop the subscriber has work again; it is stepped from
// its next grid tick on. Safe to call from any goroutine and under any
// lock: it never blocks.
func (s *Subscription) Wake() {
	if !s.busy.Swap(true) {
		s.clock.poke()
	}
}

// Stop removes the subscriber. A step the loop has already begun still
// completes, so the subscriber must guard its own teardown against it.
// When the last subscriber stops, the loop goroutine exits.
func (s *Subscription) Stop() {
	c := s.clock
	c.mu.Lock()
	for i, o := range c.subs {
		if o == s {
			c.subs = append(c.subs[:i], c.subs[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	c.poke()
}

func (c *Clock) poke() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// run is the step loop. It never holds c.mu while it steps, so a step
// may take its subscriber's own locks freely.
func (c *Clock) run() {
	var (
		subs []*Subscription
		lead time.Duration // see sleepUntil
	)
	for {
		c.mu.Lock()
		if len(c.subs) == 0 {
			c.running = false
			c.mu.Unlock()
			return
		}
		subs = append(subs[:0], c.subs...)
		c.mu.Unlock()

		wake := int64(math.MaxInt64)
		for _, s := range subs {
			if !s.busy.Load() {
				continue
			}
			if g := c.Now() / s.gap * s.gap; g >= s.next {
				// Cleared before the step, so a Wake during it is kept.
				s.busy.Store(false)
				if s.step() {
					s.busy.Store(true)
				}
				s.next = g + s.gap
			}
			if s.busy.Load() {
				wake = min(wake, s.next)
			}
		}
		if wake == math.MaxInt64 {
			<-c.kick // every subscriber idle: wait for Wake or Stop
			continue
		}
		lead = c.sleepUntil(wake, lead)
	}
}

// sleepUntil blocks until tick wake begins. nanosleep overshoots its
// deadline by the thread's timer slack (50 µs by default on Linux) plus
// the wake-up latency, which is most of a 100 µs tick, so the loop asks
// to wake lead early, spins off the little that is left, and returns the
// lead re-estimated from this sleep's overshoot (clamped to one tick, so
// the spin never outlasts a tick).
func (c *Clock) sleepUntil(wake int64, lead time.Duration) time.Duration {
	// Let the goroutines that are ready now run first: the sleep holds
	// its thread, and at GOMAXPROCS=1 the only P, until the runtime's
	// monitor hands the P off, which can take longer than the sleep.
	runtime.Gosched()
	if d := c.Until(wake); d > lead {
		sleepFor(d - lead)
		over := lead - c.Until(wake)
		lead = max(0, min(lead+(over-lead)/8, c.tick))
	}
	for c.Until(wake) > 0 {
	}
	return lead
}
