// Package transport carries session-tagged RSTP packets between a
// transmitter-side process and a receiver-side process in real time.
//
// A Transport is the serving-layer realisation of the paper's channel
// C(P^tr ∪ P^rt): a bidirectional datagram link that may reorder packets
// arbitrarily but — inside the model — delivers each within d ticks,
// without loss or duplication. The tick is given physical meaning by a
// shared Clock that both the transports and the session layer read, so
// "within d ticks" becomes "within d·Tick of wall time".
//
// Two implementations are provided:
//
//   - Mem: an in-process transport whose delivery schedule is computed by
//     a chanmodel.DelayPolicy (and optionally perturbed by a faults.Plan),
//     delivered by a single scheduler goroutine in arrival-time order. It
//     *enforces* the channel axioms: delay ≤ d (up to scheduler jitter),
//     no loss, no duplication — unless a fault plan deliberately breaks
//     them.
//   - UDP: a loopback socket pair for load tests against a real kernel
//     network path. It *inherits* UDP's semantics: reordering and loss
//     are possible and no delay bound is enforced; on loopback it behaves
//     like a near-zero-delay channel in practice.
//
// See DESIGN.md ("Serving subsystem") for the full axiom-by-axiom map.
package transport

import (
	"errors"
	"sync"
	"time"

	"repro/internal/wire"
)

// Transport is a bidirectional, session-multiplexed datagram channel.
//
// Send enqueues a frame traveling in f.Dir; Deliveries(dir) yields the
// frames traveling in dir as they arrive at the destination side
// (TtoR frames arrive at the receiver side, RtoT at the transmitter
// side). The deliveries channel is closed when the transport is closed.
//
// Implementations must be safe for concurrent use: many sessions send
// and receive through one transport.
type Transport interface {
	// Name identifies the transport in reports.
	Name() string
	// Send enqueues one frame for delivery toward its direction's
	// destination. It fails once the transport is closed.
	Send(f wire.Frame) error
	// Deliveries returns the delivery channel for frames traveling in dir.
	Deliveries(dir wire.Dir) <-chan wire.Frame
	// Close shuts the transport down and closes both delivery channels.
	// Close is idempotent.
	Close() error
}

// ErrClosed is returned by Send on a closed transport.
var ErrClosed = errors.New("transport: closed")

// Clock maps the model's integer ticks onto wall time: tick n is the
// half-open interval [start + n·Tick, start + (n+1)·Tick). One Clock is
// shared by a transport and every session driven over it, so step bounds
// (c1, c2) and the delay bound d are measured against the same time base.
//
// A Clock also owns the step loop that drives its subscribers (see
// Subscribe); it runs only while some subscriber is registered.
type Clock struct {
	start time.Time
	tick  time.Duration

	mu      sync.Mutex
	subs    []*Subscription
	running bool          // the step loop goroutine is alive
	kick    chan struct{} // wakes an idle step loop
}

// DefaultTick is the default physical length of one model tick.
const DefaultTick = 100 * time.Microsecond

// NewClock starts a clock whose tick lasts the given duration
// (DefaultTick if non-positive).
func NewClock(tick time.Duration) *Clock {
	if tick <= 0 {
		tick = DefaultTick
	}
	return &Clock{start: time.Now(), tick: tick, kick: make(chan struct{}, 1)}
}

// Tick returns the physical length of one tick.
func (c *Clock) Tick() time.Duration { return c.tick }

// Now returns the current tick count since the clock started.
func (c *Clock) Now() int64 { return int64(time.Since(c.start) / c.tick) }

// Until returns the wall-time duration from now until the start of the
// given tick (non-positive if that tick has begun).
func (c *Clock) Until(tick int64) time.Duration {
	return time.Until(c.start.Add(time.Duration(tick) * c.tick))
}

// Ticks converts a tick count to a wall-time duration.
func (c *Clock) Ticks(n int64) time.Duration { return time.Duration(n) * c.tick }
