package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// ErrBreakerOpen is returned by Resilient.Send while the circuit breaker
// is open: the frame is shed instead of queued behind a failing inner
// transport. It is a transient error — endpoints treat it as channel
// loss, never as a closed transport.
var ErrBreakerOpen = errors.New("transport: circuit breaker open")

// ResilientOptions tune the resilience wrapper. The retry knobs are
// deadline-derived: the paper's channel promises delivery within d
// ticks, so there is no point retrying a frame for longer than d — the
// protocols above already retransmit on their own schedule. Zero values
// take defaults.
type ResilientOptions struct {
	// D is the channel delay bound d in ticks (default 1). The total
	// backoff a single Send spends retrying is capped at D ticks.
	D int64
	// C1 is the minimum step gap c1 (default 1). The retry budget per
	// Send is δ1 = ⌊D/C1⌋ — the most protocol steps that fit inside the
	// deadline, so retrying more often than that cannot help.
	C1 int64
	// BreakerThreshold consecutive Send failures open the circuit
	// breaker (default 8). While open, Send fails fast with
	// ErrBreakerOpen instead of hammering a dead path.
	BreakerThreshold int
	// ProbeTicks is how long the breaker stays open before half-opening:
	// after ProbeTicks ticks one probe Send is let through; success
	// closes the breaker, failure re-opens it. Default 2·D.
	ProbeTicks int64
	// Redial rebuilds the inner transport after it reports ErrClosed.
	// nil disables reconnection: a dead inner transport is terminal.
	Redial func() (Transport, error)
	// MaxRedials bounds consecutive reconnect attempts (default 4).
	// Exhausting them marks the transport dead: Send returns ErrClosed.
	MaxRedials int
	// Seed seeds the reconnect jitter (default 1).
	Seed int64
	// Buffer is the per-direction capacity of the wrapper's delivery
	// channels (default 1024).
	Buffer int
	// OnBreaker observes every circuit breaker state transition. It is
	// invoked under the wrapper's mutex, so even with many concurrent
	// senders the transitions arrive serialised in commit order;
	// implementations must be fast and must not call back into the
	// wrapper. nil disables the hook.
	OnBreaker func(from, to BreakerState)
}

func (o ResilientOptions) withDefaults() ResilientOptions {
	if o.D <= 0 {
		o.D = 1
	}
	if o.C1 <= 0 {
		o.C1 = 1
	}
	if o.C1 > o.D {
		o.C1 = o.D
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 8
	}
	if o.ProbeTicks <= 0 {
		o.ProbeTicks = 2 * o.D
	}
	if o.MaxRedials <= 0 {
		o.MaxRedials = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Buffer <= 0 {
		o.Buffer = 1024
	}
	return o
}

// BreakerState is the circuit breaker's state, exported so observability
// hooks (ResilientOptions.OnBreaker, State) can report it.
type BreakerState int32

const (
	// BreakerClosed is the healthy state: sends flow to the inner transport.
	BreakerClosed BreakerState = iota
	// BreakerOpen sheds sends fast with ErrBreakerOpen.
	BreakerOpen
	// BreakerHalfOpen lets exactly one probe send through.
	BreakerHalfOpen
)

// String names the state for metrics and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Resilient composes three defenses onto any Transport:
//
//   - bounded retransmission: a failed Send is retried with exponential
//     backoff (1, 2, 4, ... ticks), at most δ1 = ⌊d/c1⌋ times and never
//     for more than d ticks total — past the channel bound the frame is
//     protocol-level loss anyway, and the layers above retransmit;
//   - a circuit breaker: after BreakerThreshold consecutive Send
//     failures the breaker opens and Send sheds frames fast
//     (ErrBreakerOpen) instead of stalling every session endpoint
//     behind a dead path; after ProbeTicks one probe is let through and
//     its outcome closes or re-opens the breaker;
//   - jittered reconnect: when the inner transport reports ErrClosed and
//     a Redial function is configured, the wrapper rebuilds the inner
//     transport (bounded attempts, jittered backoff) and re-pumps its
//     delivery channels, so sessions survive a transport that dies
//     under them.
//
// The wrapper owns its inner transport(s): Close closes the current one
// and stops every pump goroutine.
type Resilient struct {
	clock *Clock
	opt   ResilientOptions

	mu        sync.Mutex
	inner     Transport
	gen       int          // bumped on every successful redial
	fails     int          // consecutive Send failures
	state     BreakerState // breaker state
	moves     int          // breaker transitions so far
	probeAt   int64
	innerDead bool // redial exhausted or impossible
	closed    bool

	redialMu sync.Mutex // serialises reconnect attempts; guards rng
	rng      *rand.Rand

	retransmits  atomic.Int64
	breakerOpens atomic.Int64
	fastFails    atomic.Int64
	reconnects   atomic.Int64

	// rto is the live cumulative retry budget per Send, in ticks. It
	// starts at D (the paper's bound — the widest budget that can ever
	// help) and may be moved at runtime through SetRTO, always clamped
	// into [C1, D]: an adaptive controller can make the wrapper *less*
	// persistent under overload, never more persistent than the channel
	// deadline allows.
	rto        atomic.Int64
	rtoChanges atomic.Int64

	del  map[wire.Dir]chan wire.Frame
	done chan struct{}
	wg   sync.WaitGroup

	closeOnce sync.Once
}

var _ Transport = (*Resilient)(nil)

// NewResilient wraps inner with the resilience layer against the shared
// clock.
func NewResilient(inner Transport, clock *Clock, opt ResilientOptions) *Resilient {
	r := &Resilient{
		clock: clock,
		opt:   opt.withDefaults(),
		inner: inner,
		done:  make(chan struct{}),
	}
	r.rng = rand.New(rand.NewSource(r.opt.Seed))
	r.rto.Store(r.opt.D)
	r.del = map[wire.Dir]chan wire.Frame{
		wire.TtoR: make(chan wire.Frame, r.opt.Buffer),
		wire.RtoT: make(chan wire.Frame, r.opt.Buffer),
	}
	r.startPumps(inner, 0)
	return r
}

// Name renders the wrapper over the inner transport.
func (r *Resilient) Name() string {
	r.mu.Lock()
	inner := r.inner
	r.mu.Unlock()
	return fmt.Sprintf("resilient(d=%d,δ1=%d)/%s", r.opt.D, r.opt.D/r.opt.C1, inner.Name())
}

// Retransmits counts retry attempts beyond each Send's first try.
func (r *Resilient) Retransmits() int64 { return r.retransmits.Load() }

// BreakerOpens counts transitions of the breaker into the open state
// (including re-opens after a failed probe).
func (r *Resilient) BreakerOpens() int64 { return r.breakerOpens.Load() }

// FastFails counts frames shed by an open breaker.
func (r *Resilient) FastFails() int64 { return r.fastFails.Load() }

// Reconnects counts successful redials of the inner transport.
func (r *Resilient) Reconnects() int64 { return r.reconnects.Load() }

// SetRTO moves the per-Send cumulative retry budget to ticks, clamped
// into [c1, d]: the floor is one protocol step (below it no retry fits at
// all), the ceiling is the channel deadline d — past d the frame is
// protocol-level loss by the paper's own arithmetic, so no adaptation can
// ever extend retrying beyond the deadline bound. The retry count budget
// follows as ⌊rto/c1⌋ (at most δ1). Returns the value actually applied.
// Safe for concurrent use with in-flight Sends, which read the budget
// once at their start.
func (r *Resilient) SetRTO(ticks int64) int64 {
	if ticks < r.opt.C1 {
		ticks = r.opt.C1
	}
	if ticks > r.opt.D {
		ticks = r.opt.D
	}
	if r.rto.Swap(ticks) != ticks {
		r.rtoChanges.Add(1)
	}
	return ticks
}

// RTOTicks returns the live per-Send retry budget in ticks.
func (r *Resilient) RTOTicks() int64 { return r.rto.Load() }

// RTOChanges counts SetRTO calls that actually moved the budget.
func (r *Resilient) RTOChanges() int64 { return r.rtoChanges.Load() }

// Send sends the frame through the breaker and retry machinery. Errors
// other than ErrClosed (including ErrBreakerOpen) are transient: the
// frame is lost, the transport lives on.
func (r *Resilient) Send(f wire.Frame) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	switch r.state {
	case BreakerOpen:
		if r.clock.Now() < r.probeAt {
			r.mu.Unlock()
			r.fastFails.Add(1)
			return ErrBreakerOpen
		}
		// This call becomes the half-open probe.
		r.setStateLocked(BreakerHalfOpen)
	case BreakerHalfOpen:
		// One probe in flight at a time; shed everything else.
		r.mu.Unlock()
		r.fastFails.Add(1)
		return ErrBreakerOpen
	}
	inner, gen, moves := r.inner, r.gen, r.moves
	r.mu.Unlock()

	err := r.sendWithRetry(inner, gen, f)

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if r.moves != moves {
		// The breaker moved while this send was in flight: its outcome
		// belongs to a state that is gone, so it must not skip half-open
		// or re-open a breaker the probe has just closed.
		return err
	}
	if err == nil {
		r.fails = 0
		r.setStateLocked(BreakerClosed)
		return nil
	}
	if errors.Is(err, ErrClosed) {
		return err // terminal: no redial left
	}
	r.fails++
	if r.state == BreakerHalfOpen || r.fails >= r.opt.BreakerThreshold {
		r.setStateLocked(BreakerOpen)
		r.probeAt = r.clock.Now() + r.opt.ProbeTicks
	}
	return err
}

// setStateLocked commits one breaker transition, counting entries into
// the open state and notifying the OnBreaker hook. Callers hold r.mu, so
// concurrent senders observe transitions in commit order.
func (r *Resilient) setStateLocked(to BreakerState) {
	if r.state == to {
		return
	}
	from := r.state
	r.state = to
	r.moves++
	if to == BreakerOpen {
		r.breakerOpens.Add(1)
	}
	if r.opt.OnBreaker != nil {
		r.opt.OnBreaker(from, to)
	}
}

// State returns the breaker's current state.
func (r *Resilient) State() BreakerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// sendWithRetry performs the bounded, deadline-aware retry loop: up to
// ⌊rto/c1⌋ retries with exponential backoff, cumulative backoff capped at
// the live RTO budget (≤ D ticks always — see SetRTO).
func (r *Resilient) sendWithRetry(inner Transport, gen int, f wire.Frame) error {
	err := r.trySend(&inner, &gen, f)
	rto := r.rto.Load()
	budget := int(rto / r.opt.C1)
	backoff := int64(1)
	var slept int64
	for i := 0; i < budget && err != nil && !errors.Is(err, ErrClosed); i++ {
		if slept+backoff > rto {
			break // past the channel bound: this frame is loss now
		}
		if !r.sleepTicks(backoff) {
			return ErrClosed
		}
		slept += backoff
		backoff *= 2
		r.retransmits.Add(1)
		err = r.trySend(&inner, &gen, f)
	}
	return err
}

// trySend attempts one send, reconnecting through Redial when the inner
// transport reports itself closed.
func (r *Resilient) trySend(inner *Transport, gen *int, f wire.Frame) error {
	err := (*inner).Send(f)
	if err == nil || !errors.Is(err, ErrClosed) {
		return err
	}
	ni, ngen, rerr := r.reconnect(*gen)
	if rerr != nil {
		return rerr
	}
	*inner, *gen = ni, ngen
	return (*inner).Send(f)
}

// reconnect rebuilds the inner transport, deduplicating concurrent
// observers by generation: whoever holds redialMu first redials, the
// rest adopt the fresh transport.
func (r *Resilient) reconnect(observedGen int) (Transport, int, error) {
	r.redialMu.Lock()
	defer r.redialMu.Unlock()
	r.mu.Lock()
	if r.closed || r.innerDead {
		r.mu.Unlock()
		return nil, 0, ErrClosed
	}
	if r.gen != observedGen {
		inner, gen := r.inner, r.gen
		r.mu.Unlock()
		return inner, gen, nil
	}
	if r.opt.Redial == nil {
		r.innerDead = true
		r.mu.Unlock()
		return nil, 0, ErrClosed
	}
	r.mu.Unlock()

	for attempt := 0; attempt < r.opt.MaxRedials; attempt++ {
		// Jittered backoff: uniform in [1, D·(attempt+1)] ticks, so a
		// fleet of reconnecting wrappers does not stampede the endpoint.
		wait := 1 + r.rng.Int63n(r.opt.D*int64(attempt+1))
		if !r.sleepTicks(wait) {
			return nil, 0, ErrClosed
		}
		ni, err := r.opt.Redial()
		if err != nil {
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			ni.Close()
			return nil, 0, ErrClosed
		}
		r.inner = ni
		r.gen++
		gen := r.gen
		// startPumps (wg.Add) must happen under r.mu: Close sets closed
		// before wg.Wait, so either we see closed above or Wait sees our
		// pumps — never an Add racing a drained Wait.
		r.startPumps(ni, gen)
		r.mu.Unlock()
		r.reconnects.Add(1)
		return ni, gen, nil
	}
	r.mu.Lock()
	r.innerDead = true
	r.mu.Unlock()
	return nil, 0, ErrClosed
}

// sleepTicks sleeps n ticks of the shared clock, returning false if the
// wrapper closed first.
func (r *Resilient) sleepTicks(n int64) bool {
	timer := time.NewTimer(r.clock.Ticks(n))
	defer timer.Stop()
	select {
	case <-r.done:
		return false
	case <-timer.C:
		return true
	}
}

// Deliveries returns the wrapper's own delivery channels, which survive
// inner-transport reconnects.
func (r *Resilient) Deliveries(dir wire.Dir) <-chan wire.Frame { return r.del[dir] }

// startPumps forwards one inner transport's deliveries into the
// wrapper's stable channels.
func (r *Resilient) startPumps(inner Transport, gen int) {
	r.wg.Add(2)
	go r.pump(inner, gen, wire.TtoR)
	go r.pump(inner, gen, wire.RtoT)
}

// pump copies one direction until the inner transport dies (triggering a
// reconnect, which starts fresh pumps) or the wrapper closes.
func (r *Resilient) pump(inner Transport, gen int, dir wire.Dir) {
	defer r.wg.Done()
	src := inner.Deliveries(dir)
	for {
		select {
		case <-r.done:
			return
		case f, ok := <-src:
			if !ok {
				// Inner transport gone. Try to resurrect it so the
				// receive path heals even if no Send notices first;
				// reconnect dedups by generation.
				if dir == wire.TtoR && r.opt.Redial != nil {
					r.reconnect(gen)
				}
				return
			}
			select {
			case r.del[dir] <- f:
			case <-r.done:
				return
			}
		}
	}
}

// Close closes the current inner transport, stops every pump, and closes
// the wrapper's delivery channels. Idempotent.
func (r *Resilient) Close() error {
	r.closeOnce.Do(func() {
		r.mu.Lock()
		r.closed = true
		inner := r.inner
		r.mu.Unlock()
		close(r.done)
		inner.Close()
		r.wg.Wait()
		close(r.del[wire.TtoR])
		close(r.del[wire.RtoT])
	})
	return nil
}
