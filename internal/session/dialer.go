package session

import (
	"context"
	"fmt"

	"repro/internal/ioa"
	"repro/internal/wire"
)

// Dialer is the transmitter side of the mux: Start opens a session —
// blocking on the MaxSessions semaphore for backpressure — and drives a
// fresh transmitter automaton over the shared transport. r->t frames
// (acks, control traffic) are demultiplexed back to their session.
type Dialer struct {
	mux
	sem chan struct{}

	// Guarded by mux.mu.
	nextID   uint32          // last automatically allocated session ID
	reserved map[uint32]bool // IDs taken by a Start still admitting or building
	stray    int             // r->t frames with no active session
}

// NewDialer validates the config, joins the clock's step loop and starts
// the r->t demux loop.
func NewDialer(cfg Config) (*Dialer, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &Dialer{
		mux:      newMux(cfg),
		sem:      make(chan struct{}, cfg.MaxSessions),
		reserved: make(map[uint32]bool),
	}
	d.instrument(cfg.metrics)
	d.serve(wire.RtoT, d.route)
	return d, nil
}

// route queues an r->t frame for its open session, counting it as stray
// when there is none.
func (d *Dialer) route(f wire.Frame) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ep := d.active[f.Session]; ep != nil {
		d.enqueueLocked(ep, f)
	} else {
		d.stray++
	}
}

// Conn is one open transmitter-side session.
type Conn struct {
	d  *Dialer
	ep *endpoint
	x  []wire.Bit
}

// ID returns the session ID carried in every frame.
func (c *Conn) ID() uint32 { return c.ep.id }

// X returns the session's input sequence.
func (c *Conn) X() []wire.Bit { return append([]wire.Bit(nil), c.x...) }

// Report snapshots the transmitter endpoint.
func (c *Conn) Report() Report { return c.ep.snapshot() }

// Close retires the session, which releases its backpressure slot.
// Idempotent.
func (c *Conn) Close() { c.d.stop(c.ep) }

// Start opens a new session for input x. It blocks while MaxSessions
// sessions are already open — the backpressure contract — until a slot
// frees, the context is done, or the dialer closes.
func (d *Dialer) Start(ctx context.Context, x []wire.Bit) (*Conn, error) {
	return d.start(ctx, 0, x)
}

// StartID opens a session under a caller-chosen ID — the restart path:
// a recovering process must reuse the IDs of the sessions it was
// serving so their frames route to the same durable keys in
// Config.Store. id must be nonzero and not currently open; the
// automatic allocator is advanced past it so later Start calls never
// collide with resumed sessions.
func (d *Dialer) StartID(ctx context.Context, id uint32, x []wire.Bit) (*Conn, error) {
	if id == 0 {
		return nil, fmt.Errorf("session: StartID requires a nonzero session id")
	}
	return d.start(ctx, id, x)
}

func (d *Dialer) start(ctx context.Context, id uint32, x []wire.Bit) (*Conn, error) {
	select {
	case d.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-d.done:
		return nil, fmt.Errorf("session: dialer closed")
	}
	release := func() { <-d.sem }
	// Allocate or claim the ID and reserve it in one critical section, so
	// two concurrent StartIDs under one ID cannot both pass the check.
	d.mu.Lock()
	if id == 0 {
		d.nextID++
		id = d.nextID
	} else if id > d.nextID {
		d.nextID = id
	}
	if d.active[id] != nil || d.reserved[id] {
		d.mu.Unlock()
		release()
		return nil, fmt.Errorf("session: session %d already open", id)
	}
	d.reserved[id] = true
	d.mu.Unlock()

	t, err := d.admit(ctx, id, x)
	d.mu.Lock()
	delete(d.reserved, id)
	var ep *endpoint
	if err == nil {
		ep = newEndpoint(d.cfg, id, "transmitter", t, &d.seq)
		if !d.registerLocked(ep, false, release) {
			err = fmt.Errorf("session: dialer closed")
		}
	}
	d.mu.Unlock()
	if err != nil {
		release()
		return nil, err
	}
	return &Conn{d: d, ep: ep, x: append([]wire.Bit(nil), x...)}, nil
}

// admit runs the control plane's admission for a reserved ID and builds
// the session's transmitter automaton.
func (d *Dialer) admit(ctx context.Context, id uint32, x []wire.Bit) (ioa.Automaton, error) {
	// The control plane sees every admission after its slot and ID are
	// settled: Admit may sleep (pacing) or refuse, and it records the
	// per-session builder BuilderFor serves to both sides below. Pacing
	// while holding the slot is deliberate — a paced session is admitted
	// work in flight, not a queue jump waiting to happen.
	if d.cfg.Admission != nil {
		if err := d.cfg.Admission.Admit(ctx, id); err != nil {
			return nil, err
		}
	}
	t, _, err := buildPair(d.cfg, id, x)
	return t, err
}

// InFlight returns the number of currently open sessions.
func (d *Dialer) InFlight() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.active)
}

// Stray counts r->t frames that arrived for no active session.
func (d *Dialer) Stray() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stray
}

// Aggregate sums counters across every session opened so far.
func (d *Dialer) Aggregate() Aggregate {
	return aggregate(d.cfg, d.Reports(), 0, 0, 0)
}
