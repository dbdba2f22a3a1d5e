package session

import (
	"sync"
	"sync/atomic"

	"repro/internal/transport"
	"repro/internal/wire"
)

// mux is the session lifecycle the Server and the Dialer share: the
// active and finished tables under one mutex, the frame queue its demux
// fills, the step-loop subscription that drains it and steps every
// endpoint, and the one retirement path every endpoint leaves through.
// Each side embeds it and adds only what differs — the server's
// routing, refusal, shedding and tombstones; the dialer's semaphore, ID
// allocation and stray count.
type mux struct {
	cfg  Config
	done chan struct{}
	wg   sync.WaitGroup // the demux goroutine
	seq  atomic.Int64   // per-side packet sequence source
	sub  *transport.Subscription

	// stepMu serialises grid ticks, stop and Close: every call into a
	// registered automaton and every retirement happens under it. The
	// scratch slices below belong to whoever holds it.
	stepMu   sync.Mutex
	frames   []inbound
	stepping []*endpoint

	mu       sync.Mutex
	closed   bool
	active   map[uint32]*endpoint
	finished map[uint32]Report
	// retiring holds the force-retired endpoints (server side only)
	// whose slot is already free but whose retirement has not run yet:
	// together with finished, the server's tombstones.
	retiring map[uint32]*endpoint
	// eps is every endpoint not yet retired, in registration order: the
	// endpoints a grid tick steps.
	eps []*endpoint
	// queue holds the frames routed since the last grid tick, in arrival
	// order. It is never dropped from: while the step loop stalls no
	// endpoint on the clock sends, so it holds at most what was sent in
	// the last d ticks.
	queue []inbound
	// spawned is closed at the next registration; nil until a
	// WaitWrites on a not-yet-seen session asks for it.
	spawned   chan struct{}
	closeOnce sync.Once
}

// inbound is one delivered frame waiting for its endpoint's grid tick.
type inbound struct {
	ep *endpoint
	f  wire.Frame
}

func newMux(cfg Config) mux {
	return mux{
		cfg:      cfg,
		done:     make(chan struct{}),
		active:   make(map[uint32]*endpoint),
		finished: make(map[uint32]Report),
		retiring: make(map[uint32]*endpoint),
	}
}

// serve subscribes the side to its clock's step loop and starts the
// demux goroutine, which hands every frame delivered in direction dir to
// route until the side closes or the transport stops delivering.
func (m *mux) serve(dir wire.Dir, route func(wire.Frame)) {
	m.sub = m.cfg.Clock.Subscribe(m.cfg.StepGap, m.tick)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		del := m.cfg.Transport.Deliveries(dir)
		for {
			select {
			case <-m.done:
				return
			case f, ok := <-del:
				if !ok {
					return
				}
				route(f)
			}
		}
	}()
}

// enqueueLocked queues f for ep's next grid tick. Callers hold m.mu.
func (m *mux) enqueueLocked(ep *endpoint, f wire.Frame) {
	m.queue = append(m.queue, inbound{ep, f})
}

// registerLocked makes ep active and hands it to the step loop. Receiver
// endpoints (evictIdle) also run the idle-evict and watchdog checks;
// release runs once the endpoint has retired (the dialer's semaphore
// slot; nil on the server). It returns false, registering nothing, once
// the side is closed. Callers hold m.mu.
func (m *mux) registerLocked(ep *endpoint, evictIdle bool, release func()) bool {
	if m.closed {
		return false
	}
	ep.evictIdle, ep.release = evictIdle, release
	m.active[ep.id] = ep
	m.eps = append(m.eps, ep)
	if m.spawned != nil {
		close(m.spawned)
		m.spawned = nil
	}
	m.sub.Wake()
	return true
}

// tick is the side's share of a grid tick on the clock's step loop: it
// applies the frames queued since the last tick in arrival order, then
// steps every due endpoint, retiring those that halted or stopped.
// Applying a frame at the next grid tick rather than on arrival changes
// nothing the automaton does, since no local step runs in between. It
// reports whether the side still has endpoints to step.
func (m *mux) tick() bool {
	m.stepMu.Lock()
	defer m.stepMu.Unlock()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	m.frames, m.queue = m.queue, m.frames[:0]
	m.stepping = append(m.stepping[:0], m.eps...)
	m.mu.Unlock()

	for _, in := range m.frames {
		if !in.ep.halted.Load() {
			in.ep.onFrame(in.f)
		}
	}
	clear(m.frames)
	for _, ep := range m.stepping {
		if ep.halted.Load() || !ep.tick() {
			m.retire(ep)
		}
	}
	clear(m.stepping)

	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.eps) > 0
}

// retire moves an endpoint from the active table (or the retiring
// tombstone) to the finished reports, tells the control plane, runs its
// release and only then closes ep.stopped, so whoever waits on it finds
// the slot already free. A server ID is tombstoned from spawn on, so it
// retires at most once; a dialer ID reused after retirement overwrites
// its older report. Callers hold m.stepMu.
func (m *mux) retire(ep *endpoint) {
	rep := ep.finish()
	m.mu.Lock()
	if m.active[ep.id] == ep {
		delete(m.active, ep.id)
	}
	delete(m.retiring, ep.id)
	m.finished[ep.id] = rep
	for i, o := range m.eps {
		if o == ep {
			m.eps = append(m.eps[:i], m.eps[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	if m.cfg.Admission != nil {
		m.cfg.Admission.Forget(ep.id)
	}
	if ep.release != nil {
		ep.release()
	}
	close(ep.stopped)
}

// stop retires ep now rather than at the next grid tick, unless it has
// retired already. Holding stepMu waits out a grid tick in progress, so
// the step loop never runs ep's automaton concurrently; every
// retirement happens under stepMu, which makes the check race-free.
func (m *mux) stop(ep *endpoint) {
	m.stepMu.Lock()
	defer m.stepMu.Unlock()
	select {
	case <-ep.stopped:
	default:
		m.retire(ep)
	}
}

// lookup returns the active endpoint for a session, if any.
func (m *mux) lookup(id uint32) *endpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active[id]
}

// report returns session id's report — live while it is active or
// retiring, final once it has retired. With watch set it also returns a
// channel closed at the session's next write or retirement or, for a
// session this side has not seen yet, at the next spawn.
func (m *mux) report(id uint32, watch bool) (rep Report, changed <-chan struct{}, ok bool) {
	m.mu.Lock()
	ep := m.active[id]
	if ep == nil {
		ep = m.retiring[id]
	}
	if ep == nil {
		defer m.mu.Unlock()
		if rep, ok = m.finished[id]; ok || !watch {
			return rep, nil, ok
		}
		if m.spawned == nil {
			m.spawned = make(chan struct{})
		}
		return rep, m.spawned, false
	}
	m.mu.Unlock()
	if !watch {
		return ep.snapshot(), nil, true
	}
	rep, changed = ep.watch()
	return rep, changed, true
}

// Reports returns a report per session this side has ever run, finished
// sessions first.
func (m *mux) Reports() []Report {
	m.mu.Lock()
	eps := make([]*endpoint, 0, len(m.active))
	out := make([]Report, 0, len(m.finished)+len(m.active))
	for _, rep := range m.finished {
		out = append(out, rep)
	}
	for _, ep := range m.active {
		eps = append(eps, ep)
	}
	m.mu.Unlock()
	for _, ep := range eps {
		out = append(out, ep.snapshot())
	}
	return out
}

// Close stops the demux loop, leaves the step loop and retires every
// endpoint still registered. It does not close the transport (the
// caller owns it).
func (m *mux) Close() error {
	m.closeOnce.Do(func() {
		close(m.done)
		m.stepMu.Lock()
		m.mu.Lock()
		m.closed = true
		eps := m.eps
		m.queue = nil
		m.mu.Unlock()
		for _, ep := range append([]*endpoint(nil), eps...) {
			m.retire(ep)
		}
		m.stepMu.Unlock()
		m.sub.Stop()
		m.wg.Wait()
	})
	return nil
}
