package session

import (
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// mux is the session lifecycle the Server and the Dialer share: the
// active and finished tables under one mutex, one goroutine per endpoint,
// and the one retirement path every endpoint leaves through. Each side
// embeds it and adds only what differs — the server's routing, refusal,
// shedding and tombstones; the dialer's semaphore, ID allocation and
// stray count.
type mux struct {
	cfg  Config
	done chan struct{}
	wg   sync.WaitGroup
	seq  atomic.Int64 // per-side packet sequence source

	mu       sync.Mutex
	active   map[uint32]*endpoint
	finished map[uint32]Report
	// retiring holds the IDs of force-retired endpoints (server side
	// only) whose slot is already free but whose goroutine has not
	// retired them yet: together with finished, the server's tombstones.
	retiring  map[uint32]bool
	closeOnce sync.Once
}

func newMux(cfg Config) mux {
	return mux{
		cfg:      cfg,
		done:     make(chan struct{}),
		active:   make(map[uint32]*endpoint),
		finished: make(map[uint32]Report),
		retiring: make(map[uint32]bool),
	}
}

// demux starts the loop that hands every frame delivered in direction
// dir to route, until the side closes or the transport stops delivering.
func (m *mux) demux(dir wire.Dir, route func(wire.Frame)) {
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

// runLocked makes ep active and starts its goroutine: the endpoint loop,
// then retirement, then release (the dialer's semaphore slot; nil on the
// server). ep.stopped closes only after all of that, so whoever waits on
// it finds the slot already free. Callers hold m.mu.
func (m *mux) runLocked(ep *endpoint, evictIdle bool, release func()) {
	m.active[ep.id] = ep
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer close(ep.stopped)
		ep.loop(m.done, evictIdle)
		m.retire(ep)
		if release != nil {
			release()
		}
	}()
}

// retire moves an exited endpoint from the active table (or the retiring
// tombstone) to the finished reports and tells the control plane. A
// server ID is tombstoned from spawn on, so it retires at most once; a
// dialer ID reused after retirement overwrites its older report.
func (m *mux) retire(ep *endpoint) {
	ep.markFinished()
	rep := ep.snapshot()
	m.mu.Lock()
	delete(m.active, ep.id)
	delete(m.retiring, ep.id)
	m.finished[ep.id] = rep
	m.mu.Unlock()
	if m.cfg.Admission != nil {
		m.cfg.Admission.Forget(ep.id)
	}
}

// lookup returns the active endpoint for a session, if any.
func (m *mux) lookup(id uint32) *endpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active[id]
}

// report returns session id's report — live while it is active (with its
// write-notify channel), final once it has retired.
func (m *mux) report(id uint32) (rep Report, notify chan struct{}, ok bool) {
	m.mu.Lock()
	ep := m.active[id]
	if ep == nil {
		rep, ok = m.finished[id]
		m.mu.Unlock()
		return rep, nil, ok
	}
	m.mu.Unlock()
	return ep.snapshot(), ep.notify, true
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

// Close stops the demux loop and every session goroutine, then waits for
// them. It does not close the transport (the caller owns it).
func (m *mux) Close() error {
	m.closeOnce.Do(func() {
		close(m.done)
		m.wg.Wait()
	})
	return nil
}
