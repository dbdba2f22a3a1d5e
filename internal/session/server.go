package session

import (
	"context"
	"fmt"
	"time"

	"repro/internal/wire"
)

// Server is the receiver side of the mux: it demultiplexes t->r frames by
// session ID, spawns a fresh receiver automaton per new session, drives
// each off the shared clock, and evicts sessions that go idle.
type Server struct {
	mux

	// Guarded by mux.mu.
	refused int // frames of new sessions dropped at the MaxSessions cap
	late    int // frames of already-finished sessions dropped at the tombstone
	shed    int // sessions force-retired by the overload policy
}

// NewServer validates the config and starts the demux loop.
func NewServer(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{mux: newMux(cfg)}
	s.instrument(cfg.metrics)
	s.demux(wire.TtoR, s.route)
	return s, nil
}

// route delivers a t->r frame to its session, spawning receiver state on
// first contact.
func (s *Server) route(f wire.Frame) {
	s.mu.Lock()
	ep := s.active[f.Session]
	if ep == nil {
		// Retired and retiring IDs are tombstoned: frames of a retired
		// session can still be in flight (retransmissions up to D ticks
		// behind the eviction) and must not re-spawn a ghost receiver
		// under the same ID — a ghost would pin a MaxSessions slot until
		// idle eviction (forever with IdleTicks disabled) and shadow the
		// real session's report. A force-retired session's slot frees
		// before its report lands in finished, so retiring covers the gap.
		if _, done := s.finished[f.Session]; done || s.retiring[f.Session] {
			s.late++
			s.mu.Unlock()
			s.cfg.metrics.onLate(s.cfg.Clock.Now(), f.Session)
			return
		}
		if ep = s.spawnLocked(f.Session); ep == nil {
			s.refused++
			s.mu.Unlock()
			s.cfg.metrics.onRefuse(s.cfg.Clock.Now(), f.Session)
			return
		}
	}
	s.mu.Unlock()
	ep.deliver(f)
}

// spawnLocked builds a receiver endpoint for a new session and starts its
// loop, or returns nil when the session is refused: by the control plane,
// at the MaxSessions cap (unless the shed policy frees a slot), or because
// its pair cannot be built. Callers hold s.mu.
func (s *Server) spawnLocked(id uint32) *endpoint {
	// The control plane's refuse gate runs before the capacity check: at
	// the escalation ladder's refuse level and above, brand-new sessions
	// are turned away even while slots remain, so the server sheds *load*
	// before it ever has to shed *sessions*.
	if s.cfg.Admission != nil && !s.cfg.Admission.AdmitServer(id) {
		return nil
	}
	if len(s.active) >= s.cfg.MaxSessions && (s.cfg.Shed != ShedEvictOldestIdle || !s.shedOldestLocked()) {
		return nil
	}
	// The pair builder needs an input only for the transmitter half,
	// which the server discards; the receiver starts empty.
	_, r, err := buildPair(s.cfg, id, nil)
	if err != nil {
		return nil
	}
	ep := newEndpoint(s.cfg, id, "receiver", r, &s.seq)
	if s.cfg.Store != nil {
		ep.tapeKey = tapeKey(id)
		// A persisted tape means a previous incarnation of this process
		// already wrote a durable prefix of the session's output: resume
		// it, so the recovery handshake reports the right count and the
		// transmitter rewinds instead of resending delivered messages.
		if data, ok := s.cfg.Store.Load(ep.tapeKey); ok && len(data) > 0 {
			ep.resumeTape(decodeTape(data))
			s.cfg.metrics.onResume()
		}
	}
	s.runLocked(ep, true, nil)
	return ep
}

// retireOldestLocked force-retires the active session whose key (read
// under its endpoint lock) is smallest, after mark records the cause.
// The victim's slot is released immediately — its goroutine retires it
// in the background, with the retiring set holding the tombstone until
// the report lands in finished. Callers hold s.mu; returns false when no
// session is active.
func (s *Server) retireOldestLocked(key func(*endpoint) int64, mark func(*endpoint)) bool {
	var (
		victim *endpoint
		oldest int64
	)
	for _, ep := range s.active {
		ep.mu.Lock()
		k := key(ep)
		ep.mu.Unlock()
		if victim == nil || k < oldest {
			victim, oldest = ep, k
		}
	}
	if victim == nil {
		return false
	}
	delete(s.active, victim.id)
	s.retiring[victim.id] = true
	mark(victim)
	victim.halt()
	return true
}

// shedOldestLocked force-retires the active session that has gone
// longest without traffic, freeing its slot for a newcomer. Callers hold
// s.mu; returns false when there is nothing to shed.
func (s *Server) shedOldestLocked() bool {
	if !s.retireOldestLocked(func(ep *endpoint) int64 { return ep.lastActivity }, (*endpoint).markShed) {
		return false
	}
	s.shed++
	return true
}

// ShedOldest force-retires the longest-idle active session on demand —
// the control plane's evict-oldest-idle escalation rung, the same move
// ShedEvictOldestIdle makes at the MaxSessions high-water mark but
// triggered by measured pressure instead of a full table. Returns false
// when there is nothing to shed.
func (s *Server) ShedOldest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shedOldestLocked()
}

// RetireStalled force-retires the active session whose output tape has
// gone longest without growth — the control plane's last escalation rung,
// a watchdog force-retire on demand. The victim is marked Wedged and its
// slot released immediately; in-flight frames die at the retiring
// tombstone. Returns false when no session is active.
func (s *Server) RetireStalled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retireOldestLocked(func(ep *endpoint) int64 { return ep.lastProgress }, (*endpoint).markWedged)
}

// ActiveCount returns the number of currently live receiver sessions —
// the control plane's occupancy sensor.
func (s *Server) ActiveCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.active)
}

// Snapshot returns the current report for a session — active or finished.
func (s *Server) Snapshot(id uint32) (Report, bool) {
	rep, _, ok := s.report(id)
	return rep, ok
}

// Refused counts frames dropped because a new session would have
// exceeded MaxSessions (or its pair could not be built).
func (s *Server) Refused() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refused
}

// Late counts frames dropped because their session had already finished
// — in-flight stragglers of retired sessions, never respawned.
func (s *Server) Late() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.late
}

// Shed counts sessions force-retired by the overload policy to admit
// newcomers.
func (s *Server) Shed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shed
}

// WaitWrites blocks until session id has written at least n messages,
// returning its report. It tolerates the session not existing yet
// (frames may still be in flight).
func (s *Server) WaitWrites(ctx context.Context, id uint32, n int) (Report, error) {
	poll := time.NewTicker(2 * time.Millisecond)
	defer poll.Stop()
	for {
		rep, notify, known := s.report(id)
		if known && rep.Writes >= n {
			return rep, nil
		}
		if known && rep.Finished {
			return rep, fmt.Errorf("session: session %d ended with %d of %d writes", id, rep.Writes, n)
		}
		if notify == nil {
			notify = make(chan struct{}) // unknown session: pure polling
		}
		select {
		case <-ctx.Done():
			return rep, ctx.Err()
		case <-s.done:
			return rep, fmt.Errorf("session: server closed waiting on session %d", id)
		case <-notify:
		case <-poll.C:
		}
	}
}

// Evict stops a session's endpoint (if active) and waits for it to
// retire, returning its final report. The session's slot is free by the
// time Evict returns.
func (s *Server) Evict(id uint32) (Report, bool) {
	if ep := s.lookup(id); ep != nil {
		ep.halt()
		<-ep.stopped
	}
	return s.Snapshot(id)
}

// Aggregate sums counters across every session seen so far.
func (s *Server) Aggregate() Aggregate {
	return aggregate(s.cfg, s.Reports(), s.Refused(), s.Late(), s.Shed())
}

// Aggregate sums per-session counters into one serving-side view.
type Aggregate struct {
	// Proto and Transport label the stack.
	Proto, Transport string
	// Sessions counts sessions ever seen; Active those still live;
	// Evicted those torn down idle; Wedged those force-retired by the
	// progress watchdog; SessionsShed those force-retired by the
	// overload policy; Resyncs sums watchdog-forced resynchronizations.
	Sessions, Active, Evicted, Wedged, SessionsShed, Resyncs int
	// Refused counts new-session frames dropped at the MaxSessions cap;
	// Late counts in-flight frames of already-finished sessions dropped
	// at the tombstone; Shed counts overload evictions performed (server
	// side only).
	Refused, Late, Shed int
	// Sends, Deliveries, Writes, Rejected, Overflow and SendErrors sum
	// the endpoint counters.
	Sends, Deliveries, Writes, Rejected, Overflow, SendErrors int
}

func aggregate(cfg Config, reports []Report, refused, late, shed int) Aggregate {
	agg := Aggregate{Proto: cfg.Solution.String(), Transport: cfg.Transport.Name(), Refused: refused, Late: late, Shed: shed}
	for _, r := range reports {
		agg.Sessions++
		if !r.Finished {
			agg.Active++
		}
		if r.Evicted {
			agg.Evicted++
		}
		if r.Wedged {
			agg.Wedged++
		}
		if r.Shed {
			agg.SessionsShed++
		}
		agg.Resyncs += r.Resyncs
		agg.Sends += r.Sends
		agg.Deliveries += r.Deliveries
		agg.Writes += r.Writes
		agg.Rejected += r.Rejected
		agg.Overflow += r.Overflow
		agg.SendErrors += r.SendErrors
	}
	return agg
}

// String renders the aggregate as one report line.
func (a Aggregate) String() string {
	return fmt.Sprintf("%s over %s: %d sessions (%d active, %d evicted, %d wedged, %d shed, %d refused, %d late), %d sends (%d errored), %d deliveries, %d writes, %d rejected, %d overflow",
		a.Proto, a.Transport, a.Sessions, a.Active, a.Evicted, a.Wedged, a.Shed, a.Refused, a.Late,
		a.Sends, a.SendErrors, a.Deliveries, a.Writes, a.Rejected, a.Overflow)
}
