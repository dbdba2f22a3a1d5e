// Package session runs many RSTP transfers concurrently over one
// transport: the serving layer the simulator does not have.
//
// Each transfer is a *session*: a fresh protocol pair (bare, hardened or
// stabilized — anything exposing NewPair) whose transmitter automaton
// lives in a Dialer and whose receiver automaton lives in a Server,
// connected by a shared transport.Transport that frames every packet
// with the session ID (wire.Frame). Both ends are driven off one shared
// real-time Clock: no endpoint takes two local protocol steps less than
// StepGap ticks apart, with C1 <= StepGap <= C2, so the paper's
// step-bound assumption Σ(At, Ar) holds on its safe side by
// construction; a late host can only stretch gaps (see DESIGN.md).
//
// Concurrency layout, kept deliberately simple so it is race-clean under
// `go test -race`:
//
//   - one demux goroutine per Server/Dialer, queueing each delivered
//     frame for its session in arrival order — never dropping one;
//   - one step loop per Clock (transport.Clock.Subscribe), shared by
//     every Server and Dialer on it. At each grid tick (a multiple of
//     StepGap) it has each side apply its queued frames, then step every
//     endpoint that is due, then run the idle-evict and watchdog checks.
//     The loop owns every automaton: all Apply/NextLocal calls happen
//     there;
//   - counters guarded by a per-endpoint mutex, snapshotted into
//     immutable Reports for readers; the only per-session event trace is
//     the registry's bounded, opt-in obs.Tracer ring (Config.Obs).
//
// Both sides share one lifecycle (mux): an endpoint retires — report
// recorded, slot freed, control plane told — before it counts as
// stopped, and never during a grid tick, so Server.Evict and Conn.Close
// return with the slot already free.
//
// Backpressure is a Dialer-side semaphore of MaxSessions slots (Start
// blocks until a slot frees or the context is done); the Server
// additionally refuses to spawn receiver state beyond its own
// MaxSessions, dropping frames of over-limit sessions. Idle receiver
// sessions are evicted after IdleTicks without traffic.
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/rstp"
	"repro/internal/transport"
	"repro/internal/wire"
)

// PairBuilder constructs fresh protocol pairs: rstp.Solution,
// rstp.HardenedSolution and rstp.StabilizedSolution all satisfy it.
type PairBuilder interface {
	// NewPair builds a transmitter/receiver pair for input x.
	NewPair(x []wire.Bit) (t, r ioa.Automaton, err error)
	// String names the protocol stack, e.g. "hardened(beta(k=4))".
	String() string
}

// KeyedPairBuilder is the durable flavor of PairBuilder: pairs whose
// endpoints checkpoint themselves into a StateStore under a caller-
// chosen key prefix. rstp.StabilizedSolution satisfies it; the mux uses
// it (when Config.Store is set) to give every session its own key
// namespace, "s<ID>/", so a restarted process can rebuild exactly the
// sessions it was serving.
type KeyedPairBuilder interface {
	PairBuilder
	// NewPairKeyed is NewPair with the endpoints' checkpoint keys
	// namespaced under prefix.
	NewPairKeyed(prefix string, x []wire.Bit) (t, r ioa.Automaton, err error)
}

// TapeResumer is the optional hook a receiver automaton may expose (the
// stabilized layer's endpoints do) to learn, at spawn, how many
// messages a previous incarnation already wrote durably: the REPORT it
// sends during the recovery handshake must count those, or the
// transmitter would resend messages the tape already holds. n only ever
// raises the automaton's count — a checkpoint ahead of the tape wins.
type TapeResumer interface {
	ResumeTape(n int64)
}

// Resyncer is the optional resynchronization hook a session automaton
// may expose (the stabilized layer's endpoints do): the watchdog pulls
// it once before force-retiring a wedged session, giving the protocol a
// chance to heal in place. The call happens on the clock's step loop,
// which owns the automaton, so implementations need no locking of their
// own.
type Resyncer interface {
	ForceResync()
}

// ErrAdmissionRefused is returned by Dialer.Start when the configured
// AdmissionController refuses the new session outright (the escalation
// ladder's refuse level and above). It is load shaping, not failure: the
// caller should back off and retry, exactly as it would on a full
// semaphore.
var ErrAdmissionRefused = errors.New("session: admission refused by control plane")

// AdmissionController is the control plane's hook into the mux: it paces
// or refuses new sessions and selects per-session protocol parameters.
// internal/control.Controller implements it; nil disables every hook.
//
// Both sides of a Pipe share one controller, which is what makes
// per-session k-selection sound: the dialer records the builder it chose
// for an ID at Admit time and the server's spawn asks BuilderFor the same
// ID, so transmitter and receiver always construct matching automata. A
// server fed by a remote dialer has no such record and BuilderFor returns
// nil — the default Config.Solution — because the wire format does not
// carry k (see DESIGN.md, control-plane section).
type AdmissionController interface {
	// Admit is consulted once per new transmitter-side session, after the
	// backpressure slot is taken and the ID allocated, before any protocol
	// state is built. It may sleep (admission pacing) and may return
	// ErrAdmissionRefused; any error aborts the Start and releases the
	// slot.
	Admit(ctx context.Context, id uint32) error
	// BuilderFor returns the protocol pair builder chosen for session id
	// at Admit time, or nil for Config.Solution. Called by both the
	// dialer's and the server's pair construction.
	BuilderFor(id uint32) PairBuilder
	// AdmitServer reports whether the server should spawn receiver state
	// for a brand-new session id right now. Sessions the controller
	// admitted dialer-side are always accepted (their slot is spoken
	// for); unknown IDs are refused while the escalation ladder is at its
	// refuse level or above.
	AdmitServer(id uint32) bool
	// Forget drops the controller's per-session record once the session
	// has retired on either side. Idempotent.
	Forget(id uint32)
}

// ShedPolicy selects what the Server does with a brand-new session when
// the active set already holds MaxSessions.
type ShedPolicy int

const (
	// ShedRefuse drops the new session's frames (the pre-watchdog
	// behavior): existing sessions keep their slots, newcomers wait for
	// their own retransmissions to land after a slot frees.
	ShedRefuse ShedPolicy = iota
	// ShedEvictOldestIdle force-retires the active session that has gone
	// longest without traffic and admits the newcomer into its slot. The
	// victim's report is marked Shed; its in-flight frames are dropped as
	// late at the tombstone.
	ShedEvictOldestIdle
)

// String names the policy for flag values and summaries.
func (p ShedPolicy) String() string {
	switch p {
	case ShedRefuse:
		return "refuse"
	case ShedEvictOldestIdle:
		return "evict-oldest-idle"
	default:
		return fmt.Sprintf("shed(%d)", int(p))
	}
}

// Config configures a Server, a Dialer, or a Pipe (which shares one
// Config across both). Transport, Clock, Solution and Params are
// required; everything else has serving defaults.
type Config struct {
	// Solution builds each session's protocol pair.
	Solution PairBuilder
	// Params are the timing constants; StepGap and delay bounds are
	// interpreted against them.
	Params rstp.Params
	// Transport carries the frames.
	Transport transport.Transport
	// Clock is the shared tick source.
	Clock *transport.Clock
	// StepGap is the tick gap between consecutive local protocol steps,
	// clamped into [C1, C2]. Default C2 (the slowest legal schedule, the
	// one the effort bounds quantify over).
	StepGap int64
	// MaxSessions bounds concurrently live sessions per side (default
	// 1024). Dial blocks on it; the Server refuses receiver state past it.
	MaxSessions int
	// IdleTicks evicts a receiver session after this many ticks without
	// traffic (default 64·D; <0 disables eviction).
	IdleTicks int64
	// Shed selects the Server's overload policy at the MaxSessions
	// high-water mark (default ShedRefuse).
	Shed ShedPolicy
	// WatchdogK enables the Server's per-session progress watchdog: a
	// receiver session whose output tape grows by nothing for
	// WatchdogK·δ1·c2 ticks is declared wedged and force-retired through
	// the tombstone path. δ1·c2 is the paper's per-message effort bound —
	// the longest a healthy session can legally take between consecutive
	// writes — so k is "how many worst-case message times of silence
	// before giving up". 0 disables the watchdog.
	WatchdogK int
	// WatchdogTicks overrides the derived k·δ1·c2 wedge window directly
	// (takes precedence over WatchdogK when > 0).
	WatchdogTicks int64
	// WatchdogResync makes the watchdog pull the automaton's Resyncer
	// hook (if implemented — the stabilized layer's endpoints do) once
	// per session before force-retiring, giving the protocol one
	// wedge-window-long chance to heal in place.
	WatchdogResync bool
	// Obs wires the mux into an observability registry: endpoint counters,
	// the interwrite/deadline-margin/effort-gap histograms, protocol trace
	// events, and the Server's live per-session introspection table. nil
	// disables instrumentation entirely (the hot path pays one nil check).
	Obs *obs.Registry
	// Store persists per-session recovery state: the pair's checkpoints
	// (via KeyedPairBuilder, under "s<ID>/") and the receiver's output
	// tape (under "s<ID>/y", one byte per message, saved on every write
	// BEFORE the write is announced — the paper's irrevocable-write
	// semantics). nil disables persistence. Implementations must be safe
	// for concurrent use; internal/journal.Store is the durable one.
	Store rstp.StateStore
	// Admission is the optional control-plane hook: pacing/refusal of new
	// sessions and per-session protocol parameter choice, driven by live
	// metrics (see internal/control). nil disables it — admissions flow
	// exactly as before.
	Admission AdmissionController
	// EffortLowerBound is the paper's per-message effort lower bound in
	// ticks for the configured protocol (δ1·c2/log2 ζ_k(δ1) r-passive,
	// d/log2 ζ_k(δ2) active — Thms 5.3 and 5.6), supplied by the caller
	// because it depends on the protocol's k. When > 0 it anchors the
	// rstp_effort_gap_ticks histogram and the live effort-gap table;
	// 0 leaves only the absolute effort visible.
	EffortLowerBound float64

	// metrics is built from Obs in withDefaults; nil disables every hook.
	metrics *sessionMetrics
}

func (c Config) withDefaults() (Config, error) {
	if c.Solution == nil {
		return c, fmt.Errorf("session: Config.Solution required")
	}
	if c.Transport == nil {
		return c, fmt.Errorf("session: Config.Transport required")
	}
	if c.Clock == nil {
		return c, fmt.Errorf("session: Config.Clock required")
	}
	if err := c.Params.Validate(); err != nil {
		return c, err
	}
	if c.StepGap == 0 {
		c.StepGap = c.Params.C2
	}
	if c.StepGap < c.Params.C1 {
		c.StepGap = c.Params.C1
	}
	if c.StepGap > c.Params.C2 {
		c.StepGap = c.Params.C2
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.IdleTicks == 0 {
		c.IdleTicks = 64 * c.Params.D
	}
	if c.WatchdogTicks <= 0 && c.WatchdogK > 0 {
		c.WatchdogTicks = int64(c.WatchdogK) * int64(c.Params.Delta1()) * c.Params.C2
	}
	c.metrics = newSessionMetrics(c.Obs, c.Params, c.EffortLowerBound)
	return c, nil
}

// sessionKeyPrefix is the per-session namespace inside Config.Store;
// tapeKey is the receiver's durable output tape within it.
func sessionKeyPrefix(id uint32) string { return fmt.Sprintf("s%d/", id) }
func tapeKey(id uint32) string          { return sessionKeyPrefix(id) + "y" }

// buildPair constructs one session's protocol pair, routing through the
// keyed path when a store is configured and the solution supports it. An
// AdmissionController may substitute a per-session builder (k-selection);
// both sides consult it under the same ID, so the pair always matches.
func buildPair(cfg Config, id uint32, x []wire.Bit) (t, r ioa.Automaton, err error) {
	sol := cfg.Solution
	if cfg.Admission != nil {
		if b := cfg.Admission.BuilderFor(id); b != nil {
			sol = b
		}
	}
	if cfg.Store != nil {
		if kb, ok := sol.(KeyedPairBuilder); ok {
			return kb.NewPairKeyed(sessionKeyPrefix(id), x)
		}
	}
	return sol.NewPair(x)
}

// encodeTape and decodeTape serialize an output tape one byte per
// message. A truncated tape (a crash between tape save and checkpoint
// save) is still a prefix of X, so recovery from it is safe — the
// handshake retransmits the lost suffix.
func encodeTape(y []wire.Bit) []byte {
	b := make([]byte, len(y))
	for i, m := range y {
		b[i] = byte(m)
	}
	return b
}

func decodeTape(data []byte) []wire.Bit {
	y := make([]wire.Bit, len(data))
	for i, c := range data {
		y[i] = wire.Bit(c & 1)
	}
	return y
}

// Report is an immutable snapshot of one session endpoint.
type Report struct {
	// ID is the session ID.
	ID uint32
	// Role is "transmitter" or "receiver".
	Role string
	// Start is the tick the endpoint was created.
	Start int64
	// Sends, Deliveries and Writes count protocol events so far; Rejected
	// counts delivered frames the automaton's signature refused.
	Sends, Deliveries, Writes, Rejected int
	// SendErrors counts Transport.Send failures. They are non-fatal — a
	// failed send is channel loss, which the protocols retransmit around —
	// except transport.ErrClosed, which stops the endpoint.
	SendErrors int
	// Err is the most recent send error, "" if none.
	Err string
	// LastSend and LastWrite are absolute ticks (0 if none).
	LastSend, LastWrite int64
	// Y is the written output tape (receiver endpoints). Resumed counts
	// the messages of Y preloaded from a persisted tape at spawn — the
	// durable work of a previous incarnation — rather than written by
	// this endpoint; Writes includes them.
	Y       []wire.Bit
	Resumed int
	// Evicted reports the endpoint was torn down by the idle monitor.
	Evicted bool
	// Wedged reports the endpoint was force-retired by the progress
	// watchdog: no output growth within the wedge window.
	Wedged bool
	// Shed reports the endpoint was force-retired by the overload
	// policy to make room for a new session.
	Shed bool
	// Resyncs counts watchdog-triggered ForceResync calls into the
	// automaton (at most one per session).
	Resyncs int
	// Finished reports the endpoint has retired.
	Finished bool
}

// Effort is the endpoint-local effort estimate (LastSend-Start)/Writes —
// meaningful on merged transmitter+receiver views; see Pipe.
func (r Report) Effort() float64 {
	if r.Writes == 0 || r.LastSend == 0 {
		return 0
	}
	return float64(r.LastSend-r.Start) / float64(r.Writes)
}

// PrefixCheck compares an output tape y against the input x: it returns
// "" when y is a prefix of x, else a description of the first violation.
func PrefixCheck(x, y []wire.Bit) string {
	if len(y) > len(x) {
		return fmt.Sprintf("output has %d messages, input only %d", len(y), len(x))
	}
	for i := range y {
		if y[i] != x[i] {
			return fmt.Sprintf("output[%d] = %v, want %v", i, y[i], x[i])
		}
	}
	return ""
}

// endpoint is one side of one session: an automaton and its counters.
// The clock's step loop owns the automaton; the mutex guards only the
// counters.
type endpoint struct {
	id      uint32
	role    string
	auto    ioa.Automaton
	cfg     Config
	seq     *atomic.Int64 // shared per-side packet sequence source
	side    int64         // seq parity: 1 = transmitter side (odd seqs), 0 = receiver (even)
	tapeKey string        // durable output-tape key; "" disables tape persistence

	evictIdle bool   // receiver: run the idle-evict and watchdog checks
	release   func() // run once retired (the dialer's semaphore slot); nil on the server
	halted    atomic.Bool
	stopped   chan struct{} // closed once the endpoint has retired
	due       int64         // first tick the next step may run at; owned by the step loop

	mu           sync.Mutex
	start        int64
	sends        int
	deliveries   int
	writes       int
	rejected     int
	sendErrs     int
	lastErr      error
	lastSend     int64
	lastWrite    int64
	lastActivity int64
	lastProgress int64 // tick of the last output write (watchdog clock)
	y            []wire.Bit
	resumed      int // messages preloaded from a persisted tape at spawn
	evicted      bool
	wedged       bool
	shed         bool
	resyncs      int
	finished     bool
	changed      chan struct{} // closed at the next write or retirement; nil until watched
}

func newEndpoint(cfg Config, id uint32, role string, auto ioa.Automaton, seq *atomic.Int64) *endpoint {
	// The seq parity is derived from the role rather than passed in, so
	// the disjointness invariant (transmitter frames odd, receiver frames
	// even) cannot be miswired by a caller.
	var side int64
	if role == "transmitter" {
		side = 1
	}
	now := cfg.Clock.Now()
	return &endpoint{
		id:      id,
		role:    role,
		auto:    auto,
		cfg:     cfg,
		seq:     seq,
		side:    side,
		stopped: make(chan struct{}),
		due:     now,
		start:   now, lastActivity: now, lastProgress: now,
	}
}

// resumeTape seeds a freshly spawned receiver endpoint with the output
// tape a previous incarnation persisted, and tells the automaton (via
// TapeResumer) how many messages are already durable so its recovery
// REPORT counts them. Called before the endpoint is registered.
func (e *endpoint) resumeTape(y []wire.Bit) {
	e.mu.Lock()
	e.y = append([]wire.Bit(nil), y...)
	e.writes = len(y)
	e.resumed = len(y)
	e.mu.Unlock()
	if tr, ok := e.auto.(TapeResumer); ok {
		tr.ResumeTape(int64(len(y)))
	}
}

// markShed flags the endpoint as an overload-policy victim before it is
// halted, so retirement records the right cause.
func (e *endpoint) markShed() {
	e.mu.Lock()
	e.shed = true
	e.mu.Unlock()
	e.cfg.metrics.onShed(e.cfg.Clock.Now(), e.id)
}

// markWedged flags the endpoint as force-retired for lack of output
// progress before it is halted — the watchdog's verdict, also
// reachable on demand through the control plane's last escalation rung.
func (e *endpoint) markWedged() {
	now := e.cfg.Clock.Now()
	e.mu.Lock()
	e.wedged = true
	silent := now - e.lastProgress
	e.mu.Unlock()
	e.cfg.metrics.onWedge(now, e.id, silent)
}

// halt asks the step loop to retire the endpoint at its next grid tick
// instead of stepping it: the force-retire path, taken under the side's
// lock, which mux.stop cannot be; idempotent.
func (e *endpoint) halt() { e.halted.Store(true) }

// tick runs the endpoint's share of a grid tick: nothing before its due
// tick, else one local step followed, on the receiver side, by the
// idle-evict and watchdog checks. It returns false when the endpoint
// must retire.
//
// The gap rule: a step makes the endpoint due StepGap ticks after the
// tick the step ended in, and it steps at the first grid tick whose
// round reaches it at or after that tick. So no two steps are ever
// closer than StepGap, however late the loop runs, and a late loop
// steps each endpoint once instead of catching up. The due tick is not
// rounded up to the grid: a round that crosses a tick boundary would
// then cost each endpoint after the crossing a whole extra grid period.
func (e *endpoint) tick() bool {
	now := e.cfg.Clock.Now()
	if now < e.due {
		return true
	}
	if skipped := (now - e.due) / e.cfg.StepGap; skipped > 0 {
		e.cfg.metrics.onSkip(skipped)
	}
	if !e.step() {
		return false
	}
	now = e.cfg.Clock.Now()
	e.due = now + e.cfg.StepGap
	if !e.evictIdle {
		return true
	}
	if e.cfg.IdleTicks > 0 {
		e.mu.Lock()
		idle := now-e.lastActivity > e.cfg.IdleTicks
		if idle {
			e.evicted = true
		}
		e.mu.Unlock()
		if idle {
			e.cfg.metrics.onEvict(now, e.id)
			return false
		}
	}
	return e.cfg.WatchdogTicks <= 0 || e.watchdog(now)
}

// watchdog is the per-session progress check, run on the step loop after
// each step of a server-side endpoint: a session whose output tape grew
// by nothing for WatchdogTicks is wedged. With WatchdogResync set and an
// automaton that implements Resyncer, the first trip instead forces a
// protocol resynchronization and re-arms the window, so a session the
// stabilized layer can still heal gets exactly one wedge-window-long
// chance before the force-retire. Returns false when the endpoint must
// retire.
func (e *endpoint) watchdog(now int64) bool {
	e.mu.Lock()
	if now-e.lastProgress <= e.cfg.WatchdogTicks {
		e.mu.Unlock()
		return true
	}
	if e.cfg.WatchdogResync && e.resyncs == 0 {
		if rs, ok := e.auto.(Resyncer); ok {
			e.resyncs++
			e.lastProgress = now // re-arm: one full window to heal
			e.mu.Unlock()
			e.cfg.metrics.onResync(now, e.id)
			// The step loop owns the automaton; calling in outside e.mu
			// keeps the lock ordering trivial.
			rs.ForceResync()
			return true
		}
	}
	e.mu.Unlock()
	e.markWedged()
	return false
}

// onFrame applies one delivered frame as a recv input, if the automaton's
// signature accepts it.
func (e *endpoint) onFrame(f wire.Frame) {
	now := e.cfg.Clock.Now()
	act := wire.Recv{Dir: f.Dir, P: f.P, Payload: string(f.Payload)}
	e.mu.Lock()
	e.lastActivity = now
	if e.auto.Classify(act) != ioa.ClassInput {
		e.rejected++
		e.mu.Unlock()
		e.cfg.metrics.onReject()
		return
	}
	e.mu.Unlock()
	if err := e.auto.Apply(act); err != nil {
		e.mu.Lock()
		e.rejected++
		e.mu.Unlock()
		e.cfg.metrics.onReject()
		return
	}
	e.mu.Lock()
	e.deliveries++
	e.mu.Unlock()
	e.cfg.metrics.onRecv(now, e.id, f.Seq)
}

// step applies one local protocol action and performs its side effects
// (transport sends, output-tape writes). It returns false when the
// endpoint cannot make progress anymore (transport closed).
func (e *endpoint) step() bool {
	act, ok := e.auto.NextLocal()
	if !ok {
		return true // terminated protocol: keep serving recvs until stopped
	}
	if err := e.auto.Apply(act); err != nil {
		// A race between precondition and Apply cannot happen — the step
		// loop owns the automaton — so treat this as a protocol bug
		// surfaced in counters rather than a crash.
		e.mu.Lock()
		e.rejected++
		e.mu.Unlock()
		return true
	}
	now := e.cfg.Clock.Now()
	switch a := act.(type) {
	case wire.Send:
		pktSeq := e.seq.Add(1)*2 + e.side // seqs never collide across sides
		err := e.cfg.Transport.Send(wire.Frame{Session: e.id, Dir: a.Dir, Seq: pktSeq, P: a.P, Payload: []byte(a.Payload)})
		e.mu.Lock()
		e.sends++
		e.lastSend = now
		if err != nil {
			e.sendErrs++
			e.lastErr = err
		}
		e.mu.Unlock()
		e.cfg.metrics.onSend(now, e.id, pktSeq)
		if err != nil {
			e.cfg.metrics.onSendErr()
		}
		// Only a closed transport is terminal. Anything else (e.g. a
		// transient ENOBUFS/EMSGSIZE from the UDP socket) drops this frame
		// exactly like channel loss — the protocols already retransmit —
		// so the endpoint counts it and keeps stepping.
		if err != nil && errors.Is(err, transport.ErrClosed) {
			return false
		}
	case wire.Write:
		e.mu.Lock()
		prevWrite := e.lastWrite
		e.y = append(e.y, a.M)
		e.writes++
		e.lastWrite = now
		e.lastProgress = now
		var tape []byte
		if e.tapeKey != "" {
			tape = encodeTape(e.y)
		}
		e.mu.Unlock()
		if tape != nil {
			// Durable before observable: the tape reaches stable storage
			// before the write is announced to watchers and metrics, so a
			// crash can lose an unannounced write but never expose one it
			// might roll back — write(m) stays irrevocable.
			e.cfg.Store.Save(e.tapeKey, tape)
		}
		e.cfg.metrics.onWrite(now, e.id, prevWrite, e.start)
		e.mu.Lock()
		e.signalLocked()
		e.mu.Unlock()
	}
	return true
}

// signalLocked wakes every watcher of the endpoint. Callers hold e.mu.
func (e *endpoint) signalLocked() {
	if e.changed != nil {
		close(e.changed)
		e.changed = nil
	}
}

// watch snapshots the endpoint together with a channel closed at its
// next write or retirement, in one critical section so no change falls
// between the two.
func (e *endpoint) watch() (Report, <-chan struct{}) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.changed == nil {
		e.changed = make(chan struct{})
	}
	return e.snapshotLocked(), e.changed
}

// snapshot captures the endpoint's counters and a copy of its output
// tape.
func (e *endpoint) snapshot() Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotLocked()
}

func (e *endpoint) snapshotLocked() Report {
	r := Report{
		ID: e.id, Role: e.role, Start: e.start,
		Sends: e.sends, Deliveries: e.deliveries, Writes: e.writes,
		Rejected:   e.rejected,
		SendErrors: e.sendErrs,
		LastSend:   e.lastSend, LastWrite: e.lastWrite,
		Resumed: e.resumed,
		Evicted: e.evicted, Wedged: e.wedged, Shed: e.shed, Resyncs: e.resyncs,
		Finished: e.finished,
		Y:        append([]wire.Bit(nil), e.y...),
	}
	if e.lastErr != nil {
		r.Err = e.lastErr.Error()
	}
	return r
}

// finish flags the endpoint retired, wakes its watchers and returns its
// final report.
func (e *endpoint) finish() Report {
	e.halted.Store(true)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.finished = true
	e.signalLocked()
	return e.snapshotLocked()
}
