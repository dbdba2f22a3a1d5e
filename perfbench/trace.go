package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ioa"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Span kinds, one per layer boundary the traced run times. The client
// goroutine records the first five around its own calls into the session
// layer; the wrappers below record the rest from inside the stack.
type spanKind uint8

const (
	spTransfer spanKind = iota
	spDial
	spWait
	spClose
	spEvict
	spNewPair
	spLocalStep
	spRecvApply
	spSend
)

var spanNames = [...]string{
	spTransfer:  "transfer",
	spDial:      "session.dial",
	spWait:      "session.wait",
	spClose:     "session.close",
	spEvict:     "session.evict",
	spNewPair:   "proto.new_pair",
	spLocalStep: "proto.local_step",
	spRecvApply: "proto.recv_apply",
	spSend:      "transport.send",
}

// maxSpans bounds the spans kept in memory per traced run; spans past it
// are counted, not kept.
const maxSpans = 400_000

// prefixBits is how many written messages identify a receiver: the
// server builds receiver automata before any session ID reaches them, so
// a receiver's spans are attributed to the transfer whose input starts
// with the first prefixBits messages the receiver wrote.
const prefixBits = 40

type span struct {
	kind       spanKind
	start, end int64 // ns since the tracer's epoch
}

// traceRec holds the spans of one sampled transfer; its trace ID is the
// session ID, known once Dialer.Start returns.
type traceRec struct {
	id     atomic.Uint32
	mu     sync.Mutex
	client [spEvict + 1]span // transfer, dial, wait, close, evict
	spans  []span
}

// tracer times calls into each layer. Histograms cover every call; spans
// are kept for every sampleEvery-th transfer only.
type tracer struct {
	epoch time.Time
	clock *transport.Clock

	dial, wait, teardown, newPair, localStep, recvApply, send, lag hist

	gaps, gapShort, gapLong atomic.Int64
	steps, writes, sends    atomic.Int64

	recs     []*traceRec             // by transfer index; nil = not sampled
	byInput  map[*wire.Bit]*traceRec // transmitter lookup by input slice
	byPrefix map[string]*traceRec    // receiver lookup by output prefix
	byID     sync.Map                // session ID -> *traceRec
	stored   atomic.Int64
	dropped  atomic.Int64
}

func newTracer(clock *transport.Clock, xs [][]wire.Bit, sampleEvery int) *tracer {
	tr := &tracer{
		epoch:    time.Now(),
		clock:    clock,
		recs:     make([]*traceRec, len(xs)),
		byInput:  make(map[*wire.Bit]*traceRec),
		byPrefix: make(map[string]*traceRec),
	}
	for i := 0; i < len(xs); i += sampleEvery {
		rec := &traceRec{}
		tr.recs[i] = rec
		tr.byInput[&xs[i][0]] = rec
		tr.byPrefix[bitsKey(xs[i][:min(prefixBits, len(xs[i]))])] = rec
	}
	return tr
}

func bitsKey(xs []wire.Bit) string {
	b := make([]byte, len(xs))
	for i, x := range xs {
		b[i] = '0' + byte(x)
	}
	return string(b)
}

func (tr *tracer) ns(t time.Time) int64 { return int64(t.Sub(tr.epoch)) }

// rec returns the span record of transfer i, nil when it is not sampled
// or tracing is off.
func (tr *tracer) rec(i int) *traceRec {
	if tr == nil {
		return nil
	}
	return tr.recs[i]
}

func (tr *tracer) add(rec *traceRec, kind spanKind, t0, t1 time.Time) {
	if rec != nil {
		tr.keep(rec, span{kind, tr.ns(t0), tr.ns(t1)})
	}
}

// keep stores s in rec unless the run already holds maxSpans spans.
func (tr *tracer) keep(rec *traceRec, s span) {
	if tr.stored.Add(1) > maxSpans {
		tr.dropped.Add(1)
		return
	}
	rec.mu.Lock()
	rec.spans = append(rec.spans, s)
	rec.mu.Unlock()
}

// client records one of the client goroutine's spans of a transfer.
func (tr *tracer) client(rec *traceRec, kind spanKind, t0, t1 time.Time) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	rec.client[kind] = span{kind, tr.ns(t0), tr.ns(t1)}
	rec.mu.Unlock()
}

func (tr *tracer) bindID(rec *traceRec, id uint32) {
	if rec == nil {
		return
	}
	rec.id.Store(id)
	tr.byID.Store(id, rec)
}

// stepGap classifies the gap in model ticks since an endpoint's previous
// local step against the paper's step bounds [c1, c2].
func (tr *tracer) stepGap(last *int64) {
	now := tr.clock.Now()
	if *last >= 0 {
		g := now - *last
		tr.gaps.Add(1)
		if g < params.C1 {
			tr.gapShort.Add(1)
		} else if g > params.C2 {
			tr.gapLong.Add(1)
		}
	}
	*last = now
}

// tracedBuilder wraps a session.PairBuilder, timing NewPair and wrapping
// the automaton the calling side keeps: the dialer builds with the
// session's input and keeps the transmitter, the server builds with a nil
// input and keeps the receiver.
type tracedBuilder struct {
	inner session.PairBuilder
	tr    *tracer
}

func (b tracedBuilder) String() string { return b.inner.String() }

func (b tracedBuilder) NewPair(x []wire.Bit) (ioa.Automaton, ioa.Automaton, error) {
	t0 := time.Now()
	t, r, err := b.inner.NewPair(x)
	return b.wrap(x, t, r, err, t0)
}

func (b tracedBuilder) wrap(x []wire.Bit, t, r ioa.Automaton, err error, t0 time.Time) (ioa.Automaton, ioa.Automaton, error) {
	t1 := time.Now()
	b.tr.newPair.observe(int64(t1.Sub(t0)))
	if err != nil {
		return t, r, err
	}
	a := &tracedAuto{tr: b.tr, lastTick: -1}
	if len(x) > 0 {
		a.inner = t
		a.rec = b.tr.byInput[&x[0]]
		b.tr.add(a.rec, spNewPair, t0, t1)
		return wrapAuto(a), r, nil
	}
	a.inner, a.rx = r, true
	a.buf = append(a.buf, span{spNewPair, b.tr.ns(t0), b.tr.ns(t1)})
	return t, wrapAuto(a), nil
}

// tracedKeyedBuilder keeps the durable construction path visible to the
// session layer when the wrapped builder offers it.
type tracedKeyedBuilder struct{ tracedBuilder }

func (b tracedKeyedBuilder) NewPairKeyed(prefix string, x []wire.Bit) (ioa.Automaton, ioa.Automaton, error) {
	t0 := time.Now()
	t, r, err := b.inner.(session.KeyedPairBuilder).NewPairKeyed(prefix, x)
	return b.wrap(x, t, r, err, t0)
}

func wrapBuilder(inner session.PairBuilder, tr *tracer) session.PairBuilder {
	b := tracedBuilder{inner: inner, tr: tr}
	if _, ok := inner.(session.KeyedPairBuilder); ok {
		return tracedKeyedBuilder{b}
	}
	return b
}

// tracedAuto times one endpoint's automaton. The endpoint's loop
// goroutine owns it, so its fields need no locking.
type tracedAuto struct {
	inner    ioa.Automaton
	tr       *tracer
	rec      *traceRec
	lastTick int64
	pending  bool // NextLocal returned an action; the next Apply is that local step
	stepT0   time.Time

	// Receiver attribution: spans wait in buf until the first prefixBits
	// written messages name the transfer.
	rx    bool
	ident bool
	tape  []wire.Bit
	buf   []span
}

func (a *tracedAuto) Name() string                    { return a.inner.Name() }
func (a *tracedAuto) Classify(x ioa.Action) ioa.Class { return a.inner.Classify(x) }

func (a *tracedAuto) NextLocal() (ioa.Action, bool) {
	a.tr.stepGap(&a.lastTick)
	t0 := time.Now()
	act, ok := a.inner.NextLocal()
	if ok {
		a.pending, a.stepT0 = true, t0
	}
	return act, ok
}

func (a *tracedAuto) Apply(act ioa.Action) error {
	if !a.pending {
		t0 := time.Now()
		err := a.inner.Apply(act)
		t1 := time.Now()
		a.tr.recvApply.observe(int64(t1.Sub(t0)))
		a.span(spRecvApply, t0, t1)
		return err
	}
	a.pending = false
	err := a.inner.Apply(act)
	t1 := time.Now()
	a.tr.localStep.observe(int64(t1.Sub(a.stepT0)))
	a.tr.steps.Add(1)
	a.span(spLocalStep, a.stepT0, t1)
	if w, ok := act.(wire.Write); ok && err == nil {
		a.tr.writes.Add(1)
		if a.rx && !a.ident {
			a.identify(w.M)
		}
	}
	return err
}

func (a *tracedAuto) span(kind spanKind, t0, t1 time.Time) {
	switch {
	case a.rec != nil:
		a.tr.add(a.rec, kind, t0, t1)
	case a.rx && !a.ident:
		a.buf = append(a.buf, span{kind, a.tr.ns(t0), a.tr.ns(t1)})
	}
}

func (a *tracedAuto) identify(m wire.Bit) {
	a.tape = append(a.tape, m)
	if len(a.tape) < prefixBits {
		return
	}
	a.ident = true
	a.rec = a.tr.byPrefix[bitsKey(a.tape)]
	if a.rec != nil {
		for _, s := range a.buf {
			a.tr.keep(a.rec, s)
		}
	}
	a.tape, a.buf = nil, nil
}

// The session layer probes automata for these optional hooks; the
// wrappers expose exactly the hooks the wrapped automaton has, so the
// traced stack takes the same code paths as the untraced one.
type tracedTapeAuto struct{ *tracedAuto }

func (a tracedTapeAuto) ResumeTape(n int64) { a.inner.(session.TapeResumer).ResumeTape(n) }

type tracedResyncAuto struct{ *tracedAuto }

func (a tracedResyncAuto) ForceResync() { a.inner.(session.Resyncer).ForceResync() }

type tracedTapeResyncAuto struct{ *tracedAuto }

func (a tracedTapeResyncAuto) ResumeTape(n int64) { a.inner.(session.TapeResumer).ResumeTape(n) }
func (a tracedTapeResyncAuto) ForceResync()       { a.inner.(session.Resyncer).ForceResync() }

func wrapAuto(a *tracedAuto) ioa.Automaton {
	_, tape := a.inner.(session.TapeResumer)
	_, resync := a.inner.(session.Resyncer)
	switch {
	case tape && resync:
		return tracedTapeResyncAuto{a}
	case tape:
		return tracedTapeAuto{a}
	case resync:
		return tracedResyncAuto{a}
	}
	return a
}

// tracedTransport times Transport.Send; Deliveries, Name and Close pass
// straight through, so no goroutine is added on the delivery path.
type tracedTransport struct {
	transport.Transport
	tr *tracer
}

func (t tracedTransport) Send(f wire.Frame) error {
	t0 := time.Now()
	err := t.Transport.Send(f)
	t1 := time.Now()
	t.tr.send.observe(int64(t1.Sub(t0)))
	t.tr.sends.Add(1)
	if rec, ok := t.tr.byID.Load(f.Session); ok {
		t.tr.add(rec.(*traceRec), spSend, t0, t1)
	}
	return err
}

// spanOut is one line of the span file.
type spanOut struct {
	Trace  uint32 `json:"trace"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Self   int64  `json:"self_ns"`
}

// selfStat aggregates one span name's time over every kept span.
type selfStat struct {
	name      string
	count     int
	dur, self int64
}

// finish links each sampled transfer's spans into a tree (the transfer
// is the root; dial, wait, close and evict are its children; every span
// from inside the stack hangs under the client span whose interval holds
// its start), computes each span's self time — its duration minus the
// union of its children's intervals — writes one JSON line per span to
// path, and returns the per-name totals.
func (tr *tracer) finish(path string) ([]selfStat, int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	stats := make([]selfStat, len(spanNames))
	for k := range stats {
		stats[k].name = spanNames[k]
	}
	written := 0
	for _, rec := range tr.recs {
		if rec == nil || rec.id.Load() == 0 || rec.client[spTransfer].end == 0 {
			continue
		}
		rec.mu.Lock()
		all := append(append([]span(nil), rec.client[:]...), rec.spans...)
		rec.mu.Unlock()
		parent := make([]int, len(all))
		parent[0] = -1
		for i := 1; i < len(all); i++ {
			parent[i] = 0
			if i <= int(spEvict) {
				continue
			}
			for c := int(spDial); c <= int(spEvict); c++ {
				if all[c].end > 0 && all[i].start >= all[c].start && all[i].start < all[c].end {
					parent[i] = c
					break
				}
			}
		}
		children := make([][]span, len(all))
		for i := 1; i < len(all); i++ {
			children[parent[i]] = append(children[parent[i]], all[i])
		}
		for i, s := range all {
			if s.end == 0 && i <= int(spEvict) {
				continue // client span never reached (the transfer failed early)
			}
			self := s.end - s.start - covered(s, children[i])
			st := &stats[s.kind]
			st.count++
			st.dur += s.end - s.start
			st.self += self
			if err := enc.Encode(spanOut{rec.id.Load(), i, parent[i], spanNames[s.kind], s.start, s.end - s.start, self}); err != nil {
				f.Close()
				return nil, 0, err
			}
			written++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	return stats, written, nil
}

// covered is the length of the union of the children's intervals, each
// clipped to the parent's.
func covered(p span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, p.start), min(c.end, p.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

func (s selfStat) String() string {
	if s.count == 0 {
		return fmt.Sprintf("%-18s %8d spans", s.name, 0)
	}
	return fmt.Sprintf("%-18s %8d spans  mean %10.1f us  self %10.1f us", s.name, s.count,
		float64(s.dur)/float64(s.count)/1e3, float64(s.self)/float64(s.count)/1e3)
}
