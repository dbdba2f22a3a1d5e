package session

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// tickAct is the stepRecorder's one local action: it sends nothing and
// writes nothing, so an endpoint's step is pure scheduling.
type tickAct struct{}

func (tickAct) Kind() string   { return "tick" }
func (tickAct) String() string { return "tick" }

// stepRecorder is an automaton that records Clock.Now() at every local
// step. One of them (stallAt > 0) sleeps through its stallAt-th step for
// stall, holding up the step loop it runs on.
type stepRecorder struct {
	clock   *transport.Clock
	ticks   []int64
	steps   atomic.Int64 // len(ticks), readable while the loop runs
	stallAt int
	stall   time.Duration
}

func (a *stepRecorder) Name() string                  { return "step-recorder" }
func (a *stepRecorder) Classify(ioa.Action) ioa.Class { return ioa.ClassInternal }
func (a *stepRecorder) Apply(ioa.Action) error        { return nil }
func (a *stepRecorder) NextLocal() (ioa.Action, bool) {
	a.ticks = append(a.ticks, a.clock.Now())
	a.steps.Add(1)
	if len(a.ticks) == a.stallAt {
		time.Sleep(a.stall)
	}
	return tickAct{}, true
}

// recorderBuilder hands out stepRecorders and keeps them for inspection.
type recorderBuilder struct {
	clock *transport.Clock
	made  []*stepRecorder
	stall time.Duration
}

func (b *recorderBuilder) String() string { return "step-recorder" }
func (b *recorderBuilder) NewPair([]wire.Bit) (t, r ioa.Automaton, err error) {
	a := &stepRecorder{clock: b.clock}
	if len(b.made) == 0 {
		a.stallAt, a.stall = 20, b.stall
	}
	b.made = append(b.made, a)
	return a, &stepRecorder{clock: b.clock}, nil
}

// TestStepGapRuleUnderStall pins the step loop's gap rule: 200 endpoints
// share one clock and one endpoint's step blocks the loop for
// 5·StepGap. No endpoint may ever take two steps less than StepGap
// apart — the ticks a late loop missed are counted as skipped, never
// caught up in a burst.
func TestStepGapRuleUnderStall(t *testing.T) {
	const endpoints = 200
	clock := transport.NewClock(transport.DefaultTick)
	mem := transport.NewMem(clock, transport.MemOptions{D: testParams().D})
	defer mem.Close()
	reg := obs.NewRegistry()
	cfg := testConfig(t, nil, mem, clock)
	gap := testParams().C2
	b := &recorderBuilder{clock: clock, stall: clock.Ticks(5 * gap)}
	cfg.Solution = b
	cfg.MaxSessions = endpoints
	cfg.Obs = reg
	d, err := NewDialer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Start runs on this goroutine, so b.made is only appended here.
	for i := 0; i < endpoints; i++ {
		if _, err := d.Start(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Let the stalling endpoint run well past its stall.
	stalled := b.made[0]
	deadline := time.Now().Add(20 * time.Second)
	for stalled.steps.Load() < int64(stalled.stallAt+20) {
		if time.Now().After(deadline) {
			t.Fatalf("step loop made no progress: %d steps", stalled.steps.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.Close() // the loop is out of the dialer's ticks once Close returns

	// The first step after the stall.
	stallEnd := stalled.ticks[stalled.stallAt]
	for i, a := range b.made {
		if len(a.ticks) < 10 {
			t.Errorf("endpoint %d took only %d steps", i, len(a.ticks))
		}
		burst := 0
		for j := 1; j < len(a.ticks); j++ {
			if g := a.ticks[j] - a.ticks[j-1]; g < gap {
				t.Fatalf("endpoint %d steps %d and %d are %d ticks apart, want >= StepGap %d (steps %v)", i, j-1, j, g, gap, a.ticks)
			}
		}
		for _, tk := range a.ticks {
			if tk >= stallEnd && tk < stallEnd+gap {
				burst++
			}
		}
		if burst > 1 {
			t.Errorf("endpoint %d took %d steps in the StepGap after the stall", i, burst)
		}
	}
	if got := reg.Snapshot().Counters["rstp_session_steps_skipped_total"]; got <= 0 {
		t.Errorf("steps skipped = %d after a 5·StepGap stall, want > 0", got)
	}
}

// TestWaitWritesBeforeFirstFrame starts WaitWrites before the session
// exists anywhere: it must wait on the server's spawn signal, then on the
// session's writes, and return once all of them land.
func TestWaitWritesBeforeFirstFrame(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, _ := memConfig(t, sol, nil)
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	x := inputFor(t, sol, 4, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	type result struct {
		rep Report
		err error
	}
	done := make(chan result, 1)
	// The dialer allocates IDs from 1, so the first session is 1.
	go func() {
		rep, err := pipe.Server.WaitWrites(ctx, 1, len(x))
		done <- result{rep, err}
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case r := <-done:
		t.Fatalf("WaitWrites returned before the session existed: %+v, %v", r.rep, r.err)
	default:
	}
	conn, err := pipe.Dialer.Start(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.ID() != 1 {
		t.Fatalf("first session got ID %d, want 1", conn.ID())
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("WaitWrites: %v", r.err)
	}
	if r.rep.Writes != len(x) || PrefixCheck(x, r.rep.Y) != "" {
		t.Fatalf("WaitWrites returned %d writes (prefix check %q), want all %d", r.rep.Writes, PrefixCheck(x, r.rep.Y), len(x))
	}
}
