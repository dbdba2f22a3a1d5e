// Command rstpserve runs the concurrent session-serving subsystem: a
// receiver-side server and a transmitter-side load generator in one
// process, connected by an in-memory or UDP-loopback transport, running
// many RSTP sessions at once off a shared real-time clock.
//
// Usage:
//
//	rstpserve -sessions 256 -proto beta -k 4      # 256 concurrent sessions
//	rstpserve -transport udp -sessions 64         # over a UDP loopback pair
//	rstpserve -sessions 128 -loss 0.2 -fwindow 0:2000 -harden
//	rstpserve -transport udp -chaos -loss 0.12 -dup 0.05 -corrupt 0.03 -harden
//	rstpserve -shed evict-oldest-idle -watchdog 4 # overload + wedge defense
//	rstpserve -adaptive -resilient -sessions 128  # closed-loop overload control
//	rstpserve -bench -sessions 200                # emit BENCH_serve.json
//	rstpserve -store-dir /tmp/rstp -sessions 64   # durable crash-restart serving
//
// Every session's output tape is verified against its input: Y must be a
// prefix of X throughout and equal to X at completion. The tool prints a
// machine-readable JSON summary and exits nonzero if any session
// violates the prefix invariant or fails to complete — the same
// convention as rstpchaos.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/benchmatrix"
	"repro/internal/chanmodel"
	"repro/internal/control"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/rateless"
	"repro/internal/rstp"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/wire"
)

// metricsReady, when non-nil, is called with the bound metrics address
// once the -metrics-addr listener is up. Tests hook it to scrape the
// endpoint of an in-process run without racing the listener.
var metricsReady func(addr string)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rstpserve:", err)
		os.Exit(1)
	}
}

// summary is the machine-readable report printed after a run (and, in
// -bench mode, written to the BENCH_*.json file). See EXPERIMENTS.md for
// the schema note.
type summary struct {
	Schema string `json:"schema"`
	// Meta stamps the artifact with provenance (commit, Go version,
	// GOMAXPROCS, wall clock) shared with every BENCH_*.json emitter.
	Meta           benchmatrix.Meta `json:"meta"`
	Proto          string           `json:"proto"`
	Transport      string           `json:"transport"`
	Sessions       int              `json:"sessions"`
	Completed      int              `json:"completed"`
	Violations     int              `json:"violations"`
	Incomplete     int              `json:"incomplete"`
	Errors         int              `json:"errors"`
	BitsPerSession int              `json:"bits_per_session"`
	TickMicros     float64          `json:"tick_us"`
	WallMS         float64          `json:"wall_ms"`
	SessionsPerSec float64          `json:"sessions_per_sec"`
	GoodputMsgSec  float64          `json:"goodput_msgs_per_sec"`
	EffortMean     float64          `json:"effort_mean_ticks_per_msg"`
	EffortMax      float64          `json:"effort_max_ticks_per_msg"`
	EffortBound    float64          `json:"effort_bound_ticks_per_msg"`
	Sends          int              `json:"sends"`
	SendErrors     int              `json:"send_errors"`
	Deliveries     int              `json:"deliveries"`
	Writes         int              `json:"writes"`
	Refused        int              `json:"refused"`
	Late           int              `json:"late"`
	Stray          int              `json:"stray"`
	Faults         string           `json:"faults,omitempty"`
	// Resilience-layer counters (PR 4; see EXPERIMENTS.md E20).
	Wedged       int   `json:"wedged"`
	Shed         int   `json:"shed"`
	Resyncs      int   `json:"resyncs"`
	BreakerOpens int64 `json:"breaker_opens"`
	Retransmits  int64 `json:"retransmits"`
	UDPMalformed int64 `json:"udp_malformed"`
	UDPDropped   int64 `json:"udp_dropped"`
	// Chaos middleware injection counters, when -chaos is set.
	ChaosDropped    int `json:"chaos_dropped,omitempty"`
	ChaosDuplicated int `json:"chaos_duplicated,omitempty"`
	ChaosCorrupted  int `json:"chaos_corrupted,omitempty"`
	ChaosDelayed    int `json:"chaos_delayed,omitempty"`
	// Observability keys (PR 5; see EXPERIMENTS.md E21). EffortLowerBound
	// is the paper's per-protocol lower bound (Thm 5.3 r-passive, Thm 5.6
	// active); EffortGapMeanTicks is the mean of the live effort-gap
	// histogram (measured inter-write gap minus that bound). Interrupted
	// marks a summary flushed on SIGINT/SIGTERM rather than at completion.
	EffortLowerBound  float64 `json:"effort_lower_bound_ticks_per_msg"`
	EffortGapMean     float64 `json:"effort_gap_mean_ticks,omitempty"`
	DeadlineMarginP99 int64   `json:"deadline_margin_p99_ticks,omitempty"`
	Interrupted       bool    `json:"interrupted,omitempty"`
	MetricsAddr       string  `json:"metrics_addr,omitempty"`
	TraceDropped      int64   `json:"trace_dropped,omitempty"`
	// Durable-store keys (PR 6; see EXPERIMENTS.md E22), present only with
	// -store-dir. Resumed counts sessions that restarted with a persisted
	// output tape; the Journal* keys snapshot the checkpoint journal.
	// Adaptive-control keys (PR 7; see EXPERIMENTS.md E23), present only
	// with -adaptive: the controller's final ladder level, intervention
	// counters, the per-k admission histogram and the per-level dwell
	// times in ticks.
	ControlLevel      string           `json:"control_level,omitempty"`
	ControlPaced      int64            `json:"control_paced,omitempty"`
	ControlPaceTicks  int64            `json:"control_pace_ticks,omitempty"`
	ControlGated      int64            `json:"control_gated,omitempty"`
	ControlRefused    int64            `json:"control_refused,omitempty"`
	ControlRTOChanges int64            `json:"control_rto_changes,omitempty"`
	ControlEvictions  int64            `json:"control_evictions,omitempty"`
	ControlRetires    int64            `json:"control_retires,omitempty"`
	ControlKHist      map[string]int64 `json:"control_k_histogram,omitempty"`
	ControlDwell      map[string]int64 `json:"control_level_dwell_ticks,omitempty"`
	// Cross-family selection (this PR): the candidate the controller is
	// currently admitting under ("" = the native family) and how many
	// times it crossed a family boundary.
	ControlSelected    string `json:"control_selected,omitempty"`
	ControlFamSwitches int64  `json:"control_family_switches,omitempty"`
	StoreDir           string `json:"store_dir,omitempty"`
	Resumed            int64  `json:"resumed,omitempty"`
	JournalSaves       int64  `json:"journal_saves,omitempty"`
	JournalSaveErrors  int64  `json:"journal_save_errors,omitempty"`
	JournalReplayed    int64  `json:"journal_replayed,omitempty"`
	JournalTruncations int64  `json:"journal_truncations,omitempty"`
	JournalCompactions int64  `json:"journal_compactions,omitempty"`
	JournalSizeBytes   int64  `json:"journal_size_bytes,omitempty"`
	JournalKeys        int64  `json:"journal_keys,omitempty"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rstpserve", flag.ContinueOnError)
	var (
		sessions    = fs.Int("sessions", 32, "number of sessions to transfer")
		conc        = fs.Int("conc", 0, "max concurrent sessions (default min(sessions, 512))")
		proto       = fs.String("proto", "beta", "protocol: alpha, beta, gamma or rateless")
		k           = fs.Int("k", 4, "packet alphabet size (beta/gamma/rateless)")
		rateless_   = fs.Bool("rateless", false, "serve the fountain-coded rateless burst protocol (shorthand for -proto rateless); natively loss-tolerant, so -harden/-stabilize do not apply")
		c1          = fs.Int64("c1", 2, "minimum step gap c1")
		c2          = fs.Int64("c2", 3, "maximum step gap c2")
		d           = fs.Int64("d", 12, "channel delay bound d")
		n           = fs.Int("n", 4, "input length per session, in blocks")
		tick        = fs.Duration("tick", transport.DefaultTick, "wall-clock length of one model tick")
		transName   = fs.String("transport", "mem", "transport: mem or udp")
		seed        = fs.Int64("seed", 1, "seed for inputs, delays and fault plans")
		harden      = fs.Bool("harden", false, "wrap sessions in the hardened reliability layer")
		stabilize   = fs.Bool("stabilize", false, "wrap sessions in the stabilizing recovery layer")
		storeDir    = fs.String("store-dir", "", "persist session checkpoints and output tapes into a journal in this directory (implies -stabilize; restarting against the same directory with the same -seed resumes interrupted sessions)")
		idle        = fs.Int64("idle", -1, "server idle-eviction threshold in ticks (-1 = off; the load generator evicts each session explicitly)")
		loss        = fs.Float64("loss", 0, "drop probability inside -fwindow (mem transport)")
		dup         = fs.Float64("dup", 0, "duplication probability inside -fwindow")
		corrupt     = fs.Float64("corrupt", 0, "corruption probability inside -fwindow")
		fwindow     = fs.String("fwindow", "0:2000", "send-time window from:to for -loss/-dup/-corrupt")
		blackout    = fs.String("blackout", "", "blackout window from:to (empty = none)")
		excess      = fs.Int64("excess", 0, "extra delay beyond d inside -fwindow")
		chaos       = fs.Bool("chaos", false, "inject the fault flags through the transport.Chaos middleware (works over any transport, including udp)")
		resilient   = fs.Bool("resilient", false, "wrap the transport in the transport.Resilient retransmission/breaker layer")
		shed        = fs.String("shed", "refuse", "overload policy at the -conc cap: refuse or evict-oldest-idle")
		adaptive    = fs.Bool("adaptive", false, "run the closed-loop control plane: occupancy-gated/paced admission, per-session k-selection from the paper's bound tables (beta/gamma; with -store-dir the chosen k is journaled and restarts resume under it), RTO adaptation (needs -resilient) and the shed-escalation ladder")
		watchdog    = fs.Int("watchdog", 0, "progress watchdog multiplier k: wedge a session after k*delta1*c2 ticks without output growth (0 = off)")
		bench       = fs.Bool("bench", false, "benchmark mode: also write the summary to -benchout")
		benchout    = fs.String("benchout", "BENCH_serve.json", "bench output file for -bench")
		verbose     = fs.Bool("v", false, "print one line per session")
		timeout     = fs.Duration("timeout", 2*time.Minute, "overall run deadline")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics (Prometheus text), /metrics.json (snapshot with live session table) and /debug/pprof on this address (empty = off)")
		trace       = fs.Bool("trace", false, "record per-session protocol event traces into bounded ring buffers (visible in the JSON snapshot)")
		flush       = fs.Duration("flush", 0, "print a one-line observability summary at this interval while the run is in flight (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rateless_ {
		*proto = "rateless"
	}

	// The registry always exists — with no -metrics-addr/-trace it costs a
	// handful of atomics on the hot path and nothing is ever scraped.
	reg := obs.NewRegistry()
	if *trace {
		reg.Tracer().Enable(512, 1024)
	}

	p := rstp.Params{C1: *c1, C2: *c2, D: *d}
	var store *journal.Store
	if *storeDir != "" {
		// Durable serving rides on the stabilized recovery layer: the
		// journal holds its checkpoints and the sessions' output tapes, and
		// Recover mode makes every (re)start load whatever the directory
		// already holds — empty on a first run, a mid-transfer snapshot
		// after a crash.
		*stabilize = true
		var jerr error
		store, jerr = journal.Open(*storeDir, journal.Options{Obs: reg})
		if jerr != nil {
			return fmt.Errorf("-store-dir: %w", jerr)
		}
		defer store.Close()
	}
	sol, blockBits, bound, lower, err := buildSolution(*proto, p, *k, *harden, *stabilize, storeOrNil(store), rstp.ObsObserver(reg), *seed, reg)
	if err != nil {
		return err
	}

	clauses, err := faultClauses(*loss, *dup, *corrupt, *excess, *fwindow, *blackout)
	if err != nil {
		return err
	}

	shedPolicy, err := parseShed(*shed)
	if err != nil {
		return err
	}
	if *watchdog < 0 {
		return fmt.Errorf("-watchdog %d: the multiplier must be >= 0 (0 disables the watchdog)", *watchdog)
	}

	clock := transport.NewClock(*tick)
	var (
		trans      transport.Transport
		udpT       *transport.UDP
		chaosT     *transport.Chaos
		resT       *transport.Resilient
		faultsDesc string
	)
	switch *transName {
	case "mem":
		var delay chanmodel.DelayPolicy = &chanmodel.UniformRandom{D: p.D, Rand: rand.New(rand.NewSource(*seed))}
		if len(clauses) > 0 && !*chaos {
			plan := faults.NewPlan(*seed, delay, clauses...)
			faultsDesc = plan.Name()
			delay = plan
		}
		trans = transport.NewMem(clock, transport.MemOptions{D: p.D, Delay: delay, Buffer: 1 << 15})
	case "udp":
		if len(clauses) > 0 && !*chaos {
			return fmt.Errorf("fault injection over udp needs -chaos (the middleware injects in front of the socket; bare UDP faults are the kernel's business)")
		}
		u, err := transport.NewUDPLoopback(1 << 14)
		if err != nil {
			return err
		}
		udpT = u
		trans = u
	default:
		return fmt.Errorf("unknown transport %q (mem, udp)", *transName)
	}
	if *chaos {
		if len(clauses) == 0 {
			return fmt.Errorf("-chaos without fault flags injects nothing: set -loss/-dup/-corrupt/-excess/-blackout")
		}
		// The plan wraps the zero delay policy: the middleware adds only
		// the *extra* chaos on top of whatever latency the inner transport
		// already has, instead of double-counting a base delay.
		plan := faults.NewPlan(*seed, chanmodel.Zero{}, clauses...)
		faultsDesc = "chaos:" + plan.Name()
		chaosT = transport.NewChaos(trans, clock, plan)
		trans = chaosT
	}
	if *resilient {
		resT = transport.NewResilient(trans, clock, transport.ResilientOptions{D: p.D, C1: p.C1, Seed: *seed})
		trans = resT
	}
	// Instrument the assembled stack outside-in: every layer (resilient,
	// chaos, mem/udp) registers its counters, and Mem starts feeding the
	// delivery-latency histogram.
	transport.Instrument(reg, trans)

	maxConc := *conc
	if maxConc <= 0 {
		maxConc = *sessions
		if maxConc > 512 {
			maxConc = 512
		}
	}
	// The adaptive control plane: built before the mux (it is the mux's
	// Admission hook), bound to its actuators after (the Server and the
	// resilient transport provide them).
	var ctrl *control.Controller
	kBlock := blockBits
	if *adaptive {
		if *proto == "rateless" {
			trans.Close()
			return fmt.Errorf("-adaptive needs a retransmission family as the native protocol (alpha, beta, gamma); rateless rides in its candidate set instead")
		}
		builders, block := adaptiveBuilders(*proto, p, *k, *harden, *stabilize, storeOrNil(store), rstp.ObsObserver(reg), sol, blockBits, *seed, reg)
		cands, block2 := adaptiveCandidates(*proto, p, *k, *harden, *stabilize, storeOrNil(store), rstp.ObsObserver(reg), *seed, reg)
		kBlock = lcmInt(block, block2)
		ctrl, err = control.New(control.Config{
			Registry: reg, Clock: clock, Params: p, Proto: *proto,
			Builders: builders, DefaultK: *k,
			Candidates:     cands,
			Store:          storeOrNil(store),
			Seed:           *seed,
			TargetSessions: maxConc,
		})
		if err != nil {
			trans.Close()
			return err
		}
	}

	pipeCfg := session.Config{
		Solution:         sol,
		Params:           p,
		Transport:        trans,
		Clock:            clock,
		MaxSessions:      maxConc,
		IdleTicks:        *idle,
		Shed:             shedPolicy,
		WatchdogK:        *watchdog,
		WatchdogResync:   *stabilize,
		Obs:              reg,
		EffortLowerBound: lower,
		Store:            storeOrNil(store),
	}
	if ctrl != nil {
		pipeCfg.Admission = ctrl
	}
	pipe, err := session.NewPipe(pipeCfg)
	if err != nil {
		trans.Close()
		return err
	}
	defer pipe.Close()

	if ctrl != nil {
		acts := control.Actuators{
			Active:        func() int64 { return int64(pipe.Server.ActiveCount()) },
			EvictOldest:   pipe.Server.ShedOldest,
			RetireStalled: pipe.Server.RetireStalled,
		}
		if resT != nil {
			acts.SetRTO = resT.SetRTO
		}
		ctrl.Bind(acts)
		ctrl.Start()
		defer ctrl.Stop()
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	// SIGINT/SIGTERM cancel the in-flight transfers; the summary below is
	// still computed and flushed, marked "interrupted": true. Installed
	// before metricsReady fires so a test may signal as soon as it is told
	// the run is up.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	var boundAddr string
	if *metricsAddr != "" {
		msrv, err := reg.Serve(*metricsAddr)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		defer msrv.Close()
		boundAddr = msrv.Addr()
		fmt.Fprintf(out, "metrics listening on http://%s/metrics\n", boundAddr)
		if metricsReady != nil {
			metricsReady(boundAddr)
		}
	}

	stopFlush := make(chan struct{})
	flushDone := make(chan struct{})
	if *flush > 0 {
		go flushLoop(ctx, stopFlush, reg, out, *flush, flushDone)
	} else {
		close(flushDone)
	}

	// With k-selection on, the input length is a block multiple of every
	// candidate alphabet, so a retuned admission never rejects its input.
	bits := *n * kBlock
	rng := rand.New(rand.NewSource(*seed))
	inputs := make([][]wire.Bit, *sessions)
	for i := range inputs {
		inputs[i] = wire.RandomBits(bits, rng.Uint64)
	}

	type outcome struct {
		res session.TransferResult
		err error
	}
	start := time.Now()
	effortN := 0
	results := make([]outcome, *sessions)
	var wg sync.WaitGroup
	for i := 0; i < *sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var (
				res session.TransferResult
				err error
			)
			if store != nil {
				// Durable runs pin session IDs to input indices: a restart
				// against the same directory and -seed re-runs session i+1
				// with the same input, so its persisted state is resumed
				// instead of orphaned under a fresh ID.
				res, err = pipe.TransferID(ctx, uint32(i+1), inputs[i])
			} else {
				res, err = pipe.Transfer(ctx, inputs[i])
			}
			results[i] = outcome{res: res, err: err}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	// Quiesce the flusher before anything else writes to out: the summary
	// must not interleave with a flush line.
	close(stopFlush)
	<-flushDone
	interrupted := ctx.Err() == context.Canceled // signal, not the -timeout deadline

	sum := summary{
		Schema:         "rstp-bench-serve/v1",
		Meta:           benchmatrix.NewMeta("rstp-bench-serve/v1", time.Now().UTC().Format(time.RFC3339)),
		Proto:          sol.String(),
		Transport:      trans.Name(),
		Sessions:       *sessions,
		BitsPerSession: bits,
		TickMicros:     float64(clock.Tick()) / float64(time.Microsecond),
		WallMS:         float64(wall) / float64(time.Millisecond),
		EffortBound:    bound,
		Faults:         faultsDesc,
	}
	for i, o := range results {
		res := o.res
		if o.err != nil {
			sum.Errors++
		}
		if res.Violation != "" {
			sum.Violations++
		}
		if res.Completed {
			sum.Completed++
		} else {
			sum.Incomplete++
		}
		sum.Sends += res.TX.Sends + res.RX.Sends
		sum.Deliveries += res.TX.Deliveries + res.RX.Deliveries
		sum.Writes += res.RX.Writes
		sum.SendErrors += res.TX.SendErrors + res.RX.SendErrors
		// Effort statistics are over completed sessions only (the schema's
		// documented population): an incomplete session's last send tick
		// says nothing about the per-message cost the bound quantifies.
		if e := res.Effort(); e > 0 && res.Completed {
			sum.EffortMean += e
			effortN++
			if e > sum.EffortMax {
				sum.EffortMax = e
			}
		}
		if *verbose {
			fmt.Fprintf(out, "session %d: completed=%v writes=%d/%d effort=%.2f err=%v violation=%q\n",
				res.ID, res.Completed, res.RX.Writes, len(inputs[i]), res.Effort(), o.err, res.Violation)
		}
	}
	if effortN > 0 {
		sum.EffortMean /= float64(effortN)
	}
	if secs := wall.Seconds(); secs > 0 {
		sum.SessionsPerSec = float64(sum.Completed) / secs
		sum.GoodputMsgSec = float64(sum.Writes) / secs
	}
	sum.Refused = pipe.Server.Refused()
	sum.Late = pipe.Server.Late()
	sum.Stray = pipe.Dialer.Stray()
	srvAgg := pipe.Server.Aggregate()
	sum.Wedged = srvAgg.Wedged
	sum.Shed = pipe.Server.Shed()
	sum.Resyncs = srvAgg.Resyncs
	if udpT != nil {
		sum.UDPMalformed = udpT.Malformed()
		sum.UDPDropped = udpT.Dropped()
	}
	if chaosT != nil {
		_, dropped, duplicated, corrupted, delayed := chaosT.Stats()
		sum.ChaosDropped = dropped
		sum.ChaosDuplicated = duplicated
		sum.ChaosCorrupted = corrupted
		sum.ChaosDelayed = delayed
	}
	if resT != nil {
		sum.BreakerOpens = resT.BreakerOpens()
		sum.Retransmits = resT.Retransmits()
	}
	if ctrl != nil {
		cs := ctrl.State()
		sum.ControlLevel = cs.Level
		sum.ControlPaced = cs.Paced
		sum.ControlPaceTicks = cs.PaceTicks
		sum.ControlGated = cs.Gated
		sum.ControlRefused = cs.DialRefused + cs.ServerRefused
		sum.ControlRTOChanges = cs.RTOChanges
		sum.ControlEvictions = cs.Evictions
		sum.ControlRetires = cs.Retires
		sum.ControlKHist = cs.KHistogram
		sum.ControlDwell = cs.LevelDwellTicks
		sum.ControlSelected = cs.Selected
		sum.ControlFamSwitches = cs.FamilySwitches
	}
	sum.EffortLowerBound = lower
	sum.Interrupted = interrupted
	sum.MetricsAddr = boundAddr
	snap := reg.Snapshot()
	if h, ok := snap.Histograms["rstp_effort_gap_ticks"]; ok && h.Count > 0 {
		sum.EffortGapMean = h.Mean
	}
	if h, ok := snap.Histograms["rstp_deadline_margin_ticks"]; ok {
		sum.DeadlineMarginP99 = obs.BucketQuantile(h, 0.99)
	}
	if *trace {
		sum.TraceDropped = reg.Tracer().Dropped()
	}
	if store != nil {
		st := store.Stats()
		sum.StoreDir = *storeDir
		sum.Resumed = snap.Counters["rstp_sessions_resumed_total"]
		sum.JournalSaves = st.Saves
		sum.JournalSaveErrors = st.SaveErrors
		sum.JournalReplayed = st.Replayed
		sum.JournalTruncations = st.Truncations
		sum.JournalCompactions = st.Compactions
		sum.JournalSizeBytes = st.Size
		sum.JournalKeys = st.Keys
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		return err
	}
	if *bench {
		f, err := os.Create(*benchout)
		if err != nil {
			return err
		}
		benc := json.NewEncoder(f)
		benc.SetIndent("", "  ")
		err = benc.Encode(sum)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *benchout)
	}
	if sum.Violations > 0 {
		return fmt.Errorf("%d of %d sessions violated the prefix invariant", sum.Violations, *sessions)
	}
	if sum.Completed != *sessions {
		if interrupted {
			// Operator-initiated shutdown: the summary above is the flush;
			// incomplete sessions are expected, not a failure.
			return nil
		}
		return fmt.Errorf("%d of %d sessions did not complete (errors: %d)", sum.Incomplete, *sessions, sum.Errors)
	}
	return nil
}

// flushLoop prints a compact observability line every interval until the
// run finishes (stop) or is cancelled, then signals done. It is the only
// goroutine writing to out while transfers are in flight.
func flushLoop(ctx context.Context, stop <-chan struct{}, reg *obs.Registry, out io.Writer, interval time.Duration, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-stop:
			return
		case <-t.C:
			s := reg.Snapshot()
			fmt.Fprintf(out, "obs: active=%d writes=%d sends=%d deliveries=%d retransmits=%d shed=%d wedged=%d\n",
				s.Gauges["rstp_server_sessions_active"],
				s.Counters["rstp_session_writes_total"],
				s.Counters["rstp_session_sends_total"],
				s.Counters["rstp_session_deliveries_total"],
				s.Counters["rstp_resilient_retransmits_total"],
				s.Counters["rstp_sessions_shed_total"],
				s.Counters["rstp_sessions_wedged_total"])
		}
	}
}

// storeOrNil converts a possibly-nil *journal.Store into an interface
// value that is truly nil when the store is absent (a typed nil inside a
// non-nil interface would defeat every `!= nil` gate downstream).
func storeOrNil(s *journal.Store) rstp.StateStore {
	if s == nil {
		return nil
	}
	return s
}

// buildSolution assembles the protocol stack and reports its block size,
// the paper's effort upper bound for the bare protocol, and the matching
// effort lower bound (Theorem 5.3 for the r-passive alpha/beta, Theorem
// 5.6 for the active gamma and the rateless pair) that the live
// effort-gap metric is measured against. lo is shared by every session
// endpoint the wrappers build; store, when non-nil, makes the stabilized
// layer checkpoint into it and recover from it on construction. seed and
// reg only matter to the rateless family: the seed pins its per-block
// coded streams, the registry receives its rstp_rateless_* instruments.
func buildSolution(proto string, p rstp.Params, k int, harden, stabilize bool, store rstp.StateStore, lo rstp.LayerObserver, seed int64, reg *obs.Registry) (session.PairBuilder, int, float64, float64, error) {
	if proto == "rateless" {
		// The rateless pair is its own loss tolerance: the hardened and
		// stabilized wrappers speak the retransmission families' burst
		// framing and have nothing to add to a fountain-coded stream.
		if harden || stabilize {
			return nil, 0, 0, 0, fmt.Errorf("-proto rateless does not compose with -harden/-stabilize/-store-dir: loss tolerance is native to the code")
		}
		b, err := rateless.NewBuilder(rateless.Options{Params: p, K: k, Seed: seed, Obs: reg})
		if err != nil {
			return nil, 0, 0, 0, err
		}
		lower := rateless.LowerBound(p, k)
		if math.IsInf(lower, 1) || math.IsNaN(lower) {
			lower = 0
		}
		return b, b.BlockBits(), rateless.UpperBound(p, k), lower, nil
	}
	var (
		s     rstp.Solution
		bound float64
		lower float64
		err   error
	)
	switch proto {
	case "alpha":
		s, err = rstp.Alpha(p)
		if err == nil {
			bound = rstp.AlphaEffort(p)
			// Alpha's transmitter alphabet is binary: one bit per packet.
			lower = rstp.PassiveLowerBound(p, 2)
		}
	case "beta":
		s, err = rstp.Beta(p, k)
		if err == nil {
			bound = rstp.BetaUpperBound(p, k)
			lower = rstp.PassiveLowerBound(p, k)
		}
	case "gamma":
		s, err = rstp.Gamma(p, k)
		if err == nil {
			bound = rstp.GammaUpperBound(p, k)
			lower = rstp.ActiveLowerBound(p, k)
		}
	default:
		return nil, 0, 0, 0, fmt.Errorf("unknown protocol %q (alpha, beta, gamma, rateless)", proto)
	}
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if math.IsInf(lower, 1) || math.IsNaN(lower) {
		lower = 0 // degenerate alphabet: disable the gap metric
	}
	sopts := rstp.StabilizeOptions{Observer: lo}
	if store != nil {
		sopts.Store = store
		sopts.Recover = true
	}
	var sol session.PairBuilder = s
	if harden && stabilize {
		sol = rstp.StabilizeHardened(rstp.Harden(s, rstp.HardenOptions{Observer: lo}), sopts)
	} else if harden {
		sol = rstp.Harden(s, rstp.HardenOptions{Observer: lo})
	} else if stabilize {
		sol = rstp.Stabilize(s, sopts)
	}
	return sol, s.BlockBits, bound, lower, nil
}

// adaptiveBuilders assembles the k-selection candidate set for
// -adaptive: the configured k plus its doubling (effort falls with
// log k, so one doubling is the meaningful escape hatch under
// slowdown), each wrapped exactly like the base solution. It also
// reports the lcm of the candidates' block sizes, which the input
// length must be a multiple of. Selection is off — the map stays
// single-entry — only for alpha (a binary alphabet has no k to
// select); durable runs keep the full set because the controller
// records each session's chosen k in the store ("s<id>/k") and resumes
// under it after a restart.
func adaptiveBuilders(proto string, p rstp.Params, baseK int, harden, stabilize bool, store rstp.StateStore, lo rstp.LayerObserver, baseSol session.PairBuilder, baseBlock int, seed int64, reg *obs.Registry) (map[int]session.PairBuilder, int) {
	builders := map[int]session.PairBuilder{baseK: baseSol}
	if proto == "alpha" {
		return builders, baseBlock
	}
	block := baseBlock
	if sol, bb, _, _, err := buildSolution(proto, p, 2*baseK, harden, stabilize, store, lo, seed, reg); err == nil {
		builders[2*baseK] = sol
		block = lcmInt(block, bb)
	}
	return builders, block
}

// adaptiveCandidates assembles the cross-family escape hatches for
// -adaptive: families whose effort upper bound the native one cannot
// reach under slowdown. Serving beta, the active gamma (a full round
// trip per burst but a tighter bound) and the rateless pair (no
// inter-burst wait at all) both ride along; serving gamma, only
// rateless is left above it. Each candidate is wrapped exactly like the
// base solution — except rateless, which is always bare. A candidate
// whose construction fails is simply absent: the controller then holds
// the native family, which is the safe default. The second result is
// the lcm of the candidates' block sizes (1 when there are none).
func adaptiveCandidates(proto string, p rstp.Params, baseK int, harden, stabilize bool, store rstp.StateStore, lo rstp.LayerObserver, seed int64, reg *obs.Registry) ([]control.Candidate, int) {
	var cands []control.Candidate
	block := 1
	add := func(family string) {
		h, st := harden, stabilize
		if family == "rateless" {
			h, st = false, false // natively loss-tolerant; restarts recover through the cumulative ack
		}
		sol, bb, upper, lower, err := buildSolution(family, p, baseK, h, st, store, lo, seed, reg)
		if err != nil || math.IsInf(upper, 1) || math.IsNaN(upper) {
			return
		}
		cands = append(cands, control.Candidate{Proto: family, K: baseK, Builder: sol, Lower: lower, Upper: upper})
		block = lcmInt(block, bb)
	}
	switch proto {
	case "beta":
		add("gamma")
		add("rateless")
	case "gamma":
		add("rateless")
	}
	return cands, block
}

func lcmInt(a, b int) int {
	g, x := a, b
	for x != 0 {
		g, x = x, g%x
	}
	return a / g * b
}

// faultClauses assembles the -loss/-dup/-corrupt/-excess/-blackout flags
// into fault plan clauses, rstpchaos-style.
func faultClauses(loss, dup, corrupt float64, excess int64, fwindow, blackout string) ([]faults.Fault, error) {
	var clauses []faults.Fault
	if loss > 0 || dup > 0 || corrupt > 0 || excess > 0 {
		from, to, err := parseWindow(fwindow)
		if err != nil {
			return nil, fmt.Errorf("-fwindow: %w", err)
		}
		clauses = append(clauses, faults.Fault{
			From: from, To: to,
			Drop: loss, Dup: dup, Corrupt: corrupt, ExtraDelay: excess,
		})
	}
	if blackout != "" {
		from, to, err := parseWindow(blackout)
		if err != nil {
			return nil, fmt.Errorf("-blackout: %w", err)
		}
		clauses = append(clauses, faults.Fault{From: from, To: to, Blackout: true})
	}
	return clauses, nil
}

// parseShed maps the -shed flag onto a session.ShedPolicy.
func parseShed(s string) (session.ShedPolicy, error) {
	switch s {
	case "refuse", "":
		return session.ShedRefuse, nil
	case "evict-oldest-idle":
		return session.ShedEvictOldestIdle, nil
	default:
		return 0, fmt.Errorf("unknown -shed policy %q (refuse, evict-oldest-idle)", s)
	}
}

func parseWindow(s string) (int64, int64, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("window %q not in from:to form", s)
	}
	from, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return 0, 0, err
	}
	to, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return 0, 0, err
	}
	if to < from {
		return 0, 0, fmt.Errorf("window %q ends before it starts", s)
	}
	return from, to, nil
}
