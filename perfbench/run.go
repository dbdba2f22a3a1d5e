package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/wire"
)

// setupReps is how many times a run builds its inputs and stack; setup_s
// is the median, so slow builds (first heap growth, page faults) do not
// set it.
const setupReps = 31

// outcome is one transfer as the client saw it.
type outcome struct {
	ran        bool
	due, done  time.Time
	latencyMS  float64
	effort     float64
	violation  bool
	incomplete bool
	errored    bool
}

func (o outcome) failed() bool { return o.violation || o.incomplete || o.errored }

// phase is one measured pass of a workload over one stack.
type phase struct {
	w        workload
	in       *inputs
	st       *stack
	tr       *tracer
	from, to time.Time // the measured window: transfers due in it count
}

// transfer runs session i end to end with the calls session.Pipe.Transfer
// makes, one by one so each gets its own timing: open, wait for |x|
// writes, close, snapshot the transmitter, evict the receiver, check the
// output tape. The deadline runs from the transfer's due time.
func (ph *phase) transfer(i int, x []wire.Bit, due time.Time) outcome {
	o := outcome{ran: true, due: due}
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(ph.w.deadline))
	defer cancel()
	srv, dlr, tr := ph.st.pipe.Server, ph.st.pipe.Dialer, ph.tr
	rec := tr.rec(i)

	t0 := time.Now()
	conn, err := dlr.Start(ctx, x)
	t1 := time.Now()
	if tr != nil {
		tr.dial.observe(int64(t1.Sub(t0)))
		tr.client(rec, spDial, t0, t1)
	}
	if err != nil {
		o.errored = true
		o.done = t1
		tr.client(rec, spTransfer, due, t1)
		return o
	}
	tr.bindID(rec, conn.ID())
	rx, werr := srv.WaitWrites(ctx, conn.ID(), len(x))
	o.done = time.Now()
	conn.Close()
	t3 := time.Now()
	txRep := conn.Report()
	t4 := time.Now()
	if final, ok := srv.Evict(conn.ID()); ok {
		rx = final
	}
	t5 := time.Now()
	if tr != nil {
		tr.wait.observe(int64(o.done.Sub(t1)))
		tr.teardown.observe(int64(t3.Sub(o.done) + t5.Sub(t4)))
		tr.client(rec, spWait, t1, o.done)
		tr.client(rec, spClose, o.done, t3)
		tr.client(rec, spEvict, t4, t5)
		tr.client(rec, spTransfer, due, t5)
	}
	res := session.TransferResult{ID: conn.ID(), X: x, TX: txRep, RX: rx}
	o.violation = session.PrefixCheck(x, rx.Y) != ""
	o.incomplete = !o.violation && rx.Writes != len(x)
	o.errored = werr != nil
	o.latencyMS = float64(o.done.Sub(due)) / float64(time.Millisecond)
	o.effort = res.Effort()
	return o
}

// openLoop starts every transfer at its scheduled time, whether or not
// earlier ones have finished. Each transfer ends by its deadline, so at
// most rate × deadline goroutines are ever in flight.
func (ph *phase) openLoop(start time.Time, outs []outcome) {
	var wg sync.WaitGroup
	for i, x := range ph.in.xs {
		due := start.Add(ph.in.at[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if ph.tr != nil {
			ph.tr.lag.observe(int64(time.Since(due)))
		}
		wg.Add(1)
		go func(i int, x []wire.Bit, due time.Time) {
			defer wg.Done()
			outs[i] = ph.transfer(i, x, due)
		}(i, x, due)
	}
	wg.Wait()
}

// closedLoop runs the clients until the measured window closes; each
// starts its next transfer as soon as the previous one is torn down.
func (ph *phase) closedLoop(outs []outcome) error {
	var (
		wg        sync.WaitGroup
		exhausted sync.Once
		errOut    error
	)
	for c := 0; c < ph.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; ; j++ {
				due := time.Now()
				if !due.Before(ph.to) {
					return
				}
				if j == ph.in.perClient {
					exhausted.Do(func() { errOut = fmt.Errorf("client %d ran out of pre-generated inputs", c) })
					return
				}
				i := c*ph.in.perClient + j
				outs[i] = ph.transfer(i, ph.in.xs[i], due)
			}
		}(c)
	}
	wg.Wait()
	return errOut
}

// runtimeSample reads the Go runtime counters a run is charged for.
type runtimeSample struct {
	allocs     uint64
	gcCPU      float64
	goroutines uint64
	heapInuse  uint64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return s[i].Value.Uint64()
	}
	var gc float64
	if s[1].Value.Kind() == metrics.KindFloat64 {
		gc = s[1].Value.Float64()
	}
	return runtimeSample{allocs: u(0), gcCPU: gc, goroutines: u(2), heapInuse: u(3) + u(4)}
}

// peaks samples the gauges whose maximum over the run matters.
type peaks struct {
	stop       chan struct{}
	done       chan struct{}
	goroutines uint64
	heapInuse  uint64
	active     int
}

func startPeaks(srv *session.Server) *peaks {
	p := &peaks{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			rt := readRuntime()
			p.goroutines = max(p.goroutines, rt.goroutines)
			p.heapInuse = max(p.heapInuse, rt.heapInuse)
			p.active = max(p.active, srv.ActiveCount())
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

func (p *peaks) finish() {
	close(p.stop)
	<-p.done
}

// phaseResult is what one phase measured.
type phaseResult struct {
	correct   bool // no output tape, measured or not, violated the prefix invariant
	attempted int
	failed    int
	// violations, incomplete and errored split failed by cause.
	violations, incomplete, errored int
	// refused, late and overflow are the mux's dropped-frame counters
	// over the whole phase.
	refused, late, overflow int64
	windows                 int // sub-windows the percentiles are taken over
	e2e                     map[string]float64
	layer                   map[string]float64
}

func (ph *phase) run(seconds time.Duration) (phaseResult, error) {
	start := time.Now()
	ph.from = start.Add(warmup)
	ph.to = ph.from.Add(seconds)
	var (
		cpu0 time.Duration
		rt0  runtimeSample
	)
	opened := make(chan struct{})
	go func() {
		time.Sleep(time.Until(ph.from))
		cpu0, rt0 = cpuTime(), readRuntime()
		close(opened)
	}()
	var pk *peaks
	if ph.tr != nil {
		pk = startPeaks(ph.st.pipe.Server)
	}
	outs := make([]outcome, len(ph.in.xs))
	var err error
	if ph.w.rate > 0 {
		ph.openLoop(start, outs)
	} else {
		err = ph.closedLoop(outs)
	}
	<-opened
	cpu1, rt1 := cpuTime(), readRuntime()
	if pk != nil {
		pk.finish()
	}
	if err != nil {
		return phaseResult{}, err
	}

	r := phaseResult{correct: true, e2e: map[string]float64{}}
	// Percentiles are taken per sub-window and the median across
	// sub-windows is reported, so one scheduler or GC hiccup moves one
	// sub-window's tail, not the run's.
	counted := func(o outcome) bool { return o.ran && !o.due.Before(ph.from) && o.due.Before(ph.to) }
	n := 0
	for _, o := range outs {
		if counted(o) {
			n++
		}
	}
	k := ph.w.subWindows(seconds, n)
	lat, eff := make([][]float64, k), make([][]float64, k)
	var (
		writes  int
		lastEnd = ph.from
	)
	// A failed transfer ranks above every completed one, as if it took
	// forever; if a percentile lands on one, it reads as the deadline.
	failLat := float64(ph.w.deadline) / float64(time.Millisecond)
	failEff := float64(ph.w.deadline) / float64(ph.st.clock.Tick()) / float64(ph.w.bits)
	for _, o := range outs {
		if o.violation {
			r.correct = false
		}
		if !counted(o) {
			continue
		}
		r.attempted++
		sw := int(int64(o.due.Sub(ph.from)) * int64(k) / int64(seconds))
		if o.failed() {
			r.failed++
			switch {
			case o.violation:
				r.violations++
			case o.incomplete:
				r.incomplete++
			default:
				r.errored++
			}
			lat[sw] = append(lat[sw], failLat)
			eff[sw] = append(eff[sw], failEff)
			continue
		}
		lat[sw] = append(lat[sw], o.latencyMS)
		eff[sw] = append(eff[sw], o.effort)
		writes += ph.w.bits
		if o.done.After(lastEnd) {
			lastEnd = o.done
		}
	}
	if r.attempted == 0 {
		return r, fmt.Errorf("no transfer was due in the measured window")
	}
	r.windows = k
	r.e2e["transfer_p50_ms"] = windowedQuantile(lat, 0.50)
	r.e2e["transfer_p99_ms"] = windowedQuantile(lat, 0.99)
	r.e2e["effort_p50_ticks"] = windowedQuantile(eff, 0.50)
	r.e2e["effort_p99_ticks"] = windowedQuantile(eff, 0.99)
	if writes > 0 {
		r.e2e["goodput_msgs_per_s"] = float64(writes) / lastEnd.Sub(ph.from).Seconds()
		r.e2e["cpu_us_per_msg"] = float64(cpu1-cpu0) / float64(time.Microsecond) / float64(writes)
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()
	r.e2e["failed_share"] = failureUpperBound(r.failed, r.attempted)
	c := ph.st.reg.Snapshot().Counters
	r.refused, r.late, r.overflow = c["rstp_server_frames_refused_total"], c["rstp_server_frames_late_total"], c["rstp_session_overflow_total"]
	if ph.tr != nil {
		r.layer = ph.layerMetrics(pk, rt0, rt1, cpu1-cpu0, writes)
	}
	return r, nil
}

// windowedQuantile is the median over sub-windows of each sub-window's
// q-quantile.
func windowedQuantile(windows [][]float64, q float64) float64 {
	var qs []float64
	for _, xs := range windows {
		if len(xs) == 0 {
			continue
		}
		sort.Float64s(xs)
		qs = append(qs, quantileSorted(xs, q))
	}
	return median(qs)
}

// layerMetrics reads the traced run's per-layer numbers: call timings
// from the wrappers, counters and histograms from the registry (which
// cover the whole phase, warm-up and drain included), and runtime peaks.
func (ph *phase) layerMetrics(pk *peaks, rt0, rt1 runtimeSample, cpu time.Duration, writes int) map[string]float64 {
	tr := ph.tr
	snap := ph.st.reg.Snapshot()
	c, h := snap.Counters, snap.Histograms
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"session.dial_us_p50":          tr.dial.quantile(0.50) / 1e3,
		"session.dial_us_p99":          tr.dial.quantile(0.99) / 1e3,
		"session.wait_ms_p50":          tr.wait.quantile(0.50) / 1e6,
		"session.wait_ms_p99":          tr.wait.quantile(0.99) / 1e6,
		"session.teardown_us_p99":      tr.teardown.quantile(0.99) / 1e3,
		"session.step_gap_short_share": ratio(float64(tr.gapShort.Load()), float64(tr.gaps.Load())),
		"session.step_gap_long_share":  ratio(float64(tr.gapLong.Load()), float64(tr.gaps.Load())),
		"session.frames_refused":       float64(c["rstp_server_frames_refused_total"]),
		"session.frames_late":          float64(c["rstp_server_frames_late_total"]),
		"session.inbox_overflow":       float64(c["rstp_session_overflow_total"]),
		"session.deadline_miss_share":  shareAtMost(h["rstp_deadline_margin_ticks"], -1),
		"session.retained_reports":     float64(len(ph.st.pipe.Server.Reports()) + len(ph.st.pipe.Dialer.Reports())),
		"session.active_peak":          float64(pk.active),

		"transport.send_ns_p50":        tr.send.quantile(0.50),
		"transport.send_ns_p99":        tr.send.quantile(0.99),
		"transport.sends_per_write":    ratio(float64(tr.sends.Load()), float64(tr.writes.Load())),
		"transport.delivery_ticks_p50": float64(obs.BucketQuantile(h["rstp_transport_delivery_ticks"], 0.50)),
		"transport.delivery_ticks_p99": float64(obs.BucketQuantile(h["rstp_transport_delivery_ticks"], 0.99)),
		"transport.late_share":         lateShare(h["rstp_transport_delivery_ticks"], params.D),

		"proto.new_pair_us_p50":   tr.newPair.quantile(0.50) / 1e3,
		"proto.local_step_ns_p50": tr.localStep.quantile(0.50),
		"proto.local_step_ns_p99": tr.localStep.quantile(0.99),
		"proto.recv_apply_ns_p50": tr.recvApply.quantile(0.50),
		"proto.recv_apply_ns_p99": tr.recvApply.quantile(0.99),
		"proto.steps_per_write":   ratio(float64(tr.steps.Load()), float64(tr.writes.Load())),

		"rateless.symbols_per_block_mean": h["rstp_rateless_symbols_per_block"].Mean,
		"rateless.symbols_per_block_p99":  float64(obs.BucketQuantile(h["rstp_rateless_symbols_per_block"], 0.99)),
		"rateless.stale_share": ratio(float64(c["rstp_rateless_symbols_stale_total"]),
			float64(c["rstp_rateless_symbols_received_total"]+c["rstp_rateless_symbols_stale_total"])),
		"rateless.acks_per_block": ratio(float64(c["rstp_rateless_acks_sent_total"]), float64(c["rstp_rateless_blocks_decoded_total"])),

		"runtime.allocs_per_write": ratio(float64(rt1.allocs-rt0.allocs), float64(writes)),
		"runtime.gc_cpu_fraction":  ratio(rt1.gcCPU-rt0.gcCPU, cpu.Seconds()),
		"runtime.goroutines_peak":  float64(pk.goroutines),
		"runtime.heap_inuse_mb":    float64(pk.heapInuse) / (1 << 20),

		"generator.lag_p99_ms": tr.lag.quantile(0.99) / 1e6,
	}
}

// shareAtMost is the share of a histogram's samples in buckets whose
// upper bound is at most v.
func shareAtMost(h obs.HistogramSnapshot, v int64) float64 {
	if h.Count == 0 {
		return 0
	}
	var n int64
	for _, b := range h.Buckets {
		if !b.Inf && b.LE <= v {
			n = b.Count
		}
	}
	return float64(n) / float64(h.Count)
}

// lateShare is the share of deliveries certainly later than d ticks: the
// delivery histogram's bounds are 1, 2, 4, 8, 16, ..., so it counts the
// samples above the first bound at or above d (16 for d = 12); those in
// (d, 16] cannot be told apart from on-time ones.
func lateShare(h obs.HistogramSnapshot, d int64) float64 {
	if h.Count == 0 {
		return 0
	}
	for _, b := range h.Buckets {
		if b.Inf || b.LE >= d {
			return 1 - float64(b.Count)/float64(h.Count)
		}
	}
	return 0
}
