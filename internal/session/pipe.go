package session

import (
	"context"
	"fmt"

	"repro/internal/wire"
)

// Pipe bundles a Server and a Dialer over one transport: the in-process
// serving harness used by cmd/rstpserve and the load-test examples. Each
// Transfer runs one full session — open, transmit, wait for the
// receiver's output tape to reach |X|, verify, evict — and reports both
// endpoints.
type Pipe struct {
	// Server is the receiver side.
	Server *Server
	// Dialer is the transmitter side.
	Dialer *Dialer
	cfg    Config
}

// NewPipe starts a Server and a Dialer sharing cfg and its transport.
func NewPipe(cfg Config) (*Pipe, error) {
	srv, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	dlr, err := NewDialer(cfg)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &Pipe{Server: srv, Dialer: dlr, cfg: cfg}, nil
}

// TransferResult reports one end-to-end session.
type TransferResult struct {
	// ID is the session ID.
	ID uint32
	// X is the input sequence.
	X []wire.Bit
	// TX and RX are the final endpoint reports (TX always present; RX
	// zero-valued if the server never saw the session).
	TX, RX Report
	// Completed reports Y = X: every message written, none wrong.
	Completed bool
	// Violation is "" when RX's output tape is a prefix of X, else the
	// first prefix violation — the safety condition that must hold even
	// for cancelled or faulted sessions.
	Violation string
}

// Effort is the session's effort estimate in ticks per message:
// t(last-send)/|Y| measured from the session's start tick.
func (r TransferResult) Effort() float64 {
	if r.RX.Writes == 0 || r.TX.LastSend == 0 {
		return 0
	}
	return float64(r.TX.LastSend-r.TX.Start) / float64(r.RX.Writes)
}

// Transfer runs one session end to end: it opens a transmitter-side
// session for x (blocking on backpressure), waits until the server's
// session has written |x| messages or the context is done, verifies the
// prefix invariant and completion, and tears both endpoints down. The
// result is returned even on error (with whatever state was reached), so
// callers can still check safety after a cancellation.
func (p *Pipe) Transfer(ctx context.Context, x []wire.Bit) (TransferResult, error) {
	return p.transfer(ctx, 0, x)
}

// TransferID is Transfer under a caller-chosen session ID — the restart
// path: re-running a transfer under the ID a previous process used
// makes both sides resume that session's durable state from
// Config.Store instead of starting over.
func (p *Pipe) TransferID(ctx context.Context, id uint32, x []wire.Bit) (TransferResult, error) {
	if id == 0 {
		return TransferResult{X: append([]wire.Bit(nil), x...)}, fmt.Errorf("session: TransferID requires a nonzero session id")
	}
	return p.transfer(ctx, id, x)
}

func (p *Pipe) transfer(ctx context.Context, id uint32, x []wire.Bit) (TransferResult, error) {
	res := TransferResult{X: append([]wire.Bit(nil), x...)}
	var (
		conn *Conn
		err  error
	)
	if id == 0 {
		conn, err = p.Dialer.Start(ctx, x)
	} else {
		conn, err = p.Dialer.StartID(ctx, id, x)
	}
	if err != nil {
		return res, err
	}
	res.ID = conn.ID()
	rx, waitErr := p.Server.WaitWrites(ctx, conn.ID(), len(x))
	conn.Close()
	res.TX = conn.Report()
	// Evict the receiver session and take its final report: WaitWrites
	// returned a live one, and Evict returns once the slot is free.
	if final, ok := p.Server.Evict(conn.ID()); ok {
		rx = final
	}
	res.RX = rx
	res.Violation = PrefixCheck(x, rx.Y)
	res.Completed = res.Violation == "" && rx.Writes == len(x)
	return res, waitErr
}

// Close tears down the dialer, the server, and then the transport.
func (p *Pipe) Close() error {
	p.Dialer.Close()
	p.Server.Close()
	return p.cfg.Transport.Close()
}
