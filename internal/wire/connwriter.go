package wire

import (
	"net"
	"sync"
	"time"
)

// ConnWriter is the write half of a multiplexed connection, shared by
// every goroutine that sends on it: there is no writer goroutine, the
// sender writes its own frame. A send is two steps. Queue encodes the
// frame head into the filling FrameWriter under a short lock that is
// never held across I/O; Flush takes the write lock, swaps the filling
// writer for the idle one and ships everything that was queued — its
// own frame and those of every sender that queued meanwhile — in one
// vectored write under an armed write deadline. The rule is: whoever
// holds the write lock flushes everyone's queued frames. A sender that
// finds its frame already gone when it gets the lock has nothing left
// to do.
//
// Every sender calls Flush after Queue, and Flush does not return
// before the write that carried the sender's frame has, so the
// FrameWriter aliasing contract is the caller's to keep only until its
// own Flush returns: a queued Data buffer may be reused then, whoever
// wrote it.
//
// A flush error leaves a frame half written: the stream is unframed
// and the caller must close the connection. Later flushes then fail at
// once.
type ConnWriter struct {
	conn net.Conn
	// perByte extends the write deadline per byte flushed, so that a
	// sender carrying someone else's batch is not held to the bound of
	// its own small frame.
	perByte time.Duration
	// shipped, when non-nil, is handed every QueueOwned message once the
	// flush that carried it is over.
	shipped func(*Msg)

	// mu guards the filling side. Never held across I/O.
	mu sync.Mutex
	// fill collects frames until the next flush. Guarded by mu.
	fill *FrameWriter
	// owned are the QueueOwned messages in fill. Guarded by mu.
	owned []*Msg

	// wmu serializes flushes: one writer on the conn at a time.
	wmu sync.Mutex
	// out is the writer being flushed; empty between flushes. Guarded
	// by wmu.
	out *FrameWriter
	// leaving are the QueueOwned messages in out. Guarded by wmu.
	leaving []*Msg
}

// NewConnWriter returns a ConnWriter on conn. perByte is added to every
// flush's deadline per byte it writes; shipped, when non-nil, receives
// each QueueOwned message after the flush that carried it (successful
// or not) and takes ownership back.
func NewConnWriter(conn net.Conn, perByte time.Duration, shipped func(*Msg)) *ConnWriter {
	return &ConnWriter{
		conn:    conn,
		perByte: perByte,
		shipped: shipped,
		fill:    new(FrameWriter),
		out:     new(FrameWriter),
	}
}

// Queue encodes m's frame head for the next flush. m itself is not
// retained — it may live on the caller's stack — but m.Data is
// referenced until the caller's Flush returns.
//
//rmpvet:hotpath
func (w *ConnWriter) Queue(m *Msg) error {
	w.mu.Lock()
	err := w.fill.Queue(m)
	w.mu.Unlock()
	return err
}

// QueueOwned is Queue for a message the writer takes over: m and its
// Data go to the shipped callback (which the writer must have been
// given) once they have left. On error m stays the caller's.
//
//rmpvet:hotpath
func (w *ConnWriter) QueueOwned(m *Msg) error {
	w.mu.Lock()
	err := w.fill.Queue(m)
	if err == nil {
		w.owned = append(w.owned, m)
	}
	w.mu.Unlock()
	return err
}

// Flush writes every frame queued so far, by any sender, in one
// vectored write bounded by timeout plus the per-byte allowance. It
// returns nil without writing when another sender's flush has already
// carried everything.
//
//rmpvet:hotpath
func (w *ConnWriter) Flush(timeout time.Duration) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.mu.Lock()
	w.fill, w.out = w.out, w.fill
	w.owned, w.leaving = w.leaving, w.owned
	w.mu.Unlock()
	if w.out.Frames() == 0 {
		return nil
	}
	timeout += time.Duration(w.out.Buffered()) * w.perByte
	w.conn.SetWriteDeadline(time.Now().Add(timeout))
	err := w.out.FlushTo(w.conn)
	for i, m := range w.leaving {
		w.shipped(m)
		w.leaving[i] = nil
	}
	w.leaving = w.leaving[:0]
	return err
}
