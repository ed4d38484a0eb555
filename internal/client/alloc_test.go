package client

import (
	"bytes"
	"io"
	"testing"

	"rmp/internal/memnet"
	"rmp/internal/page"
	"rmp/internal/server"
	"rmp/internal/wire"
)

// The mux hot path — frame encode, the batching writev writer, pooled
// demux decode, dispatch — runs once per 8 KB page fault; these gates
// pin its steady-state per-frame allocation count at zero, the figure
// the escapegate proves statically and these tests re-measure at
// runtime. White-box on purpose: FrameWriter, FrameReader and dispatch
// are the factored hot-path internals of the send path and read loop.

func muxTestMsg() *wire.Msg {
	data := make([]byte, page.Size)
	return &wire.Msg{
		Type:    wire.TPageOut,
		Version: wire.Version2,
		ID:      7,
		Key:     42,
		Data:    data,
	}
}

func TestFrameEncodeZeroAllocs(t *testing.T) {
	m := muxTestMsg()
	scratch := make([]byte, 0, page.Size+64)
	if avg := testing.AllocsPerRun(200, func() {
		buf, err := wire.AppendFrame(scratch[:0], m)
		if err != nil {
			t.Fatal(err)
		}
		scratch = buf[:0]
	}); avg != 0 {
		t.Fatalf("AppendFrame allocates %.1f objects/frame, want 0", avg)
	}
}

// TestBatchWriteZeroAllocs gates the send path's steady state: once
// the FrameWriter's internal head/vector buffers have grown to batch
// size, Queue+Flush of a pipelined batch performs no allocation — the
// payload rides in the writev vector by reference, never through a
// scratch copy.
func TestBatchWriteZeroAllocs(t *testing.T) {
	fw := wire.NewFrameWriter(io.Discard)
	m := muxTestMsg()
	const batch = 8
	// Prime: first flush grows heads/ends/datas/vecs to batch size.
	for i := 0; i < batch; i++ {
		if err := fw.Queue(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < batch; i++ {
			if err := fw.Queue(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Queue+Flush allocates %.1f objects/batch, want 0", avg)
	}
}

func TestDispatchZeroAllocs(t *testing.T) {
	c := &Conn{pending: map[uint32]chan *wire.Msg{}}
	ch := make(chan *wire.Msg, 1)
	m := muxTestMsg()
	if avg := testing.AllocsPerRun(200, func() {
		c.pending[m.ID] = ch
		c.dispatch(m)
		<-ch
	}); avg != 0 {
		t.Fatalf("dispatch allocates %.1f objects/ack, want 0", avg)
	}
	if n := c.lateDrops.Load(); n != 0 {
		t.Fatalf("dispatch dropped %d acks that were registered", n)
	}
}

// TestDemuxReadZeroAllocs gates the read loop's steady state end to
// end: the FrameReader's in-place decode of a full page ack off the
// stream, dispatch to the pending waiter, and recycle by the consumer —
// zero allocations per frame once the pools are warm.
func TestDemuxReadZeroAllocs(t *testing.T) {
	var raw bytes.Buffer
	ackData := make([]byte, page.Size)
	ack := &wire.Msg{Type: wire.TPageInAck, Version: wire.Version2, ID: 7, Key: 42, Data: ackData}
	if err := wire.Encode(&raw, ack); err != nil {
		t.Fatal(err)
	}
	c := &Conn{pending: map[uint32]chan *wire.Msg{}}
	ch := make(chan *wire.Msg, 1)
	r := bytes.NewReader(raw.Bytes())
	fr := wire.NewFrameReader(r)
	defer fr.Release()
	// Prime the frame and Msg pools.
	for i := 0; i < 4; i++ {
		r.Reset(raw.Bytes())
		m, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		wire.Recycle(m)
	}
	if avg := testing.AllocsPerRun(200, func() {
		r.Reset(raw.Bytes())
		m, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		c.pending[m.ID] = ch
		c.dispatch(m)
		got := <-ch
		if got.Key != 42 || len(got.Data) != page.Size {
			t.Fatal("demux delivered a mangled ack")
		}
		wire.Recycle(got)
	}); avg != 0 {
		t.Fatalf("decode+dispatch allocates %.1f objects/ack, want 0", avg)
	}
}

// TestPagerPairAllocs gates the whole client side of a page fault, not
// just its frames: one overwrite Pager.PageOut plus one Pager.PageIn
// under PolicyNone — the copy engine's single-copy path, with no policy
// work to hide behind — against a live server. The server's goroutines
// run in this process, so the count is client and server together.
//
// Where the allocations of a pair were, and what became of each (the
// pair is two round trips; the parent's 22 were measured with
// -memprofilerate=1):
//
//	 4  the call's reply channel, header and buffer, per enqueue
//	    → pooled with the timer as a waiter: 0
//	 6  time.NewTimer per round trip (Timer, its channel, the runtime
//	    timer) → the pooled waiter's timer is Reset: 0
//	 2  the request Msg, one per Conn.PageOut / Conn.PageIn → no writer
//	    goroutine to hand it to, so it stays on the caller's stack: 0
//	 4  the server's goroutine per request, two objects each
//	    → persistent session workers: 0
//	 2  the ack Msg built by server.handle → wire.GetMsg, recycled
//	    after the flush that ships it: 0
//	 4  memnet's WriteBuffers coalescing a vectored flush into one pipe
//	    write, per flush → still there, test transport only
//	+8  new: net.Pipe allocates a timer and a closure per
//	    SetWriteDeadline, and every flush now arms one, per flush
//	    → test transport only; a TCP socket's deadline allocates nothing
//
// So the pager, the conn mux, the frame codec and the server allocate
// nothing per page in steady state: 0 over loopback TCP, and over
// memnet the 12 that memnet and net.Pipe make themselves.
//
// raceDetector is set by alloc_race_test.go in -race builds.
var raceDetector = false

func TestPagerPairAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under the race detector: the count is noise")
	}
	nw := memnet.New()
	for _, tc := range []struct {
		transport string
		ceiling   float64 // measured, three runs each: exact every time
		serve     func(*server.Server) string
		dial      DialFunc
	}{
		{"tcp", 0, func(s *server.Server) string {
			if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			return s.Addr().String()
		}, nil},
		{"memnet", 12, func(s *server.Server) string {
			s.Serve(nw.MustListen("alloc:7077"))
			return "alloc:7077"
		}, nw.DialTimeout},
	} {
		t.Run(tc.transport, func(t *testing.T) {
			srv := server.New(server.Config{Name: "alloc", CapacityPages: 256})
			defer srv.Close()
			p, err := New(Config{Servers: []string{tc.serve(srv)}, Policy: PolicyNone, Dial: tc.dial})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			data := page.NewBuf()
			data.Fill(7)
			pair := func() {
				if err := p.PageOut(1, data); err != nil {
					t.Fatal(err)
				}
				got, err := p.PageIn(1)
				if err != nil {
					t.Fatal(err)
				}
				page.Put(got)
			}
			for i := 0; i < 8; i++ {
				pair() // place the page, reserve swap space, warm the pools
			}
			if avg := testing.AllocsPerRun(200, pair); avg > tc.ceiling {
				t.Fatalf("PageOut+PageIn pair allocates %.1f objects, ceiling %.0f", avg, tc.ceiling)
			}
		})
	}
}
