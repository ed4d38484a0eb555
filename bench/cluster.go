package main

import (
	"fmt"
	"net"

	"rmp/internal/client"
	"rmp/internal/server"
)

// Server sizing is rmemd's default (256 MB donated, 10 % overflow);
// every other server and pager setting is left at its zero-value
// default unless the workload table sets it.
const (
	serverCapacityPages = 32768
	serverOverflowFrac  = 0.10
)

// cluster is the system under test: in-process servers on loopback
// TCP and one pager dialled to all of them.
type cluster struct {
	servers []*server.Server
	dead    map[int]bool // servers the workload has crashed
	pager   *client.Pager
}

// startCluster brings up w's servers and pager. With a tracer, the
// listeners and the pager's dialled connections are wrapped so that
// every frame crossing them leaves a span.
func startCluster(w *workload, tr *tracer) (*cluster, error) {
	c := &cluster{dead: make(map[int]bool)}
	var addrs []string
	for i := 0; i < w.servers; i++ {
		s := server.New(server.Config{
			Name:          fmt.Sprintf("bench-%d", i),
			CapacityPages: serverCapacityPages,
			OverflowFrac:  serverOverflowFrac,
			HotPages:      w.hotPages,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		if tr != nil {
			ln = &tracedListener{Listener: ln, tr: tr}
		}
		s.Serve(ln)
		c.servers = append(c.servers, s)
		addrs = append(addrs, ln.Addr().String())
	}
	cfg := client.Config{ClientName: "bench", Servers: addrs, Policy: w.policy}
	if tr != nil {
		cfg.Dial = tr.dial
	}
	p, err := client.New(cfg)
	if err != nil {
		c.close()
		return nil, err
	}
	c.pager = p
	return c, nil
}

func (c *cluster) close() {
	if c.pager != nil {
		c.pager.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
}

// kill crashes server i: its listener and sessions close under the
// pager, and what it stored no longer counts.
func (c *cluster) kill(i int) {
	c.dead[i] = true
	c.servers[i].Close()
}

// storeCounts sums the live servers' store counters and occupancy.
type storeCounts struct {
	pages, hot, cold      int
	fullest               int    // pages on the server that holds the most
	gets, coldHits, moves uint64 // moves: demotions + promotions + spills
}

func (c *cluster) storeCounts() storeCounts {
	var n storeCounts
	for i, s := range c.servers {
		if c.dead[i] {
			continue
		}
		st, occ := s.Store().Stats(), s.Store().Occupancy()
		n.pages += occ.Total()
		n.fullest = max(n.fullest, occ.Total())
		n.hot += occ.Hot
		n.cold += occ.Cold
		n.gets += st.Gets
		n.coldHits += st.ColdHits
		n.moves += st.Demotions + st.Promotions + st.Spills
	}
	return n
}
