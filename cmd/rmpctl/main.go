// Command rmpctl is a diagnostic client for remote memory servers:
// it speaks the RMP wire protocol from the command line so an
// operator can probe servers, move pages by hand, and rehearse
// failure drills.
//
// Usage:
//
//	rmpctl -server host:7077 load
//	rmpctl -server host:7077 stats
//	rmpctl -server host:7077 alloc 64
//	rmpctl -server host:7077 put 7 < page.bin     (exactly 8192 bytes)
//	rmpctl -server host:7077 get 7 > page.bin
//	rmpctl -server host:7077 free 7 8 9
//	rmpctl -server host:7077 ping                  (heartbeat: rtt, load, drain, peers)
//	rmpctl -server host:7077 join host2:7077       (announce a new member)
//	rmpctl -server host:7077 drain                 (ask the server to leave gracefully)
//	rmpctl -registry servers.conf survey           (load of every server)
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"time"

	"rmp/internal/client"
	"rmp/internal/page"
)

func main() {
	var (
		serverAddr = flag.String("server", "", "server address (host:port)")
		registry   = flag.String("registry", "", "registry file for the survey command")
		name       = flag.String("name", "rmpctl", "client name (namespace on the server)")
		token      = flag.String("token", "", "auth token")
		reqTimeout = flag.Duration("req-timeout", 0, "per-request deadline ceiling (0 = client default)")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("rmpctl: need a command: load | stats | alloc N | put KEY | get KEY | free KEY... | ping | join ADDR | drain | survey")
	}

	cmd := args[0]
	if cmd == "survey" {
		survey(*registry, *name, *token, *reqTimeout)
		return
	}
	if *serverAddr == "" {
		log.Fatal("rmpctl: -server required")
	}
	c, err := client.DialWithOptions(*serverAddr, *name, *token,
		client.DialOptions{Deadlines: client.Deadlines{Ceil: *reqTimeout}})
	if err != nil {
		log.Fatalf("rmpctl: %v", err)
	}
	defer c.Bye()

	switch cmd {
	case "load":
		free, err := c.Load()
		check(err)
		fmt.Printf("%s: %d free pages (%d MB), pressure=%v\n",
			*serverAddr, free, free*page.Size>>20, c.PressureAdvised())

	case "alloc":
		need(args, 2)
		n, err := strconv.Atoi(args[1])
		check(err)
		granted, err := c.Alloc(n)
		check(err)
		fmt.Printf("granted %d of %d pages\n", granted, n)

	case "put":
		need(args, 2)
		key := parseKey(args[1])
		buf := page.NewBuf()
		if _, err := io.ReadFull(os.Stdin, buf); err != nil {
			log.Fatalf("rmpctl: reading page from stdin: %v (need exactly %d bytes)", err, page.Size)
		}
		check(c.PageOut(key, buf))
		fmt.Printf("stored page %d (crc %08x)\n", key, buf.Checksum())

	case "get":
		need(args, 2)
		key := parseKey(args[1])
		data, err := c.PageIn(key)
		check(err)
		if _, err := os.Stdout.Write(data); err != nil {
			log.Fatal(err)
		}

	case "free":
		need(args, 2)
		keys := make([]uint64, 0, len(args)-1)
		for _, a := range args[1:] {
			keys = append(keys, parseKey(a))
		}
		check(c.Free(keys...))
		fmt.Printf("freed %d pages\n", len(keys))

	case "stats":
		info, err := c.Stat()
		check(err)
		fmt.Printf("server %s\n", info.Name)
		fmt.Printf("  stored pages    %d (%d MB)%s\n", info.StoredPages,
			info.StoredPages*page.Size>>20, overflowTag(info.InOverflow))
		fmt.Printf("  free pages      %d (%d MB)\n", info.FreePages, info.FreePages*page.Size>>20)
		fmt.Printf("  clients         %d\n", info.Clients)
		fmt.Printf("  pressure        %v\n", info.Pressure)
		fmt.Printf("  puts/gets       %d / %d\n", info.Puts, info.Gets)
		fmt.Printf("  deletes         %d\n", info.Deletes)
		fmt.Printf("  xor writes      %d\n", info.XorWrites)
		fmt.Printf("  misses          %d\n", info.Misses)
		fmt.Printf("  denied allocs   %d\n", info.DeniedAllocs)
		fmt.Printf("  tiers           hot %d / cold %d / disk %d (cold %d KB, hot target %d)\n",
			info.HotPages, info.ColdPages, info.DiskPages, info.ColdBytes>>10, info.HotTarget)
		fmt.Printf("  tier hits       hot %d / cold %d / disk %d\n",
			info.HotHits, info.ColdHits, info.DiskHits)
		fmt.Printf("  tier moves      %d demoted, %d spilled, %d promoted\n",
			info.Demotions, info.Spills, info.Promotions)
		if info.LostPages > 0 {
			fmt.Printf("  LOST PAGES      %d (disk-tier verification failures)\n", info.LostPages)
		}

	case "ping":
		start := time.Now()
		free, draining, peers, err := c.Ping(5 * time.Second)
		check(err)
		state := "ok"
		if draining {
			state = "DRAINING"
		}
		fmt.Printf("%s: %s (%v), %d free pages\n", *serverAddr, state,
			time.Since(start).Round(time.Microsecond), free)
		// The adaptive-deadline view: srtt/rttvar are seeded by the
		// HELLO round trip, the deadline is what a page-sized request
		// would be granted right now.
		fmt.Printf("  srtt %v  rttvar %v  deadline(page) %v\n",
			c.RTT().Round(time.Microsecond), c.RTTVar().Round(time.Microsecond),
			c.RequestDeadline(page.Size).Round(time.Millisecond))
		for _, peer := range peers {
			fmt.Printf("  peer %s\n", peer)
		}

	case "join":
		need(args, 2)
		count, err := c.Join(args[1])
		check(err)
		fmt.Printf("announced %s; server now knows %d peer(s)\n", args[1], count)

	case "drain":
		check(c.Drain())
		fmt.Printf("%s: draining — clients will migrate pages away; the daemon exits when empty\n", *serverAddr)

	default:
		log.Fatalf("rmpctl: unknown command %q", cmd)
	}
}

// survey polls every registered server through a throwaway pager, so
// the report shows exactly what the data path would see: liveness,
// load, the adaptive request deadline, and circuit-breaker state.
func survey(registry, name, token string, reqTimeout time.Duration) {
	if registry == "" {
		log.Fatal("rmpctl: survey needs -registry")
	}
	servers, err := client.LoadRegistry(registry)
	if err != nil {
		log.Fatal(err)
	}
	p, err := client.New(client.Config{
		ClientName: name,
		Servers:    servers,
		Policy:     client.PolicyNone,
		AuthToken:  token,
		ReqTimeout: reqTimeout,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()
	for _, info := range p.Survey() {
		if !info.Alive {
			cause := info.DiedCause
			if cause == "" {
				cause = "unreachable"
			}
			fmt.Printf("%-24s DOWN (%s)\n", info.Addr, cause)
			continue
		}
		state := "ok"
		if info.Pressured {
			state = "PRESSURED"
		}
		if info.Suspect {
			state = "SUSPECT"
		}
		if info.Draining {
			state = "DRAINING"
		}
		free := info.Stat.FreePages
		fmt.Printf("%-24s %-9s %6d free pages (%d MB)  tiers %d/%d/%d  srtt %-8v deadline %-8v breaker %s\n",
			info.Addr, state, free, free*page.Size>>20,
			info.Stat.HotPages, info.Stat.ColdPages, info.Stat.DiskPages,
			info.RTT.Round(time.Microsecond), info.ReqDeadline.Round(time.Millisecond),
			breakerTag(info))
	}
}

// breakerTag renders the circuit-breaker column: the state, plus the
// consecutive-timeout count while it is accumulating failures.
func breakerTag(info client.ServerInfo) string {
	if info.Breaker == "closed" && info.BreakerFails == 0 {
		return "closed"
	}
	return fmt.Sprintf("%s (%d consecutive timeouts)", info.Breaker, info.BreakerFails)
}

func overflowTag(in bool) string {
	if in {
		return "  [IN OVERFLOW: parity-log GC advised]"
	}
	return ""
}

func parseKey(s string) uint64 {
	k, err := strconv.ParseUint(s, 10, 64)
	check(err)
	return k
}

func need(args []string, n int) {
	if len(args) < n {
		log.Fatalf("rmpctl: %s needs %d argument(s)", args[0], n-1)
	}
}

func check(err error) {
	if err != nil {
		log.Fatalf("rmpctl: %v", err)
	}
}
