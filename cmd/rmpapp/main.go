// Command rmpapp runs one of the paper's benchmark applications over
// the remote memory pager — the full live stack: application ->
// demand-paged VM -> block device -> pager -> TCP -> remote memory
// servers.
//
// With -registry it pages against real rmemd daemons; without it, a
// self-contained demo cluster is spun up in-process.
//
//	rmpapp -app FFT -scale 0.02 -policy paritylog -resident 0.25
//	rmpapp -app QSORT -registry servers.conf -policy mirroring
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"rmp/internal/apps"
	"rmp/internal/blockdev"
	"rmp/internal/client"
	"rmp/internal/page"
	"rmp/internal/server"
	"rmp/internal/vm"
)

var policies = map[string]client.Policy{
	"none":         client.PolicyNone,
	"mirroring":    client.PolicyMirroring,
	"parity":       client.PolicyParity,
	"paritylog":    client.PolicyParityLogging,
	"writethrough": client.PolicyWriteThrough,
	"rs":           client.PolicyRS,
}

func main() {
	var (
		app       = flag.String("app", "FFT", "workload: GAUSS|QSORT|FFT|MVEC|FILTER|CC")
		scale     = flag.Float64("scale", 0.02, "input scale relative to the paper's 1996 sizes")
		policy    = flag.String("policy", "paritylog", "none|mirroring|parity|paritylog|writethrough|rs")
		resident  = flag.Float64("resident", 0.25, "resident fraction of the working set")
		registry  = flag.String("registry", "", "server registry file (empty: in-process demo cluster)")
		nServers  = flag.Int("servers", 5, "in-process demo servers (when no -registry)")
		token     = flag.String("token", "", "auth token")
		readahead = flag.Int("readahead", 0, "sequential readahead pages (0 = off)")

		reqTimeout  = flag.Duration("req-timeout", 0, "per-request deadline ceiling (0 = 5s default)")
		reqFloor    = flag.Duration("req-floor", 0, "per-request deadline floor (0 = 50ms default)")
		retryBudget = flag.Duration("retry-budget", 0, "total retry budget per page fault (0 = 2s default)")
		brkThresh   = flag.Int("breaker-threshold", 0, "consecutive timeouts before a server's circuit breaker opens (0 = default 4)")
		brkCooldown = flag.Duration("breaker-cooldown", 0, "how long an open breaker waits before half-opening (0 = 1s default)")

		rsData   = flag.Int("rs-data", 0, "RS policy: data shards per group (0 = default 4)")
		rsParity = flag.Int("rs-parity", 0, "RS policy: parity shards per group (0 = default 2)")
	)
	flag.Parse()

	pol, ok := policies[strings.ToLower(*policy)]
	if !ok {
		log.Fatalf("rmpapp: unknown policy %q", *policy)
	}
	w, err := apps.ByName(strings.ToUpper(*app), *scale)
	if err != nil {
		log.Fatal(err)
	}

	var addrs []string
	if *registry != "" {
		if addrs, err = client.LoadRegistry(*registry); err != nil {
			log.Fatal(err)
		}
	} else {
		capacity := int(w.Bytes()/page.Size)*2/(*nServers) + 128
		for i := 0; i < *nServers; i++ {
			srv := server.New(server.Config{
				Name:          fmt.Sprintf("demo-%d", i),
				CapacityPages: capacity,
				OverflowFrac:  0.10,
			})
			if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
				log.Fatal(err)
			}
			defer srv.Close()
			addrs = append(addrs, srv.Addr().String())
		}
		fmt.Printf("demo cluster: %d in-process servers, %d pages each\n", *nServers, capacity)
	}

	pager, err := client.New(client.Config{
		ClientName:       "rmpapp",
		Servers:          addrs,
		Policy:           pol,
		AuthToken:        *token,
		ReqTimeout:       *reqTimeout,
		ReqTimeoutFloor:  *reqFloor,
		RetryBudget:      *retryBudget,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCooldown,
		RSDataShards:     *rsData,
		RSParityShards:   *rsParity,
	})
	if err != nil {
		log.Fatal(err)
	}
	dev := blockdev.NewPagerDevice(pager)
	defer dev.Close()

	residentBytes := int64(float64(w.Bytes()) * (*resident))
	space, err := vm.NewOpts(w.Bytes(), residentBytes, dev, vm.Options{Readahead: *readahead})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: %.1f MB working set, %.1f MB resident, policy %v\n",
		w.Name(), mb(w.Bytes()), mb(residentBytes), pol)
	start := time.Now()
	sum, err := w.Run(space)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	st := space.Stats()
	ps := pager.Stats()
	fmt.Printf("completed in %v (checksum %016x)\n", elapsed.Round(time.Millisecond), sum)
	fmt.Printf("vm:    %d faults, %d pageins, %d pageouts, %d prefetches (%d hit)\n",
		st.Faults, st.PageIns, st.PageOuts, st.Prefetch, st.PrefHits)
	fmt.Printf("pager: %d net transfers, %d disk writes, %d disk reads, %d migrated, %d recovered, %d GC passes, %d patches\n",
		ps.NetTransfers, ps.DiskWrites, ps.DiskReads, ps.Migrated, ps.Recovered, ps.GCPasses, ps.Patches)
	if ps.Timeouts+ps.Retries+ps.BreakerOpens+ps.DeadlineFallbacks+ps.ChecksumFaults > 0 {
		fmt.Printf("pager: %d timeouts, %d retries, %d breaker opens, %d budget exhaustions, %d checksum faults\n",
			ps.Timeouts, ps.Retries, ps.BreakerOpens, ps.DeadlineFallbacks, ps.ChecksumFaults)
	}
	if ps.DegradedWrites+ps.PolicyFallbacks+ps.LostPages > 0 {
		fmt.Printf("pager: %d degraded writes, %d policy fallbacks, %d lost pages\n",
			ps.DegradedWrites, ps.PolicyFallbacks, ps.LostPages)
	}
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }
