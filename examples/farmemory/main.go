// Far memory: run an application whose data does not fit in "RAM".
//
// This is the paper's end-to-end story assembled from all the layers:
// a real quicksort (the paper's QSORT workload) runs over a demand-
// paged address space whose resident set is a quarter of its data;
// every fault crosses TCP to remote memory servers under the
// PARITY_LOGGING policy — exactly the stack the 1996 testbed ran,
// with the OSF/1 kernel replaced by the vm package and the Ethernet
// by the loopback.
//
//	go run ./examples/farmemory
package main

import (
	"fmt"
	"log"
	"time"

	"rmp/internal/apps"
	"rmp/internal/blockdev"
	"rmp/internal/client"
	"rmp/internal/page"
	"rmp/internal/server"
	"rmp/internal/vm"
)

func main() {
	// A cluster of 4 data servers + 1 parity server.
	var addrs []string
	for i := 0; i < 5; i++ {
		srv := server.New(server.Config{
			Name:          fmt.Sprintf("rmemd-%d", i),
			CapacityPages: 16 << 20 / page.Size,
			OverflowFrac:  0.10,
		})
		if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr().String())
	}

	pager, err := client.New(client.Config{
		ClientName: "farmemory",
		Servers:    addrs,
		Policy:     client.PolicyParityLogging,
	})
	if err != nil {
		log.Fatal(err)
	}
	dev := blockdev.NewPagerDevice(pager)
	defer dev.Close()

	// QSORT over 2 MB of records with only 512 KB resident: 75% of
	// the data lives in remote memory at any moment.
	work := apps.NewQsort(256 * 1024)
	resident := work.Bytes() / 4
	space, err := vm.New(work.Bytes(), resident, dev)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sorting %d records (%.1f MB) with %.1f MB resident, rest on remote memory...\n",
		256*1024, float64(work.Bytes())/(1<<20), float64(resident)/(1<<20))
	start := time.Now()
	sum, err := work.Run(space)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	st := space.Stats()
	ps := pager.Stats()
	fmt.Printf("sorted and verified in %v (checksum %016x)\n", elapsed.Round(time.Millisecond), sum)
	fmt.Printf("vm: %d faults, %d pageins, %d pageouts\n", st.Faults, st.PageIns, st.PageOuts)
	fmt.Printf("pager: %d network page transfers for %d pageouts + %d pageins (parity logging: 1+1/4 per out with overflow to spare; at the budget %d overwrites patched in place at 2, %d GC passes rewrote fragmented groups)\n",
		ps.NetTransfers, ps.PageOuts, ps.PageIns, ps.Patches, ps.GCPasses)
}
