package rmp

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rmp/internal/apps"
	"rmp/internal/blockdev"
	"rmp/internal/client"
	"rmp/internal/server"
	"rmp/internal/vm"
)

// startCluster boots n in-process servers and returns their addresses.
func startCluster(t *testing.T, n, capacityPages int) ([]*server.Server, []string) {
	t.Helper()
	var servers []*server.Server
	var addrs []string
	for i := 0; i < n; i++ {
		s := server.New(server.Config{
			Name:          fmt.Sprintf("soak-%d", i),
			CapacityPages: capacityPages,
			OverflowFrac:  0.10,
		})
		if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		servers = append(servers, s)
		addrs = append(addrs, s.Addr().String())
	}
	return servers, addrs
}

// smallApps are test-scale instances of all six paper workloads.
func smallApps() []apps.Workload {
	return []apps.Workload{
		apps.NewGauss(64),
		apps.NewQsort(24_000),
		apps.NewFFT(1 << 12),
		apps.NewMvec(96),
		apps.NewFilter(512, 128),
		apps.NewCC(1),
	}
}

// TestSoakAllAppsOverLiveCluster runs every paper application over
// the full live stack (vm -> blockdev -> pager -> TCP -> servers)
// under every reliability policy and checks the results against
// in-memory executions.
func TestSoakAllAppsOverLiveCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// Golden checksums from plain in-memory runs.
	golden := make(map[string]uint64)
	for _, w := range smallApps() {
		space, err := vm.New(w.Bytes(), w.Bytes()*2, blockdev.NewMemDevice())
		if err != nil {
			t.Fatal(err)
		}
		sum, err := w.Run(space)
		if err != nil {
			t.Fatalf("%s golden: %v", w.Name(), err)
		}
		golden[w.Name()] = sum
	}

	for _, pol := range []client.Policy{
		client.PolicyNone,
		client.PolicyMirroring,
		client.PolicyParity,
		client.PolicyParityLogging,
		client.PolicyWriteThrough,
		client.PolicyRS,
	} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			_, addrs := startCluster(t, 5, 1<<15)
			p, err := client.New(client.Config{
				ClientName: "soak-" + pol.String(),
				Servers:    addrs,
				Policy:     pol,
			})
			if err != nil {
				t.Fatal(err)
			}
			dev := blockdev.NewPagerDevice(p)
			t.Cleanup(func() { dev.Close() })
			for _, w := range smallApps() {
				space, err := vm.NewOpts(w.Bytes(), w.Bytes()/4, dev, vm.Options{Readahead: 4})
				if err != nil {
					t.Fatal(err)
				}
				sum, err := w.Run(space)
				if err != nil {
					t.Fatalf("%s over %v: %v", w.Name(), pol, err)
				}
				if sum != golden[w.Name()] {
					t.Fatalf("%s over %v: checksum %x != golden %x", w.Name(), pol, sum, golden[w.Name()])
				}
				if st := space.Stats(); st.PageOuts == 0 {
					t.Fatalf("%s over %v: no paging exercised", w.Name(), pol)
				}
				if err := space.Close(); err != nil {
					t.Fatalf("%s close: %v", w.Name(), err)
				}
			}
		})
	}
}

// TestSoakCrashMidRun kills a server while an application is running
// over parity logging; the run must complete with the correct result.
func TestSoakCrashMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	w := apps.NewQsort(24_000)
	goldenSpace, err := vm.New(w.Bytes(), w.Bytes()*2, blockdev.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	golden, err := w.Run(goldenSpace)
	if err != nil {
		t.Fatal(err)
	}

	servers, addrs := startCluster(t, 5, 1<<15)
	p, err := client.New(client.Config{
		ClientName: "soak-crash",
		Servers:    addrs,
		Policy:     client.PolicyParityLogging,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := blockdev.NewPagerDevice(p)
	t.Cleanup(func() { dev.Close() })

	space, err := vm.New(w.Bytes(), w.Bytes()/4, dev)
	if err != nil {
		t.Fatal(err)
	}

	// Kill a data server shortly after the run starts.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(30 * time.Millisecond)
		servers[1].Close()
	}()

	sum, err := w.Run(space)
	wg.Wait()
	if err != nil {
		t.Fatalf("run with mid-flight crash: %v", err)
	}
	if sum != golden {
		t.Fatalf("checksum %x != golden %x after crash recovery", sum, golden)
	}
	if p.Stats().LostPages != 0 {
		t.Fatalf("lost %d pages despite parity logging", p.Stats().LostPages)
	}
}

// TestSoakConcurrentClients runs two independent clients against the
// same servers; their namespaces must not interfere.
func TestSoakConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	_, addrs := startCluster(t, 3, 1<<15)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := client.New(client.Config{
				ClientName: fmt.Sprintf("tenant-%d", c),
				Servers:    addrs,
				Policy:     client.PolicyMirroring,
			})
			if err != nil {
				errs <- err
				return
			}
			defer p.Close()
			dev := blockdev.NewPagerDevice(p)
			w := apps.NewFFT(1 << 12)
			space, err := vm.New(w.Bytes(), w.Bytes()/4, dev)
			if err != nil {
				errs <- err
				return
			}
			if _, err := w.Run(space); err != nil {
				errs <- fmt.Errorf("tenant %d: %w", c, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
