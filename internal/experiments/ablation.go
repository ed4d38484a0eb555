package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"rmp/internal/client"
	"rmp/internal/cluster"
	"rmp/internal/page"
)

// GroupWidthAblation sweeps parity logging's group width S (the
// number of data servers) on the live system. S is the scheme's
// central knob: transfer overhead is 1 + 1/S per pageout, memory
// overhead 1/S plus inactive versions, and recovery must read S-1
// survivors plus parity per lost page. The paper notes "as the number
// of the remote memory servers used increases, the difference in
// performance between NO RELIABILITY and PARITY LOGGING becomes
// lower" — this table quantifies the whole trade.
func GroupWidthAblation() (*Table, error) {
	t := &Table{
		ID:    "ABLATION-S",
		Title: "Parity logging group width S (live system)",
		Header: []string{"S", "transfers/pageout", "parity pages", "recovery",
			"recovered pages", "all readable"},
	}
	const pages = 240
	for _, s := range []int{1, 2, 4, 8} {
		addrs, servers, closeAll, err := liveCluster(s+1, 1<<15)
		if err != nil {
			return nil, err
		}
		p, err := client.New(client.Config{
			ClientName: fmt.Sprintf("ablation-s%d", s),
			Servers:    addrs,
			Policy:     client.PolicyParityLogging,
		})
		if err != nil {
			closeAll()
			return nil, err
		}
		data := page.NewBuf()
		for i := uint64(0); i < pages; i++ {
			data.Fill(i)
			if err := p.PageOut(page.ID(i), data); err != nil {
				p.Close()
				closeAll()
				return nil, err
			}
		}
		st := p.Stats()
		perOut := float64(st.NetTransfers) / float64(st.PageOuts)
		parityPages := servers[s].Store().Len() // last server = parity

		servers[0].Close() // crash a data column
		start := time.Now()
		readable := 0
		for i := uint64(0); i < pages; i++ {
			got, err := p.PageIn(page.ID(i))
			if err != nil {
				continue
			}
			want := page.NewBuf()
			want.Fill(i)
			if got.Checksum() == want.Checksum() {
				readable++
			}
		}
		rec := time.Since(start)
		st = p.Stats()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", s),
			fmt.Sprintf("%.3f", perOut),
			fmt.Sprintf("%d", parityPages),
			rec.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", st.Recovered),
			fmt.Sprintf("%d/%d", readable, pages),
		})
		p.Close()
		closeAll()
	}
	t.Notes = append(t.Notes,
		"transfers/pageout = 1 + 1/S exactly when no GC runs; parity pages ~= live/S",
		"larger S: cheaper pageouts, less parity memory, but recovery reads more survivors per lost page",
		"S=1 degenerates to mirroring's cost (2 transfers/out) with parity-shaped recovery",
	)
	return t, nil
}

// OverflowAblation sweeps parity logging's inactive-version budget on
// two rewrite-heavy workloads. Under churn — one hot page rewritten
// alongside cold pages written once — a small budget forces frequent
// garbage collection (extra transfers), a large one spends server memory
// on dead versions; the paper runs 10% and reports never needing GC for
// its workloads. Under uniform overwrites of a populated working set,
// the log's worst case, no victim is ever cheap to clean, and at the
// budget every overwrite is patched in place instead: the cost stays at
// two transfers however small the budget, where cleaning alone grew
// without bound as it shrank.
func OverflowAblation() (*Table, error) {
	t := &Table{
		ID:    "ABLATION-OVERFLOW",
		Title: "Parity logging overflow budget under rewrite churn and uniform overwrites (live system)",
		Header: []string{"workload", "budget", "GC passes", "patches", "transfers/pageout",
			"stored/page"},
	}
	const (
		rounds   = 40   // churn: hot rewrites, each beside one new cold page
		pages    = 1024 // uniform: working set
		rewrites = 8 * pages
	)
	// churn: a hot page rewritten alongside cold ones.
	churn := func(p *client.Pager, data page.Buf) (live int, err error) {
		for k := uint64(0); k < rounds; k++ {
			data.Fill(10000 + k)
			if err := p.PageOut(page.ID(0), data); err != nil {
				return 0, err
			}
			data.Fill(k)
			if err := p.PageOut(page.ID(100+k), data); err != nil {
				return 0, err
			}
		}
		return 1 + rounds, nil
	}
	// uniform: populate, then overwrite pages drawn uniformly at random;
	// only the overwrites are counted.
	uniform := func(p *client.Pager, data page.Buf) (live int, err error) {
		for i := uint64(0); i < pages; i++ {
			data.Fill(i)
			if err := p.PageOut(page.ID(i), data); err != nil {
				return 0, err
			}
		}
		rng := rand.New(rand.NewSource(1))
		for k := 0; k < rewrites; k++ {
			data.Fill(rng.Uint64())
			if err := p.PageOut(page.ID(rng.Intn(pages)), data); err != nil {
				return 0, err
			}
		}
		return pages, nil
	}
	for _, w := range []struct {
		name    string
		drive   func(*client.Pager, page.Buf) (int, error)
		fresh   uint64 // pageouts before the counted ones
		budgets []float64
	}{
		{"churn", churn, 0, []float64{0.02, 0.10, 0.30, 1.00}},
		{"uniform", uniform, pages, []float64{0.05, 0.10, 0.20, 0.40}},
	} {
		for _, budget := range w.budgets {
			addrs, servers, closeAll, err := liveCluster(5, 1<<15)
			if err != nil {
				return nil, err
			}
			p, err := client.New(client.Config{
				ClientName:     fmt.Sprintf("ablation-%s%.2f", w.name, budget),
				Servers:        addrs,
				Policy:         client.PolicyParityLogging,
				OverflowBudget: budget,
			})
			if err != nil {
				closeAll()
				return nil, err
			}
			live, err := w.drive(p, page.NewBuf())
			if err != nil {
				p.Close()
				closeAll()
				return nil, err
			}
			st := p.Stats()
			held := 0
			for _, s := range servers {
				held += s.Store().Len()
			}
			// A fresh pageout costs 1 + 1/4 exactly; take the populate
			// phase's share out so the column is the counted pageouts'.
			transfers := float64(st.NetTransfers) - 1.25*float64(w.fresh)
			t.Rows = append(t.Rows, []string{
				w.name,
				fmt.Sprintf("%.0f%%", budget*100),
				fmt.Sprintf("%d", st.GCPasses),
				fmt.Sprintf("%d", st.Patches),
				fmt.Sprintf("%.2f", transfers/float64(st.PageOuts-w.fresh)),
				fmt.Sprintf("%.3f", float64(held)/float64(live)),
			})
			p.Close()
			closeAll()
		}
	}
	t.Notes = append(t.Notes,
		"churn: a tight budget holds less on the servers and patches the hot page sooner; the paper's 10% is the budget its experiments never had to GC at",
		"uniform: at the budget an overwrite patches its slot and the group's parity in place (XORWRITE, 2 transfers) unless a victim is cheap enough to clean; memory is the budget, cost is flat",
		"stored/page counts parity pages: 1.25 is a log with no dead version in it",
	)
	return t, nil
}

// Availability turns Figure 1's idle-memory week into the question
// the paper asks of it: how much paging demand could the cluster's
// idle memory have carried at each moment?
func Availability() *Table {
	samples := cluster.Week(cluster.Paper)
	t := &Table{
		ID:     "AVAIL",
		Title:  "Paging capacity of the cluster's idle memory over the week (per Fig 1)",
		Header: []string{"quantity", "value"},
	}
	const jobMB = 24.0 // one paper-scale application's working set
	minJobs, maxJobs := 1<<30, 0
	hoursAbove := 0
	for _, s := range samples {
		jobs := int(s.FreeMB / jobMB)
		if jobs < minJobs {
			minJobs = jobs
		}
		if jobs > maxJobs {
			maxJobs = jobs
		}
		if s.FreeMB >= 700 {
			hoursAbove++
		}
	}
	sum := cluster.Summarize(samples)
	t.Rows = [][]string{
		{"min concurrent 24 MB paging jobs supportable", fmt.Sprintf("%d", minJobs)},
		{"max concurrent 24 MB paging jobs supportable", fmt.Sprintf("%d", maxJobs)},
		{"hours with > 700 MB idle (of 168)", fmt.Sprintf("%d", hoursAbove)},
		{"min idle memory", fmt.Sprintf("%.0f MB", sum.MinFreeMB)},
		{"mean idle memory", fmt.Sprintf("%.0f MB", sum.MeanFreeMB)},
	}
	t.Notes = append(t.Notes,
		"paper's argument: even at the working-day peak, hundreds of MB are idle — more than any single application of the era needed",
	)
	return t
}
