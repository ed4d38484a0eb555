package parity

import (
	"fmt"
	"math/rand"
	"testing"

	"rmp/internal/page"
)

// modelShapes are the (k, m) group shapes the reference model runs
// over: single parity at several widths, and two parity shards.
var modelShapes = [][2]int{{1, 1}, {2, 1}, {3, 1}, {5, 1}, {4, 1}, {4, 2}, {3, 2}}

// modelChecker runs random Append/Free sequences against a simple
// reference model and checks the log's structural invariants after
// every operation:
//
//	I1: Lookup(p) succeeds exactly for live pages.
//	I2: no storage slot is allocated twice or reclaimed twice.
//	I3: reclaims only name slots that were previously handed out.
//	I4: stored versions == handed-out slots - reclaimed ones, data and
//	    parity alike.
//	I5: placements round-robin the columns of the open group.
//
// It also keeps what every handed-out slot holds, so recovery plans can
// be carried out and their result compared with the page's last write.
type modelChecker struct {
	t    *testing.T
	l    *Log
	k, m int
	rng  *rand.Rand

	live        map[page.ID]uint64   // page -> current slot key
	allocated   map[uint64]int       // key -> column
	stored      map[uint64]page.Buf  // key -> contents, reclaimed slots removed
	freed       map[uint64]bool      // reclaimed keys
	dataSlots   int                  // live data-slot count (active + inactive versions)
	paritySlots int                  // live parity-slot count
	nextCol     int                  // I5: the column the next placement must land on
	content     map[page.ID]page.Buf // last write of every live page
}

func newModelChecker(t *testing.T, k, m int, seed int64) *modelChecker {
	l, err := NewShapedLog(k, m)
	if err != nil {
		t.Fatal(err)
	}
	return &modelChecker{
		t: t, l: l, k: k, m: m,
		rng:       rand.New(rand.NewSource(seed)),
		live:      make(map[page.ID]uint64),
		allocated: make(map[uint64]int),
		stored:    make(map[uint64]page.Buf),
		freed:     make(map[uint64]bool),
		content:   make(map[page.ID]page.Buf),
	}
}

func (m *modelChecker) noteAlloc(s ColumnKey, data page.Buf) {
	if _, dup := m.allocated[s.Key]; dup {
		m.t.Fatalf("key %d allocated twice", s.Key)
	}
	if m.freed[s.Key] {
		m.t.Fatalf("key %d reused after free", s.Key)
	}
	m.allocated[s.Key] = s.Column
	m.stored[s.Key] = data.Clone()
	if s.Column < m.k {
		m.dataSlots++
	} else {
		m.paritySlots++
	}
}

func (m *modelChecker) noteReclaims(recs []Reclaim) {
	for _, r := range recs {
		for _, s := range r.Slots {
			col, ok := m.allocated[s.Key]
			if !ok {
				m.t.Fatalf("reclaimed key %d never allocated", s.Key)
			}
			if col != s.Column {
				m.t.Fatalf("key %d reclaimed on column %d, allocated on %d", s.Key, s.Column, col)
			}
			if m.freed[s.Key] {
				m.t.Fatalf("key %d reclaimed twice", s.Key)
			}
			m.freed[s.Key] = true
			delete(m.stored, s.Key)
			if s.Column < m.k {
				m.dataSlots--
			} else {
				m.paritySlots--
			}
		}
	}
}

func (m *modelChecker) appendPage(id page.ID) {
	data := page.NewBuf()
	data.Fill(m.rng.Uint64())
	pl, sealed, recs, err := m.l.Append(id, data)
	if err != nil {
		m.t.Fatal(err)
	}
	if pl.Column != m.nextCol {
		m.t.Fatalf("placement on column %d, want %d", pl.Column, m.nextCol)
	}
	m.nextCol = (m.nextCol + 1) % m.k
	m.noteAlloc(ColumnKey{pl.Column, pl.Key}, data)
	if (sealed != nil) != (m.nextCol == 0) {
		m.t.Fatalf("seal = %v after filling column %d of %d", sealed != nil, pl.Column, m.k)
	}
	if sealed != nil {
		if len(sealed.Slots) != m.m || len(sealed.Data) != m.m {
			m.t.Fatalf("seal carries %d slots / %d pages, want %d", len(sealed.Slots), len(sealed.Data), m.m)
		}
		for j, s := range sealed.Slots {
			if s.Column != m.k+j {
				m.t.Fatalf("parity shard %d on column %d, want %d", j, s.Column, m.k+j)
			}
			m.noteAlloc(s, sealed.Data[j])
		}
	}
	m.noteReclaims(recs)
	m.live[id] = pl.Key
	m.content[id] = data
	m.check()
}

func (m *modelChecker) freePage(id page.ID) {
	m.noteReclaims(m.l.Free(id))
	delete(m.live, id)
	delete(m.content, id)
	if _, still := m.l.Lookup(id); still {
		m.t.Fatalf("page %v still live after Free", id)
	}
	m.check()
}

func (m *modelChecker) check() {
	// I1: live set agrees.
	for id, key := range m.live {
		ck, ok := m.l.Lookup(id)
		if !ok {
			m.t.Fatalf("live page %v not found", id)
		}
		if ck.Key != key {
			m.t.Fatalf("page %v at key %d, model says %d", id, ck.Key, key)
		}
	}
	if got := m.l.Live(); got != len(m.live) || len(m.l.Pages()) != got {
		m.t.Fatalf("log reports %d live pages (%d listed), model %d", got, len(m.l.Pages()), len(m.live))
	}
	// I4: stored versions match the slot ledger, and so does the
	// enumeration recovery frees the old layout from.
	data, parity := m.l.VersionsStored()
	if data != m.dataSlots || parity != m.paritySlots {
		m.t.Fatalf("VersionsStored = %d data + %d parity, ledger = %d + %d", data, parity, m.dataSlots, m.paritySlots)
	}
	if got := len(m.l.AllSlots()); got != data+parity {
		m.t.Fatalf("AllSlots lists %d slots, %d stored", got, data+parity)
	}
}

func TestLogModelRandomOps(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, shape := range modelShapes {
			k := shape[0]
			m := newModelChecker(t, k, shape[1], seed)
			nPages := 1 + m.rng.Intn(20)
			for op := 0; op < 300; op++ {
				id := page.ID(m.rng.Intn(nPages))
				if m.rng.Intn(10) < 7 {
					m.appendPage(id)
				} else {
					m.freePage(id)
				}
			}
			// Drain: free everything, then fill and free the rest of the
			// open group so it seals and dies too. Every group with zero
			// active members is reclaimed; nothing may be left.
			for id := range m.live {
				m.freePage(id)
			}
			pad := (k - m.nextCol) % k
			for i := 0; i < pad; i++ {
				m.appendPage(page.ID(1000 + i))
			}
			for i := 0; i < pad; i++ {
				m.freePage(page.ID(1000 + i))
			}
			data, parity := m.l.VersionsStored()
			if data != 0 || parity != 0 {
				t.Fatalf("seed %d shape %v: %d data + %d parity versions leaked after full drain",
					seed, shape, data, parity)
			}
		}
	}
}

// subsets returns every non-empty subset of 0..n-1 with at most max
// elements.
func subsets(n, max int) [][]int {
	var out [][]int
	for mask := 1; mask < 1<<n; mask++ {
		var set []int
		for c := 0; c < n; c++ {
			if mask&(1<<c) != 0 {
				set = append(set, c)
			}
		}
		if len(set) <= max {
			out = append(out, set)
		}
	}
	return out
}

// TestLogModelRecoveryEveryColumnSet crashes every set of up to m
// columns — data, parity or both — of a randomly built log, verifies
// the plans are internally consistent (every survivor slot is a
// currently allocated slot on a healthy column), carries them out, and
// compares each reconstruction with the page's last write.
func TestLogModelRecoveryEveryColumnSet(t *testing.T) {
	for _, shape := range modelShapes {
		k, pm := shape[0], shape[1]
		t.Run(fmt.Sprintf("%d+%d", k, pm), func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				m := newModelChecker(t, k, pm, 100+seed)
				for op := 0; op < 120; op++ {
					m.appendPage(page.ID(m.rng.Intn(15)))
				}
				for _, dead := range subsets(k+pm, pm) {
					m.recoverFrom(dead)
				}
			}
		})
	}
}

func (m *modelChecker) recoverFrom(dead []int) {
	t := m.t
	plan, err := m.l.PlanRecovery(dead...)
	if err != nil {
		t.Fatalf("dead %v: %v", dead, err)
	}
	planned := make(map[page.ID]bool)
	for _, lp := range plan.Lost {
		if planned[lp.Page] {
			t.Fatalf("dead %v: page %v planned twice", dead, lp.Page)
		}
		planned[lp.Page] = true
		if _, live := m.live[lp.Page]; !live {
			t.Fatalf("plan wants to rebuild non-live page %v", lp.Page)
		}
		var pages []page.Buf
		for _, ck := range lp.Survivors {
			if containsInt(dead, ck.Column) {
				t.Fatalf("dead %v: survivor on crashed column %d", dead, ck.Column)
			}
			data, ok := m.stored[ck.Key]
			if !ok {
				t.Fatalf("survivor key %d not currently allocated", ck.Key)
			}
			if m.allocated[ck.Key] != ck.Column {
				t.Fatalf("survivor key %d column mismatch", ck.Key)
			}
			pages = append(pages, data)
		}
		got, err := m.l.Reconstruct(lp, pages)
		if err != nil {
			t.Fatalf("dead %v page %v: %v", dead, lp.Page, err)
		}
		if got.Checksum() != m.content[lp.Page].Checksum() {
			t.Fatalf("dead %v: page %v reconstructed wrong", dead, lp.Page)
		}
	}
	// Exactly the live pages on dead columns are planned.
	_, _, lost := m.l.Census(dead...)
	if lost != 0 {
		t.Fatalf("dead %v within tolerance, census counts %d lost", dead, lost)
	}
	for id, key := range m.live {
		if containsInt(dead, m.allocated[key]) != planned[id] {
			t.Fatalf("dead %v: page %v on column %d, planned = %v", dead, id, m.allocated[key], planned[id])
		}
	}
}
