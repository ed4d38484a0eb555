package parity

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rmp/internal/page"
)

// modelShapes are the (k, m) group shapes the reference model runs
// over: single parity at several widths, and two parity shards.
var modelShapes = [][2]int{{1, 1}, {2, 1}, {3, 1}, {5, 1}, {4, 1}, {4, 2}, {3, 2}}

// modelChecker runs random Append/Patch/Free sequences against a simple
// reference model and checks the log's structural invariants after
// every operation:
//
//	I1: Lookup(p) succeeds exactly for live pages.
//	I2: no storage slot is allocated twice or reclaimed twice.
//	I3: reclaims only name slots that were previously handed out.
//	I4: stored versions == handed-out slots - reclaimed ones, data and
//	    parity alike.
//	I5: placements round-robin the columns of the open group.
//	I6: the census of sealed groups by active count equals a recount.
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
	group       map[page.ID]uint64   // group holding each live page's version
	inDoubt     map[uint64]bool      // groups whose patch was never acknowledged
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
		group:     make(map[page.ID]uint64),
		inDoubt:   make(map[uint64]bool),
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
	m.appendPageData(id, data)
}

func (m *modelChecker) appendPageData(id page.ID, data page.Buf) {
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
	m.group[id] = pl.Group
	m.check()
}

// modelOverflow is the overflow fraction the model's policy enforces,
// the pager's default.
const modelOverflow = 0.10

func (m *modelChecker) budget() int {
	return int(float64(m.l.Live())*(1+modelOverflow)) + m.k
}

// pageOut is the pager's rule in small: patch in place when an append
// would exceed the budget and the log can patch, append otherwise, then
// clean down to the budget. fail leaves a patch unacknowledged, applied
// to the slot, the parity, both or neither.
func (m *modelChecker) pageOut(id page.ID, fail bool) {
	stored, _ := m.l.VersionsStored()
	if t, ok := m.l.PatchTarget(id); ok && t.Active > 1 && stored+1 > m.budget() {
		m.patchPage(id, t, fail)
	} else {
		m.appendPage(id)
	}
	for {
		stored, _ = m.l.VersionsStored()
		excess := stored - m.budget()
		if excess <= 0 {
			break
		}
		victims := m.l.GCCandidates(excess)
		if len(victims) == 0 {
			m.t.Fatalf("%d versions over a budget of %d and nothing to clean", stored, m.budget())
		}
		for _, v := range victims {
			data := m.content[v]
			m.appendPageData(v, data)
		}
	}
}

func (m *modelChecker) patchPage(id page.ID, t PatchTarget, fail bool) {
	if got := m.live[id]; t.Slot.Key != got || m.allocated[t.Parity.Key] != m.k {
		m.t.Fatalf("patch target %+v: page %v lives at key %d", t, id, got)
	}
	before, _ := m.l.VersionsStored()
	data := page.NewBuf()
	data.Fill(m.rng.Uint64())
	delta := data.Clone()
	page.XORInto(delta, m.stored[t.Slot.Key])

	m.l.BeginPatch(t)
	m.inDoubt[t.Group] = true
	m.checkDecodes() // between the send and the ack
	landed := 3      // bit 0: the slot took the page; bit 1: the parity took the delta
	if fail {
		landed = m.rng.Intn(4)
	}
	if landed&1 != 0 {
		m.stored[t.Slot.Key] = data
	}
	if landed&2 != 0 {
		page.XORInto(m.stored[t.Parity.Key], delta)
	}
	if fail {
		// The pager rebuilds here; the model keeps the group, in doubt for
		// good, and takes the page to be whatever its slot now holds — what
		// a cleaner reading the slot would carry forward.
		m.content[id] = m.stored[t.Slot.Key]
	} else {
		m.l.EndPatch(t)
		delete(m.inDoubt, t.Group)
		m.content[id] = data
	}
	if after, _ := m.l.VersionsStored(); after != before {
		m.t.Fatalf("a patch took the log from %d to %d stored versions", before, after)
	}
	m.check()
}

func (m *modelChecker) freePage(id page.ID) {
	m.noteReclaims(m.l.Free(id))
	delete(m.live, id)
	delete(m.content, id)
	delete(m.group, id)
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
	// I6: the census agrees with a recount, and so does every group's
	// own counter.
	recount := make([]int, m.k+1)
	for _, g := range m.l.groups {
		active := 0
		for _, mem := range g.members {
			if mem.active {
				active++
			}
		}
		if active != g.active {
			m.t.Fatalf("group %d counts %d active members, has %d", g.id, g.active, active)
		}
		if g.sealed() {
			recount[active]++
		}
	}
	for a, bucket := range m.l.byActive {
		if len(bucket) != recount[a] {
			m.t.Fatalf("census holds %d sealed groups with %d active members, recount %d", len(bucket), a, recount[a])
		}
		for id, g := range bucket {
			if g != m.l.groups[id] || g.active != a {
				m.t.Fatalf("census files group %d (%d active) under %d", id, g.active, a)
			}
		}
	}
}

// checkDecodes erases every set of up to m columns and decodes every
// live page sitting on one of them from the rest of its group: right
// bytes, or — through a group whose parity is in doubt —
// ErrUnrecoverable and nothing else.
func (m *modelChecker) checkDecodes() {
	for _, dead := range subsets(m.k+m.m, m.m) {
		for id, key := range m.live {
			if !containsInt(dead, m.allocated[key]) {
				continue
			}
			lp, err := m.l.PlanPage(id, dead...)
			if m.inDoubt[m.group[id]] {
				if !errors.Is(err, ErrUnrecoverable) {
					m.t.Fatalf("dead %v: page %v of in-doubt group %d planned with err = %v, want ErrUnrecoverable", dead, id, m.group[id], err)
				}
				continue
			}
			if err != nil {
				m.t.Fatalf("dead %v page %v: %v", dead, id, err)
			}
			pages := make([]page.Buf, len(lp.Survivors))
			for i, ck := range lp.Survivors {
				if containsInt(dead, ck.Column) {
					m.t.Fatalf("dead %v: survivor on erased column %d", dead, ck.Column)
				}
				pages[i] = m.stored[ck.Key]
			}
			got, err := m.l.Reconstruct(lp, pages)
			if err != nil {
				m.t.Fatalf("dead %v page %v: %v", dead, id, err)
			}
			if got.Checksum() != m.content[id].Checksum() {
				m.t.Fatalf("dead %v: page %v decoded wrong", dead, id)
			}
			page.Put(got)
		}
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

// TestLogModelPatches drives the log the way the pager does at its
// overflow budget — few pages, many overwrites, so most pageouts patch —
// with an occasional patch that never acks, and decodes every live page
// through every erasure the shape tolerates after every step. A patched
// group must decode like any other; a group in doubt must never decode;
// the version count must stay within the budget without help from the
// patches.
func TestLogModelPatches(t *testing.T) {
	for _, shape := range modelShapes {
		k, pm := shape[0], shape[1]
		t.Run(fmt.Sprintf("%d+%d", k, pm), func(t *testing.T) {
			patches := uint64(0)
			for seed := int64(0); seed < 2; seed++ {
				m := newModelChecker(t, k, pm, 200+seed)
				nPages := 6 + m.rng.Intn(8)
				for op := 0; op < 120; op++ {
					id := page.ID(m.rng.Intn(nPages))
					switch r := m.rng.Intn(20); {
					case r == 0:
						m.freePage(id)
					default:
						m.pageOut(id, r == 1)
						if stored, _ := m.l.VersionsStored(); stored > m.budget() {
							t.Fatalf("seed %d op %d: %d versions stored, budget %d", seed, op, stored, m.budget())
						}
					}
					m.checkDecodes()
				}
				patches += m.l.Stats().Patches
			}
			if pm == 1 && k > 1 && patches == 0 {
				t.Fatal("no pageout was patched")
			}
			if pm > 1 && patches != 0 {
				t.Fatalf("%d patches on a shape with %d parity shards", patches, pm)
			}
		})
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
