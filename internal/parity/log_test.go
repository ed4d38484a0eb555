package parity

import (
	"errors"
	"math/rand"
	"testing"

	"rmp/internal/page"
)

func mkPage(seed uint64) page.Buf {
	p := page.NewBuf()
	p.Fill(seed)
	return p
}

func mustLog(t *testing.T, s int) *Log { return mustShaped(t, s, 1) }

func mustShaped(t *testing.T, k, m int) *Log {
	t.Helper()
	l, err := NewShapedLog(k, m)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewLogRejectsBadShape(t *testing.T) {
	if _, err := NewLog(0); err == nil {
		t.Fatal("NewLog(0) succeeded")
	}
	if _, err := NewShapedLog(4, 0); err == nil {
		t.Fatal("NewShapedLog(4, 0) succeeded")
	}
}

func TestAppendRoundRobinColumns(t *testing.T) {
	l := mustLog(t, 4)
	for i := 0; i < 8; i++ {
		pl, _, _, err := l.Append(page.ID(i), mkPage(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if pl.Column != i%4 {
			t.Fatalf("append %d placed on column %d, want %d", i, pl.Column, i%4)
		}
	}
}

func TestSealAfterSAppends(t *testing.T) {
	l := mustLog(t, 3)
	var sealed *SealedParity
	for i := 0; i < 3; i++ {
		_, s, _, err := l.Append(page.ID(i), mkPage(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 && s != nil {
			t.Fatalf("sealed after %d appends", i+1)
		}
		sealed = s
	}
	if sealed == nil {
		t.Fatal("no seal after S appends")
	}
	// Parity must equal XOR of the three pages.
	want := page.XOR(page.XOR(mkPage(0), mkPage(1)), mkPage(2))
	if len(sealed.Data) != 1 || sealed.Data[0].Checksum() != want.Checksum() {
		t.Fatal("sealed parity != XOR of members")
	}
	if sealed.Slots[0].Column != 3 {
		t.Fatalf("parity shard on column %d, want 3", sealed.Slots[0].Column)
	}
	if l.Stats().Seals != 1 {
		t.Fatal("seal not counted")
	}
}

func TestTransferOverheadIsOnePlusMOverK(t *testing.T) {
	// The headline property (§2.2): parity logging costs 1 + 1/S
	// transfers per pageout; with m parity shards per group, 1 + m/k.
	for _, shape := range [][2]int{{4, 1}, {4, 2}} {
		k, m := shape[0], shape[1]
		const outs = 100
		l := mustShaped(t, k, m)
		transfers := 0
		for i := 0; i < outs; i++ {
			_, sealed, _, err := l.Append(page.ID(i%10), mkPage(uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			transfers++
			if sealed != nil {
				transfers += len(sealed.Data)
			}
		}
		want := outs + outs/k*m
		if transfers != want {
			t.Fatalf("(%d,%d): %d transfers for %d pageouts, want %d (1+m/k)", k, m, transfers, outs, want)
		}
	}
}

func TestRepageoutMarksInactiveAndReclaims(t *testing.T) {
	l := mustLog(t, 2)
	// Fill group 1 with pages 0,1 (seals).
	for i := 0; i < 2; i++ {
		if _, _, _, err := l.Append(page.ID(i), mkPage(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Re-pageout page 0: old version inactive, but group 1 still has
	// page 1 active -> no reclaim yet.
	_, _, recs, err := l.Append(0, mkPage(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("premature reclaim: %+v", recs)
	}
	// Re-pageout page 1: group 1 now fully inactive -> reclaimed. This
	// append also seals group 2.
	_, sealed, recs, err := l.Append(1, mkPage(101))
	if err != nil {
		t.Fatal(err)
	}
	if sealed == nil {
		t.Fatal("group 2 should have sealed")
	}
	if len(recs) != 1 {
		t.Fatalf("got %d reclaims, want 1", len(recs))
	}
	// Reclaim must list 2 data slots + 1 parity slot.
	if len(recs[0].Slots) != 3 {
		t.Fatalf("reclaim lists %d slots, want 3", len(recs[0].Slots))
	}
	paritySlots := 0
	for _, s := range recs[0].Slots {
		if s.Column >= l.K() {
			paritySlots++
		}
	}
	if paritySlots != 1 {
		t.Fatalf("reclaim has %d parity slots, want 1", paritySlots)
	}
}

func TestLookupTracksLiveVersion(t *testing.T) {
	l := mustLog(t, 3)
	pl1, _, _, _ := l.Append(7, mkPage(1))
	ck, ok := l.Lookup(7)
	if !ok || ck.Key != pl1.Key || ck.Column != pl1.Column {
		t.Fatalf("Lookup = %+v, want %+v", ck, pl1)
	}
	pl2, _, _, _ := l.Append(7, mkPage(2))
	ck, ok = l.Lookup(7)
	if !ok || ck.Key != pl2.Key {
		t.Fatal("Lookup did not follow re-pageout")
	}
	if _, ok := l.Lookup(99); ok {
		t.Fatal("Lookup found never-appended page")
	}
}

func TestFreeDropsPage(t *testing.T) {
	l := mustLog(t, 2)
	l.Append(0, mkPage(0))
	l.Append(1, mkPage(1)) // seals group
	recs := l.Free(0)
	if len(recs) != 0 {
		t.Fatal("reclaim before group empty")
	}
	recs = l.Free(1)
	if len(recs) != 1 {
		t.Fatal("no reclaim after freeing whole group")
	}
	if _, ok := l.Lookup(0); ok {
		t.Fatal("freed page still live")
	}
	if l.Free(0) != nil {
		t.Fatal("double free returned reclaims")
	}
}

func TestVersionsStoredCountsOverflow(t *testing.T) {
	l := mustLog(t, 2)
	l.Append(0, mkPage(0))
	l.Append(1, mkPage(1)) // group 1 sealed
	l.Append(0, mkPage(2)) // old v of page 0 inactive, still stored
	data, par := l.VersionsStored()
	if data != 3 || par != 1 {
		t.Fatalf("VersionsStored = %d,%d; want 3 data, 1 parity", data, par)
	}
}

// memCluster simulates the k data servers and m parity servers of one
// layout as maps, exercising the full placement/seal/reclaim/recovery
// protocol the pager would run.
type memCluster struct {
	l       *Log
	cols    []map[uint64]page.Buf // one per log column, data then parity
	t       *testing.T
	content map[page.ID]page.Buf // ground truth of live pages
}

func newMemCluster(t *testing.T, k, m int) *memCluster {
	mc := &memCluster{
		l:       mustShaped(t, k, m),
		t:       t,
		content: make(map[page.ID]page.Buf),
	}
	for i := 0; i < k+m; i++ {
		mc.cols = append(mc.cols, make(map[uint64]page.Buf))
	}
	return mc
}

func (mc *memCluster) fetch(ck ColumnKey) page.Buf {
	p, ok := mc.cols[ck.Column][ck.Key]
	if !ok {
		mc.t.Fatalf("fetch: missing slot %+v", ck)
	}
	return p
}

func (mc *memCluster) pageout(id page.ID, data page.Buf) {
	pl, sealed, recs, err := mc.l.Append(id, data)
	if err != nil {
		mc.t.Fatal(err)
	}
	mc.cols[pl.Column][pl.Key] = data.Clone()
	if sealed != nil {
		for j, s := range sealed.Slots {
			mc.cols[s.Column][s.Key] = sealed.Data[j].Clone()
		}
	}
	for _, r := range recs {
		for _, s := range r.Slots {
			delete(mc.cols[s.Column], s.Key)
		}
	}
	mc.content[id] = data.Clone()
}

// crashAndRecover wipes the dead columns, reconstructs what they held,
// checks every live page against ground truth, and then does what the
// pager does: replays everything into a fresh log.
func (mc *memCluster) crashAndRecover(dead ...int) {
	isDead := func(c int) bool { return containsInt(dead, c) }
	plan, err := mc.l.PlanRecovery(dead...)
	if err != nil {
		mc.t.Fatal(err)
	}
	for _, c := range dead {
		mc.cols[c] = make(map[uint64]page.Buf) // the crash
	}
	rebuilt := make(map[page.ID]page.Buf)
	for _, lp := range plan.Lost {
		var pages []page.Buf
		for _, ck := range lp.Survivors {
			if isDead(ck.Column) {
				mc.t.Fatalf("recovery plan references crashed column: %+v", ck)
			}
			pages = append(pages, mc.fetch(ck))
		}
		data, err := mc.l.Reconstruct(lp, pages)
		if err != nil {
			mc.t.Fatal(err)
		}
		rebuilt[lp.Page] = data
	}
	fresh := newMemCluster(mc.t, mc.l.K(), mc.l.M())
	for id, want := range mc.content {
		ck, ok := mc.l.Lookup(id)
		if !ok {
			mc.t.Fatalf("page %v lost from log", id)
		}
		got, ok := rebuilt[id]
		if isDead(ck.Column) != ok {
			mc.t.Fatalf("page %v on column %d: planned for rebuild = %v", id, ck.Column, ok)
		}
		if !ok {
			got = mc.fetch(ck)
		}
		if got.Checksum() != want.Checksum() {
			mc.t.Fatalf("page %v content mismatch after losing columns %v", id, dead)
		}
		fresh.pageout(id, got)
	}
	*mc = *fresh
	mc.verify()
}

// verify checks every live page against ground truth, fetching via
// the log's lookup.
func (mc *memCluster) verify() {
	for id, want := range mc.content {
		ck, ok := mc.l.Lookup(id)
		if !ok {
			mc.t.Fatalf("page %v lost from log", id)
		}
		if got := mc.fetch(ck); got.Checksum() != want.Checksum() {
			mc.t.Fatalf("page %v content mismatch", id)
		}
	}
}

func TestClusterRecoveryAfterSealedGroups(t *testing.T) {
	mc := newMemCluster(t, 4, 1)
	for i := 0; i < 16; i++ { // 4 sealed groups
		mc.pageout(page.ID(i), mkPage(uint64(i)))
	}
	mc.crashAndRecover(2)
}

func TestClusterRecoveryWithOpenGroup(t *testing.T) {
	mc := newMemCluster(t, 4, 1)
	for i := 0; i < 10; i++ { // 2 sealed groups + open group of 2
		mc.pageout(page.ID(i), mkPage(uint64(i)))
	}
	mc.crashAndRecover(0) // column 0 holds an open-group member
}

func TestClusterRecoveryWithInactiveVersions(t *testing.T) {
	for col := 0; col < 3; col++ {
		mc := newMemCluster(t, 3, 1)
		for i := 0; i < 9; i++ {
			mc.pageout(page.ID(i%4), mkPage(uint64(i*7+col)))
		}
		mc.crashAndRecover(col)
	}
}

// TestClusterTwoColumnsDown: a (4,2) layout loses two columns at once
// — two data, one of each, both parity — with an open group of three
// in play.
func TestClusterTwoColumnsDown(t *testing.T) {
	for _, dead := range [][]int{{0, 2}, {1, 4}, {4, 5}, {3}} {
		mc := newMemCluster(t, 4, 2)
		for i := 0; i < 19; i++ {
			mc.pageout(page.ID(i%13), mkPage(uint64(i*3)))
		}
		mc.crashAndRecover(dead...)
	}
}

func TestClusterRandomizedRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		k, m := 2+rng.Intn(4), 1+rng.Intn(2)
		mc := newMemCluster(t, k, m)
		nPages := 1 + rng.Intn(12)
		ops := 5 + rng.Intn(60)
		for i := 0; i < ops; i++ {
			mc.pageout(page.ID(rng.Intn(nPages)), mkPage(rng.Uint64()))
		}
		mc.crashAndRecover(rng.Perm(k + m)[:1+rng.Intn(m)]...)
		// Keep running after recovery.
		for i := 0; i < 10; i++ {
			mc.pageout(page.ID(rng.Intn(nPages)), mkPage(rng.Uint64()))
		}
		mc.verify()
	}
}

// TestPlanPageRepairsOneShard: the single-page plan used for checksum
// repair erases the page's own shard plus whatever else is down, and
// reports ErrUnrecoverable — never a short plan — past the tolerance.
func TestPlanPageRepairsOneShard(t *testing.T) {
	mc := newMemCluster(t, 4, 2)
	for i := 0; i < 10; i++ { // two sealed groups, open group of two
		mc.pageout(page.ID(i), mkPage(uint64(i)))
	}
	for _, tc := range []struct {
		id     page.ID
		erased []int
		ok     bool
	}{
		{1, nil, true},
		{1, []int{1, 3}, true}, // own column named again + one more
		{1, []int{0, 5}, false},
		{9, []int{0}, true}, // open group: one buffer each for 0 and 1
		{9, []int{0, 4, 5}, true},
	} {
		lp, err := mc.l.PlanPage(tc.id, tc.erased...)
		if !tc.ok {
			if !errors.Is(err, ErrUnrecoverable) {
				t.Fatalf("page %v erased %v: err = %v, want ErrUnrecoverable", tc.id, tc.erased, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("page %v erased %v: %v", tc.id, tc.erased, err)
		}
		var pages []page.Buf
		for _, ck := range lp.Survivors {
			if ck.Column == lp.Column || containsInt(tc.erased, ck.Column) {
				t.Fatalf("page %v: survivor on erased column %d", tc.id, ck.Column)
			}
			pages = append(pages, mc.fetch(ck))
		}
		got, err := mc.l.Reconstruct(lp, pages)
		if err != nil || got.Checksum() != mc.content[tc.id].Checksum() {
			t.Fatalf("page %v erased %v: wrong reconstruction (%v)", tc.id, tc.erased, err)
		}
	}
	if _, err := mc.l.PlanPage(99); err == nil {
		t.Fatal("PlanPage planned a page that is not live")
	}
	// The open group's parity is in the client: only members count.
	mc.pageout(10, mkPage(10))
	if _, err := mc.l.PlanPage(8, 1, 4, 5); err != nil {
		t.Fatalf("open group with two of three members gone: %v", err)
	}
	if _, err := mc.l.PlanPage(8, 1, 2); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("open group with all three members gone: err = %v, want ErrUnrecoverable", err)
	}
}

// TestCensus: full while one more column may go, degraded while still
// readable, lost past that; the open group only counts its members.
func TestCensus(t *testing.T) {
	l := mustShaped(t, 4, 2)
	for i := 0; i < 10; i++ { // two sealed groups, open group on columns 0,1
		l.Append(page.ID(i), mkPage(uint64(i)))
	}
	for _, tc := range []struct {
		dead                 []int
		full, degraded, lost int
	}{
		{nil, 10, 0, 0},
		{[]int{3}, 10, 0, 0},      // one of two parities' worth spent
		{[]int{3, 3}, 10, 0, 0},   // named twice, counted once
		{[]int{2, 5}, 2, 8, 0},    // sealed groups at their limit; open group untouched
		{[]int{0, 4}, 2, 8, 0},    // open group: column 0 costs one buffer of two, 4 is no column of it
		{[]int{0, 1, 2}, 0, 4, 6}, // sealed: own shard up or lost; open: both members gone, two buffers
		{[]int{3, 4, 5}, 2, 6, 2}, // sealed pages on column 3 are gone
	} {
		f, d, lo := l.Census(tc.dead...)
		if f != tc.full || d != tc.degraded || lo != tc.lost {
			t.Fatalf("Census(%v) = %d/%d/%d, want %d/%d/%d", tc.dead, f, d, lo, tc.full, tc.degraded, tc.lost)
		}
	}
}

func TestGCCandidatesPrefersEmptiestGroups(t *testing.T) {
	l := mustLog(t, 2)
	// Group 1: pages 0,1. Group 2: pages 2,3. Group 3: pages 0,4
	// (re-out of 0 leaves group 1 half-empty).
	l.Append(0, mkPage(0))
	l.Append(1, mkPage(1))
	l.Append(2, mkPage(2))
	l.Append(3, mkPage(3))
	l.Append(0, mkPage(4))
	l.Append(4, mkPage(5))
	// Group 1 has 1 active member (page 1); groups 2,3 are full.
	ids := l.GCCandidates(1)
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("GCCandidates = %v, want [1]", ids)
	}
	// Full groups must never be GC candidates (rewriting them frees
	// nothing).
	ids = l.GCCandidates(1000)
	for _, id := range ids {
		if id != 1 {
			t.Fatalf("GC wants to rewrite page %v from a full group", id)
		}
	}
}

func TestGCDrainsFragmentation(t *testing.T) {
	l := mustLog(t, 2)
	// Create heavy fragmentation: 8 pages, then re-pageout pages
	// 0,2,4,6, leaving half-empty groups.
	for i := 0; i < 8; i++ {
		l.Append(page.ID(i), mkPage(uint64(i)))
	}
	for _, i := range []page.ID{0, 2, 4, 6} {
		l.Append(i, mkPage(uint64(i)+100))
	}
	before, _ := l.VersionsStored()
	ids := l.GCCandidates(100)
	for _, id := range ids {
		l.Append(id, mkPage(uint64(id)+200)) // rewrite with current data
	}
	// Pad the open group so the final group seals and dead groups drain.
	l.Append(100, mkPage(1000))
	l.Append(101, mkPage(1001))
	after, _ := l.VersionsStored()
	if after >= before {
		t.Fatalf("GC did not shrink stored versions: %d -> %d", before, after)
	}
	if l.Live() != 10 || len(l.Pages()) != 10 {
		t.Fatalf("live pages = %d (%d listed), want 10", l.Live(), len(l.Pages()))
	}
}

func TestPlanRecoveryBadColumn(t *testing.T) {
	l := mustLog(t, 2)
	if _, err := l.PlanRecovery(3); err == nil {
		t.Fatal("PlanRecovery accepted out-of-range column")
	}
	if _, err := l.PlanRecovery(-1); err == nil {
		t.Fatal("PlanRecovery accepted negative column")
	}
	if _, err := l.PlanRecovery(0, 2); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("two columns down on single parity: err = %v, want ErrUnrecoverable", err)
	}
	if _, err := l.PlanRecovery(1, 1); err != nil {
		t.Fatalf("one column named twice: %v", err)
	}
}

func TestReconstructArityCheck(t *testing.T) {
	l := mustLog(t, 2)
	lp := LostPage{Column: 1, Survivors: []ColumnKey{{0, 1}, {2, 2}}}
	if _, err := l.Reconstruct(lp, []page.Buf{mkPage(1)}); err == nil {
		t.Fatal("Reconstruct accepted wrong survivor count")
	}
	if _, err := l.Reconstruct(lp, []page.Buf{mkPage(1), make(page.Buf, 3)}); err == nil {
		t.Fatal("Reconstruct accepted short page")
	}
	lp.Survivors[1].Column = 3
	if _, err := l.Reconstruct(lp, []page.Buf{mkPage(1), mkPage(2)}); err == nil {
		t.Fatal("Reconstruct accepted a survivor column outside the layout")
	}
	lp = LostPage{Column: 1, Survivors: []ColumnKey{{0, 1}}}
	if _, err := l.Reconstruct(lp, []page.Buf{mkPage(1)}); err == nil {
		t.Fatal("Reconstruct decoded from fewer than k survivors")
	}
}

func BenchmarkAppend(b *testing.B) {
	l, _ := NewLog(4)
	data := mkPage(1)
	b.SetBytes(page.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := l.Append(page.ID(i%256), data); err != nil {
			b.Fatal(err)
		}
	}
}
