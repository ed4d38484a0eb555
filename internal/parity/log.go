// Package parity implements the client-side bookkeeping of the
// log-structured stripe engine: the paper's parity-logging reliability
// policy (§2.2) generalised from S data pages + 1 XOR parity page to
// k data pages + m Reed-Solomon parity pages per group.
//
// The key idea of parity logging: a page is not bound to a fixed
// server or parity group. Every pageout goes to a fresh slot, chosen
// round-robin across k data-server columns, and is folded into m
// client-resident parity buffers (rs.Code.EncodeOne; with m = 1 that
// fold is the paper's XOR). After k pageouts the buffers are shipped
// to the m parity columns and the group is sealed: cost 1 + m/k
// transfers per pageout instead of basic parity's 2, and any k of a
// sealed group's k+m shards rebuild the rest.
//
// When a page is paged out again, its previous version is only
// *marked inactive* in its old group — deleting it would force a
// parity update (footnote 3 of the paper). Inactive versions occupy
// server memory ("overflow"); when every member of a group is
// inactive the group's server slots and parity slots are reclaimed.
// If fragmentation eats the overflow there are two ways on: garbage
// collection rewrites the active members of the emptiest groups into
// fresh groups, or — single parity only — the pager overwrites a page's
// sealed slot in place and has its server XOR old ^ new into the
// group's parity (PatchTarget), which stores nothing new. The Log keeps
// the census both need: sealed groups by active-member count.
//
// A patch is two writes on two machines, so between BeginPatch and
// EndPatch the group's parity is in doubt and the Log plans no decode
// through it; a patch that fails is never ended.
//
// Log is pure bookkeeping: it decides placements, parity seals,
// reclamations, patch targets, recovery and GC plans, while the pager
// performs the actual transfers. That separation makes the algorithm
// exhaustively testable without a network.
package parity

import (
	"errors"
	"fmt"

	"rmp/internal/page"
	"rmp/internal/rs"
)

// Placement tells the pager where the just-appended page version goes.
type Placement struct {
	Column int    // data column 0..k-1
	Key    uint64 // storage key on that column's server
	Group  uint64 // parity group id
}

// ColumnKey names a stored shard: columns 0..k-1 hold page versions,
// columns k..k+m-1 the parity shards of sealed groups.
type ColumnKey struct {
	Column int
	Key    uint64
}

// SealedParity tells the pager to ship a completed group's m parity
// shards: Data[j] goes to Slots[j]. The order Append returns is the
// Log's own and is overwritten by the next seal; the Data buffers are
// the caller's from then on.
type SealedParity struct {
	Group uint64
	Slots []ColumnKey
	Data  []page.Buf
}

// Reclaim lists server slots whose contents may be discarded because
// their parity group died (all members inactive).
type Reclaim struct {
	Group uint64
	Slots []ColumnKey // data slots and the parity slots
}

// member is one page version inside a group.
type member struct {
	page   page.ID
	key    uint64
	active bool
}

// group is a parity group.
type group struct {
	id      uint64
	members []member // index == column
	parity  []uint64 // parity keys by parity index; nil until sealed
	active  int      // count of active members
	// inDoubt: an in-place patch of a member was sent and has not been
	// acknowledged, so the stored parity may or may not hold its delta.
	// plan refuses such a group (fail closed) until the ack clears the
	// mark or a rebuild replaces the log.
	inDoubt bool
}

func (g *group) sealed() bool { return g.parity != nil }

// Log is the parity-logging state machine. Not safe for concurrent
// use; the pager serializes pageouts through it.
type Log struct {
	k, m    int // group shape: data columns, parity columns
	code    *rs.Code
	nextKey uint64
	// keyFunc, when set, supplies storage keys instead of the internal
	// counter. The pager injects its global allocator so that keys
	// stay unique across log rebuilds (a rebuilt log must never reuse
	// keys that are still being freed from the previous layout).
	keyFunc func() uint64

	cur *group
	// buffers are the m running parity shards of the open group: zero
	// when it opens, handed out at the seal.
	buffers [][]byte

	groups map[uint64]*group
	nextID uint64

	// live maps a logical page to its current version's location.
	live map[page.ID]liveRef
	// stored and sealedGroups count the data versions (active and
	// inactive) and the sealed groups currently held, kept incrementally
	// because the pager asks after every pageout.
	stored       int
	sealedGroups int
	// byActive[a] holds the sealed groups with a active members, kept in
	// step by seal, deactivate and reclaim. Cleaning takes its victims
	// from the emptiest bucket up, and the pager weighs cleaning against
	// patching by what the emptiest victim would cost.
	byActive []map[uint64]*group

	// sealed is the transfer order the last seal handed out, reused so
	// that a seal allocates nothing but the group's parity keys.
	sealed SealedParity
	// Decode scratch for Reconstruct, k+m rows.
	shards  [][]byte
	present []bool

	stats Stats
}

type liveRef struct {
	group uint64
	index int
}

// Stats counts Log activity.
type Stats struct {
	Appends     uint64
	Seals       uint64
	Reclaims    uint64
	Invalidates uint64
	Patches     uint64
}

// NewLog creates the paper's parity log: s data columns and one XOR
// parity column.
func NewLog(s int) (*Log, error) { return NewShapedLog(s, 1) }

// NewShapedLog creates a log whose groups hold k data shards and m
// parity shards, surviving the loss of any m columns.
func NewShapedLog(k, m int) (*Log, error) {
	code, err := rs.New(k, m)
	if err != nil {
		return nil, fmt.Errorf("parity: %w", err)
	}
	l := &Log{
		k: k, m: m,
		code:     code,
		buffers:  make([][]byte, m),
		groups:   make(map[uint64]*group),
		live:     make(map[page.ID]liveRef),
		byActive: make([]map[uint64]*group, k+1),
		sealed:   SealedParity{Slots: make([]ColumnKey, m), Data: make([]page.Buf, m)},
		shards:   make([][]byte, k+m),
		present:  make([]bool, k+m),
	}
	for j := range l.buffers {
		l.buffers[j] = page.GetZero()
	}
	for a := range l.byActive {
		l.byActive[a] = make(map[uint64]*group)
	}
	return l, nil
}

// K returns the number of data columns (the group width S).
func (l *Log) K() int { return l.k }

// M returns the number of parity columns.
func (l *Log) M() int { return l.m }

// Stats returns a snapshot of activity counters.
func (l *Log) Stats() Stats { return l.stats }

// SetKeySource installs an external storage-key allocator. Must be
// called before the first Append.
func (l *Log) SetKeySource(f func() uint64) { l.keyFunc = f }

// allocKey issues a fresh storage key.
func (l *Log) allocKey() uint64 {
	if l.keyFunc != nil {
		return l.keyFunc()
	}
	k := l.nextKey
	l.nextKey++
	return k
}

// Append records the pageout of p with contents data.
//
// It returns the placement for the new version, a parity seal if this
// append completed a group, and any reclamations triggered by the
// previous version of p going inactive. The caller must (1) transfer
// data to the placement's column, (2) if sealed, transfer the parity
// shards to their columns, and (3) free the reclaimed slots — in that
// order.
func (l *Log) Append(p page.ID, data page.Buf) (Placement, *SealedParity, []Reclaim, error) {
	if err := data.CheckLen(); err != nil {
		return Placement{}, nil, nil, err
	}
	if l.cur == nil {
		// buffers are already zero: they are replaced at seal time.
		l.nextID++
		l.cur = &group{id: l.nextID, members: make([]member, 0, l.k)}
		l.groups[l.cur.id] = l.cur
	}
	g := l.cur
	col := len(g.members)
	if err := l.code.EncodeOne(l.buffers, col, data); err != nil {
		return Placement{}, nil, nil, err
	}

	// Mark the previous version inactive (footnote 3: don't delete —
	// that would require a parity update).
	var reclaims []Reclaim
	if ref, ok := l.live[p]; ok {
		if r := l.deactivate(ref); r != nil {
			reclaims = append(reclaims, *r)
		}
	}

	key := l.allocKey()
	g.members = append(g.members, member{page: p, key: key, active: true})
	g.active++
	l.live[p] = liveRef{group: g.id, index: col}
	l.stored++
	l.stats.Appends++

	var seal *SealedParity
	if len(g.members) == l.k {
		seal = l.seal()
	}
	return Placement{Column: col, Key: key, Group: g.id}, seal, reclaims, nil
}

// seal closes the open group and returns the parity transfer order.
// The group just took an active member, so it cannot be dead here.
func (l *Log) seal() *SealedParity {
	g := l.cur
	out := &l.sealed
	out.Group = g.id
	g.parity = make([]uint64, l.m)
	for j := range g.parity {
		g.parity[j] = l.allocKey()
		out.Slots[j] = ColumnKey{Column: l.k + j, Key: g.parity[j]}
		out.Data[j] = l.buffers[j]
		l.buffers[j] = page.GetZero()
	}
	l.sealedGroups++
	l.byActive[g.active][g.id] = g
	l.stats.Seals++
	l.cur = nil
	return out
}

// deactivate marks the member at ref inactive and reclaims its group
// if that was the last active member of a sealed group.
func (l *Log) deactivate(ref liveRef) *Reclaim {
	g := l.groups[ref.group]
	m := &g.members[ref.index]
	if !m.active {
		return nil
	}
	m.active = false
	g.active--
	l.stats.Invalidates++
	if !g.sealed() {
		return nil
	}
	delete(l.byActive[g.active+1], g.id)
	if g.active == 0 {
		return l.reclaim(g)
	}
	l.byActive[g.active][g.id] = g
	return nil
}

// slots lists every server slot g occupies.
func (l *Log) slots(g *group, out []ColumnKey) []ColumnKey {
	for col, m := range g.members {
		out = append(out, ColumnKey{Column: col, Key: m.key})
	}
	for j, key := range g.parity {
		out = append(out, ColumnKey{Column: l.k + j, Key: key})
	}
	return out
}

// reclaim removes a dead sealed group, already out of the census, and
// lists its slots for freeing.
func (l *Log) reclaim(g *group) *Reclaim {
	delete(l.groups, g.id)
	l.stored -= len(g.members)
	l.sealedGroups--
	l.stats.Reclaims++
	return &Reclaim{Group: g.id, Slots: l.slots(g, nil)}
}

// Lookup returns where the live version of p is stored.
func (l *Log) Lookup(p page.ID) (ColumnKey, bool) {
	ref, ok := l.live[p]
	if !ok {
		return ColumnKey{}, false
	}
	g := l.groups[ref.group]
	return ColumnKey{Column: ref.index, Key: g.members[ref.index].key}, true
}

// Free drops the logical page p entirely (its swap space was
// released), deactivating its live version.
func (l *Log) Free(p page.ID) []Reclaim {
	ref, ok := l.live[p]
	if !ok {
		return nil
	}
	delete(l.live, p)
	if r := l.deactivate(ref); r != nil {
		return []Reclaim{*r}
	}
	return nil
}

// PatchTarget names the slots an in-place overwrite of a live page
// touches: its own, and its sealed group's one parity shard.
type PatchTarget struct {
	Group  uint64
	Slot   ColumnKey
	Parity ColumnKey
	Active int // active members of the group, this page included
}

// PatchTarget reports where the live version of p can be overwritten in
// place: new contents into Slot, old XOR new into Parity (the server's
// XORWRITE does both). Nothing in the log changes — no key, no member,
// no version count. Only a single-parity shape qualifies, whose parity
// is the plain XOR of the members; and only a sealed group whose stored
// parity is not already in doubt (the open group's parity still lives
// in the client's buffers, which cannot take a delta without the old
// contents).
func (l *Log) PatchTarget(p page.ID) (PatchTarget, bool) {
	ref, ok := l.live[p]
	if !ok || l.m != 1 {
		return PatchTarget{}, false
	}
	g := l.groups[ref.group]
	if !g.sealed() || g.inDoubt {
		return PatchTarget{}, false
	}
	return PatchTarget{
		Group:  g.id,
		Slot:   ColumnKey{Column: ref.index, Key: g.members[ref.index].key},
		Parity: ColumnKey{Column: l.k, Key: g.parity[0]},
		Active: g.active,
	}, true
}

// BeginPatch puts the group's parity in doubt; the caller sends the
// patch next. Until EndPatch no member of the group decodes through it.
func (l *Log) BeginPatch(t PatchTarget) { l.groups[t.Group].inDoubt = true }

// EndPatch records the acknowledgement of the patch BeginPatch opened:
// slot and parity both hold the new contents. A patch that fails is
// never ended — the group stays in doubt until a rebuild replaces the
// log.
func (l *Log) EndPatch(t PatchTarget) {
	l.groups[t.Group].inDoubt = false
	l.stats.Patches++
}

// Live returns how many logical pages have a live version in the log.
func (l *Log) Live() int { return len(l.live) }

// Pages returns the logical pages with a live version in the log.
func (l *Log) Pages() []page.ID {
	out := make([]page.ID, 0, len(l.live))
	for p := range l.live {
		out = append(out, p)
	}
	return out
}

// VersionsStored returns the total number of page versions (active +
// inactive) plus sealed parity pages currently occupying server
// memory. This is what the 10 % overflow pays for.
func (l *Log) VersionsStored() (data, parityPages int) {
	return l.stored, l.sealedGroups * l.m
}

// AllSlots enumerates every server slot the log currently occupies
// (all page versions and sealed parity pages). Recovery uses it to
// free the old layout after rebuilding into a fresh log.
func (l *Log) AllSlots() []ColumnKey {
	var out []ColumnKey
	for _, g := range l.groups {
		out = l.slots(g, out)
	}
	return out
}

// Census classifies every live page by what the loss of the dead
// columns leaves of its group: full while one more column could still
// go (at least k+1 shards left), degraded while the page stays
// readable (its own shard is up, or k shards are), lost otherwise. The
// open group's parity lives in the client's buffers, so only its
// member columns count against it.
func (l *Log) Census(dead ...int) (full, degraded, lost int) {
	for _, ref := range l.live {
		g := l.groups[ref.group]
		gone, own := 0, false
		for i, c := range dead {
			if containsInt(dead[:i], c) || (!g.sealed() && c >= len(g.members)) {
				continue
			}
			gone++
			own = own || c == ref.index
		}
		switch {
		case gone < l.m:
			full++
		case !own || gone == l.m:
			degraded++
		default:
			lost++
		}
	}
	return full, degraded, lost
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// --- crash recovery ---------------------------------------------------

// ErrUnrecoverable reports that fewer than k shards of a page's group
// survive: more columns are gone than the group has parity.
var ErrUnrecoverable = errors.New("parity: fewer than k shards of the group survive")

// zeroPage stands in for the columns an open group has not reached
// yet. Read-only.
var zeroPage = page.NewBuf()

// LostPage describes one active page version to reconstruct.
type LostPage struct {
	Page   page.ID
	Column int // the column its shard sat on
	// Survivors are the shards to fetch: for a sealed group any k of its
	// surviving data and parity shards (data first — identity rows
	// decode cheapest). For the open (unsealed) group Survivors lists
	// the surviving members only and UseBuffer is set: the client's
	// in-memory parity buffers substitute for the parity shards.
	Survivors []ColumnKey
	UseBuffer bool
}

// RecoveryPlan lists what must be rebuilt after a set of columns
// crashed.
type RecoveryPlan struct {
	Lost []LostPage
}

// PlanRecovery computes the reconstruction plan for the simultaneous
// crash of up to m columns, data or parity: one LostPage per live page
// on a dead data column. Losing parity columns alone loses no data.
func (l *Log) PlanRecovery(dead ...int) (RecoveryPlan, error) {
	var distinct []int
	for _, c := range dead {
		if c < 0 || c >= l.k+l.m {
			return RecoveryPlan{}, fmt.Errorf("parity: column %d out of range", c)
		}
		if !containsInt(distinct, c) {
			distinct = append(distinct, c)
		}
	}
	if len(distinct) > l.m {
		return RecoveryPlan{}, fmt.Errorf("%w: %d columns down, parity width %d", ErrUnrecoverable, len(distinct), l.m)
	}
	var plan RecoveryPlan
	for _, g := range l.groups {
		for _, c := range distinct {
			if c >= len(g.members) || !g.members[c].active {
				continue // group never reached that column, or superseded
			}
			lp, err := l.plan(g, c, distinct)
			if err != nil {
				return RecoveryPlan{}, err
			}
			plan.Lost = append(plan.Lost, lp)
		}
	}
	return plan, nil
}

// PlanPage plans the reconstruction of the live version of p alone,
// treating its own shard and every column in erased as unavailable —
// the repair of one unreadable shard, and the unit PlanRecovery is
// made of. ErrUnrecoverable means too few shards are left.
func (l *Log) PlanPage(p page.ID, erased ...int) (LostPage, error) {
	ref, ok := l.live[p]
	if !ok {
		return LostPage{}, fmt.Errorf("parity: page %v has no live version", p)
	}
	return l.plan(l.groups[ref.group], ref.index, erased)
}

// plan picks the survivors that rebuild member idx of g with the
// columns in erased (and idx itself) gone.
func (l *Log) plan(g *group, idx int, erased []int) (LostPage, error) {
	if g.inDoubt {
		// Decoding through a parity that may lack a delta (or hold one its
		// data slot does not) would fabricate bytes no checksum catches.
		return LostPage{}, fmt.Errorf("%w: the parity of group %d is in doubt after an unacknowledged patch", ErrUnrecoverable, g.id)
	}
	lp := LostPage{Page: g.members[idx].page, Column: idx, UseBuffer: !g.sealed()}
	up := func(c int) bool { return c != idx && !containsInt(erased, c) }
	for c, m := range g.members {
		if up(c) {
			lp.Survivors = append(lp.Survivors, ColumnKey{Column: c, Key: m.key})
		}
	}
	if lp.UseBuffer {
		// Every member that is gone costs one of the m buffers.
		if len(g.members)-len(lp.Survivors) > l.m {
			return LostPage{}, ErrUnrecoverable
		}
		return lp, nil
	}
	for j, key := range g.parity {
		if len(lp.Survivors) == l.k {
			break
		}
		if up(l.k + j) {
			lp.Survivors = append(lp.Survivors, ColumnKey{Column: l.k + j, Key: key})
		}
	}
	if len(lp.Survivors) < l.k {
		return LostPage{}, ErrUnrecoverable
	}
	return lp, nil
}

// Reconstruct decodes the lost page from the survivor pages (and, for
// the open group, the client's parity buffers, which must not have
// moved on since the plan). pages must be in the same order as
// lp.Survivors. The result is a pooled buffer owned by the caller.
func (l *Log) Reconstruct(lp LostPage, pages []page.Buf) (page.Buf, error) {
	if len(pages) != len(lp.Survivors) {
		return nil, fmt.Errorf("parity: got %d survivor pages, want %d", len(pages), len(lp.Survivors))
	}
	if lp.Column < 0 || lp.Column >= l.k {
		return nil, fmt.Errorf("parity: lost column %d out of range", lp.Column)
	}
	for i := range l.shards {
		l.shards[i], l.present[i] = nil, false
	}
	for i, s := range lp.Survivors {
		if err := pages[i].CheckLen(); err != nil {
			return nil, err
		}
		if s.Column < 0 || s.Column >= l.k+l.m || s.Column == lp.Column {
			return nil, fmt.Errorf("parity: survivor column %d out of range", s.Column)
		}
		l.shards[s.Column], l.present[s.Column] = pages[i], true
	}
	if lp.UseBuffer {
		if l.cur == nil {
			return nil, errors.New("parity: the open group sealed after the plan was made")
		}
		for c := len(l.cur.members); c < l.k; c++ {
			l.shards[c], l.present[c] = zeroPage, true
		}
		for j, b := range l.buffers {
			l.shards[l.k+j], l.present[l.k+j] = b, true
		}
	}
	out := page.Get() // the decode overwrites every byte
	l.shards[lp.Column] = out
	if err := l.code.Reconstruct(l.shards, l.present); err != nil {
		page.Put(out)
		return nil, fmt.Errorf("parity: %w", err)
	}
	return out, nil
}

// --- garbage collection ------------------------------------------------

// GCCandidates returns the live pages of the sealed groups with the
// lowest active fraction, covering at least wantSlots reclaimable
// slots. Re-appending those pages (normal pageouts of their current
// contents) drains the chosen groups to zero active members, at which
// point Append returns their Reclaims naturally. This implements the
// paper's "combining their active pages to new ones".
func (l *Log) GCCandidates(wantSlots int) []page.ID {
	var out []page.ID
	covered := 0
	// Emptiest groups first: most reclaimable slots per page rewritten;
	// full groups (the last bucket) yield nothing. Equally empty groups
	// come in the order this pass's map iteration produces, a fresh one
	// every pass, and that is deliberate: any fixed tie-break (group id
	// ascending, descending or hashed) ties the victims to write order,
	// and on the benchmark's GAUSS workload each of those cost 6-13 %
	// more transfers per pageout than the per-pass order.
	for _, bucket := range l.byActive[:l.k] {
		for _, g := range bucket {
			if covered >= wantSlots {
				return out
			}
			for _, m := range g.members {
				if m.active {
					out = append(out, m.page)
				}
			}
			covered += len(g.members) + l.m
		}
	}
	return out
}

// EmptiestVictim returns the active-member count of the emptiest sealed
// group cleaning could win slots from, or ok=false when every sealed
// group is full.
func (l *Log) EmptiestVictim() (active int, ok bool) {
	for a, bucket := range l.byActive[:l.k] {
		if len(bucket) > 0 {
			return a, true
		}
	}
	return 0, false
}
