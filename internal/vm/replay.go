package vm

import "rmp/internal/page"

// Ref is one page-granular memory reference in an application trace.
type Ref struct {
	Page  int64
	Write bool
}

// FaultKind distinguishes paging traffic directions.
type FaultKind int

const (
	// FaultIn is a pagein: a fault on a page whose contents live on
	// the backing store.
	FaultIn FaultKind = iota
	// FaultOut is a pageout: a dirty eviction.
	FaultOut
)

// Fault is one paging I/O produced by trace replay.
type Fault struct {
	Kind FaultKind
	Page int64
}

// Replayer simulates LRU demand paging over a page-reference stream
// without storing any data. The experiment harness replays the
// paper-scale application traces through it to obtain the pagein /
// pageout streams that drive the timing models. It is a Space whose
// frames hold no data and whose device reports each call as a Fault,
// so the two page identically by construction. Its page table grows to
// the largest page referenced, which must not be negative.
type Replayer struct{ s Space }

// NewReplayer creates a replayer with the given resident-set size in
// pages (minimum 2, matching Space). onFault may be nil.
func NewReplayer(residentPages int, onFault func(Fault)) *Replayer {
	return &Replayer{s: Space{backing: replayDevice{onFault}, maxRes: max(residentPages, 2), noData: true}}
}

// Ref feeds one reference through the LRU.
func (r *Replayer) Ref(pg int64, write bool) {
	r.s.frame(pg, write) // replayDevice never fails
}

// Refs feeds a batch of references.
func (r *Replayer) Refs(refs []Ref) {
	for _, ref := range refs {
		r.Ref(ref.Page, ref.Write)
	}
}

// Counts returns the pageins and pageouts replayed so far.
func (r *Replayer) Counts() (ins, outs uint64) { return r.s.stats.PageIns, r.s.stats.PageOuts }

// replayDevice stores nothing and reports each call as a Fault.
type replayDevice struct{ onFault func(Fault) }

func (d replayDevice) ReadBlock(bn int64, _ page.Buf) error  { return d.fault(FaultIn, bn) }
func (d replayDevice) WriteBlock(bn int64, _ page.Buf) error { return d.fault(FaultOut, bn) }
func (replayDevice) Discard(...int64) error                  { return nil }
func (replayDevice) Close() error                            { return nil }

func (d replayDevice) fault(kind FaultKind, pg int64) error {
	if d.onFault != nil {
		d.onFault(Fault{Kind: kind, Page: pg})
	}
	return nil
}
