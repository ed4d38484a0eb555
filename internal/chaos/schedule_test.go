package chaos

import (
	"strings"
	"testing"
)

var testServers = []string{"s0", "s1", "s2", "s3"}
var testRacks = map[string][]string{
	"r0": {"s0", "s1"},
	"r1": {"s2", "s3"},
}

// recorder is an Env that appends op strings, for asserting what a
// timeline actually executes.
type recorder struct{ ops []string }

func (r *recorder) env() Env {
	return Env{
		Kill:      func(s string) { r.ops = append(r.ops, "kill "+s) },
		Restart:   func(s string) { r.ops = append(r.ops, "restart "+s) },
		Partition: func(a, b string) { r.ops = append(r.ops, "partition "+a+"->"+b) },
		Heal:      func(a, b string) { r.ops = append(r.ops, "heal "+a+"->"+b) },
		Settle:    func() { r.ops = append(r.ops, "settle") },
	}
}

func drive(tl *Timeline, env Env) {
	for _, tick := range tl.Ticks() {
		tl.Fire(tick, env)
	}
}

func TestParseCanonicalRoundTrip(t *testing.T) {
	src := `
# a comment
@0 kill s1
@2 restart s1     # trailing comment
@3 partition s0 -> s2 for 4
@9 heal cli -> s3
@10 rackfail r0 for 5
@20 rackheal r1
@21 flap s2 period 4 count 2
@40 rolling every 6 down 2
@99 settle
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	canon := s.String()
	s2, err := Parse(canon)
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v\n%s", err, canon)
	}
	if got := s2.String(); got != canon {
		t.Fatalf("String is not a fixed point:\n%q\n%q", canon, got)
	}
	if len(s.Events) != 9 {
		t.Fatalf("parsed %d events, want 9", len(s.Events))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                                  // empty schedule
		"kill s0",                           // missing @tick
		"@x kill s0",                        // bad tick
		"@-1 kill s0",                       // negative tick
		"@5 kill",                           // missing target
		"@5 explode s0",                     // unknown op
		"@5 partition s0 s1",                // missing arrow
		"@5 partition s0 -> s1 for 0",       // zero-duration phase
		"@5 rackfail r0 for 0",              // zero-duration phase
		"@5 flap s0 period 1 count 2",       // period too small
		"@5 flap s0 period 4 count 0",       // zero count
		"@5 rolling every 0 down 1",         // zero spacing
		"@5 rolling every 4 down 0",         // zero down
		"@5 settle now",                     // trailing operand
		"@5 restart ?",                      // random restart is meaningless
		"@5 kill s0 extra",                  // trailing operand
		"@2000000 kill s0",                  // beyond MaxTick bound
		"@5 heal a -> b for 3",              // heal takes no duration
		"@5 flap s0 period 9999999 count 2", // beyond bound
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestCompileRejectsOverlap(t *testing.T) {
	bad := []string{
		"@0 kill s0\n@1 kill s0",                           // kill while down
		"@0 restart s0",                                    // restart of a live server
		"@0 kill s0\n@1 restart s0\n@2 restart s0",         // double restart
		"@0 partition a -> s1\n@1 partition a -> s1",       // duplicate partition
		"@0 heal a -> s1",                                  // heal with no partition
		"@0 partition a -> s1 for 2\n@1 partition a -> s1", // overlap with auto-heal
		"@0 rackfail r0 for 5\n@2 rackfail r0 for 5",       // rack isolation overlap
		"@0 kill nosuch",                                   // unknown server
		"@0 rackfail nosuch",                               // unknown rack
		"@0 partition a -> nosuch",                         // unknown destination
		"@0 flap s0 period 4 count 2\n@1 kill s0",          // flap overlaps kill
		"@0 rolling every 2 down 1\n@1 kill s1",            // rolling overlaps kill
	}
	for _, src := range bad {
		s, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := s.Compile(1, testServers, testRacks); err == nil {
			t.Errorf("Compile(%q) succeeded, want overlap/consistency error", src)
		}
	}
}

func TestCompileRollingExpansion(t *testing.T) {
	s := MustParse("@10 rolling every 6 down 2")
	tl, err := s.Compile(1, testServers, testRacks)
	if err != nil {
		t.Fatal(err)
	}
	// Per server: settle, kill, restart.
	if tl.Steps() != 3*len(testServers) {
		t.Fatalf("rolling expanded to %d steps, want %d", tl.Steps(), 3*len(testServers))
	}
	rec := &recorder{}
	drive(tl, rec.env())
	want := []string{
		"settle", "kill s0", "restart s0",
		"settle", "kill s1", "restart s1",
		"settle", "kill s2", "restart s2",
		"settle", "kill s3", "restart s3",
	}
	if strings.Join(rec.ops, ",") != strings.Join(want, ",") {
		t.Fatalf("rolling executed %v, want %v", rec.ops, want)
	}
	if tl.MaxTick() != 10+3*6+2 {
		t.Fatalf("MaxTick = %d", tl.MaxTick())
	}
}

func TestCompileRackFailIsolates(t *testing.T) {
	s := MustParse("@5 rackfail r0 for 3")
	tl, err := s.Compile(1, testServers, testRacks)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	drive(tl, rec.env())
	want := []string{
		"partition *->s0", "partition *->s1",
		"heal *->s0", "heal *->s1",
	}
	if strings.Join(rec.ops, ",") != strings.Join(want, ",") {
		t.Fatalf("rackfail executed %v, want %v", rec.ops, want)
	}
}

func TestCompileSeededTargetsDeterministic(t *testing.T) {
	s := MustParse("@0 kill ?\n@5 restart s0\n@10 flap ? period 4 count 1")
	// The '?' picks must replay identically for one seed...
	tl1, err := s.Compile(7, testServers, testRacks)
	if err == nil {
		rec1, rec2 := &recorder{}, &recorder{}
		drive(tl1, rec1.env())
		tl2, err2 := s.Compile(7, testServers, testRacks)
		if err2 != nil {
			t.Fatal(err2)
		}
		drive(tl2, rec2.env())
		if strings.Join(rec1.ops, ",") != strings.Join(rec2.ops, ",") {
			t.Fatalf("same seed produced different timelines:\n%v\n%v", rec1.ops, rec2.ops)
		}
		if strings.Join(tl1.Log(), "\n") != strings.Join(tl2.Log(), "\n") {
			t.Fatalf("same seed produced different logs")
		}
	}
	// ...and some seed must produce a different victim than seed 7
	// (otherwise '?' is not actually random over the universe). With
	// the restart pinned to s0, a '?' kill of any other server makes
	// the compile fail — both outcomes are acceptable per seed, but
	// across many seeds both must occur.
	sawOK, sawErr := false, false
	for seed := int64(0); seed < 64; seed++ {
		if _, err := s.Compile(seed, testServers, testRacks); err == nil {
			sawOK = true
		} else {
			sawErr = true
		}
	}
	if !sawOK || !sawErr {
		t.Fatalf("'?' target not exercising the server universe (ok=%v err=%v)", sawOK, sawErr)
	}
}

// TestFireSkippedTicksCatchUp: a driver that visits only Ticks()
// still fires everything, in order.
func TestFireSkippedTicksCatchUp(t *testing.T) {
	s := MustParse("@0 kill s0\n@7 restart s0\n@9 kill s1")
	tl, err := s.Compile(1, testServers, testRacks)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	tl.Fire(100, rec.env()) // one late catch-up call
	want := "kill s0,restart s0,kill s1"
	if strings.Join(rec.ops, ",") != want {
		t.Fatalf("catch-up fired %v", rec.ops)
	}
	if len(tl.Log()) != 3 {
		t.Fatalf("log has %d lines, want 3", len(tl.Log()))
	}
}

// FuzzSchedule: the parser and compiler must never panic, the
// canonical form must round-trip as a fixed point, and compilation
// plus execution must be deterministic — malformed timelines,
// overlapping events, and zero-duration phases all rejected with
// errors, never crashes.
func FuzzSchedule(f *testing.F) {
	f.Add("@0 kill s0\n@2 restart s0")
	f.Add("@0 kill ?\n@9 settle")
	f.Add("@3 partition s0 -> s2 for 4\n@9 heal cli -> s3")
	f.Add("@3 partition * -> s2 for 4")
	f.Add("@10 rackfail r0 for 5\n@20 rackheal r1\n@15 rackfail r1 for 2")
	f.Add("@21 flap s2 period 4 count 2")
	f.Add("@40 rolling every 6 down 2")
	f.Add("@0 kill s0\n@1 kill s0")      // overlapping
	f.Add("@5 partition s0 -> s1 for 0") // zero-duration
	f.Add("@5 flap s0 period 0 count 0") // degenerate
	f.Add("# only a comment")            // empty
	f.Add("@999999999999 kill s0")       // overflow-ish tick
	f.Add("@0 kill s0 @2 restart s0")    // events jammed on one line
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return // malformed input rejected cleanly
		}
		canon := s.String()
		s2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%q", err, canon)
		}
		if got := s2.String(); got != canon {
			t.Fatalf("String not a fixed point:\n%q\n%q", canon, got)
		}
		tl1, err1 := s.Compile(7, testServers, testRacks)
		tl2, err2 := s2.Compile(7, testServers, testRacks)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("compile verdict differs between identical schedules: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return // inconsistent timeline rejected cleanly
		}
		drive(tl1, Env{
			Kill:      func(string) {},
			Restart:   func(string) {},
			Partition: func(string, string) {},
			Heal:      func(string, string) {},
		})
		drive(tl2, Env{
			Kill:      func(string) {},
			Restart:   func(string) {},
			Partition: func(string, string) {},
			Heal:      func(string, string) {},
		})
		l1, l2 := tl1.Log(), tl2.Log()
		if strings.Join(l1, "\n") != strings.Join(l2, "\n") {
			t.Fatalf("replay diverged:\n%v\n%v", l1, l2)
		}
		if tl1.Steps() != len(l1) {
			t.Fatalf("fired %d of %d steps", len(l1), tl1.Steps())
		}
	})
}
