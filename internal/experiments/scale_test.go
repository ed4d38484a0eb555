package experiments

import (
	"strings"
	"testing"
	"time"
)

// firedLines filters a scenario's event log down to the schedule
// events that actually fired (prefix "t="), dropping harness warnings
// whose presence may depend on machine speed.
func firedLines(events []string) string {
	var out []string
	for _, e := range events {
		if strings.HasPrefix(e, "t=") {
			out = append(out, e)
		}
	}
	return strings.Join(out, "\n")
}

// TestScaleSmoke is the CI-sized harness run: N=50 clients × M=8
// servers under a trimmed schedule (one flap, one inbound isolation),
// with the full invariant set as pass/fail. The scale-smoke CI job
// runs exactly this under -race.
func TestScaleSmoke(t *testing.T) {
	res, err := runScaleScenario(scaleCfg{
		name: "smoke", clients: 50, servers: 8, racks: 4, perClient: 4,
		schedule: "@2 flap ? period 4 count 1\n@8 partition * -> srv2 for 3",
		seed:     42,
		steps:    13, opsPerStep: 2, keys: 6,
		hbInterval: 150 * time.Millisecond, hbTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.invariants != "pass" {
		t.Fatalf("invariant violated: %s\nevents:\n%s", res.invariants, strings.Join(res.events, "\n"))
	}
	if res.acked == 0 {
		t.Fatal("no page was ever acknowledged")
	}
	if fired := firedLines(res.events); strings.Count(fired, "\n")+1 < 5 {
		t.Fatalf("schedule fired too few events:\n%s", fired)
	}
	if res.hbDeaths == 0 {
		t.Fatal("no client ever confirmed a death: the schedule did not bite")
	}
}

// TestScheduleDeterministicReplay: the same schedule seed replayed
// twice over the same workload produces byte-identical event
// timelines and invariant verdicts.
func TestScheduleDeterministicReplay(t *testing.T) {
	cfg := scaleCfg{
		name: "replay", clients: 12, servers: 4, racks: 2, perClient: 3,
		schedule: "@2 flap ? period 4 count 2",
		seed:     7,
		steps:    12, opsPerStep: 2, keys: 6,
		hbInterval: 120 * time.Millisecond, hbTimeout: 800 * time.Millisecond,
	}
	a, err := runScaleScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runScaleScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := firedLines(a.events), firedLines(b.events); fa != fb {
		t.Fatalf("event timelines diverged between identical seeds:\n--- run 1\n%s\n--- run 2\n%s", fa, fb)
	}
	if a.invariants != b.invariants {
		t.Fatalf("invariant verdicts diverged: %q vs %q", a.invariants, b.invariants)
	}
	if a.invariants != "pass" {
		t.Fatalf("invariant violated: %s", a.invariants)
	}
	if a.acked == 0 || b.acked == 0 {
		t.Fatal("no page was ever acknowledged")
	}
}
