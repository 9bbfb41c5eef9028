package fault

import (
	"reflect"
	"testing"
)

func TestParseSpecClauses(t *testing.T) {
	c, err := ParseSpec("drop=0.05,dup=0.02,delay=0.1:8000,stall=0.01:20000,degrade=0.02:50000:200,rto=5000,maxattempts=4")
	if err != nil {
		t.Fatal(err)
	}
	if c.Drop != 0.05 || c.Dup != 0.02 {
		t.Fatalf("drop/dup wrong: %+v", c)
	}
	if c.Delay != 0.1 || c.DelayMax != 8000 {
		t.Fatalf("delay wrong: %+v", c)
	}
	if c.Stall != 0.01 || c.StallMax != 20000 {
		t.Fatalf("stall wrong: %+v", c)
	}
	if c.Degrade != 0.02 || c.DegradeWindow != 50000 || c.DegradeExtra != 200 {
		t.Fatalf("degrade wrong: %+v", c)
	}
	if c.RTO != 5000 || c.MaxAttempts != 4 {
		t.Fatalf("recovery knobs wrong: %+v", c)
	}
}

func TestParseSpecPresets(t *testing.T) {
	for name := range Presets {
		c, err := ParseSpec(name)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if c.Drop == 0 {
			t.Fatalf("preset %q parsed to an empty schedule", name)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",                   // not key=value and not a preset
		"drop=2",                  // probability out of range
		"drop=x",                  // not a number
		"drop=NaN",                // a float, and in no interval
		"delay=0.5",               // missing cycle bound
		"stall=0.5:0",             // zero cycle bound
		"degrade=0.5:100",         // missing extra cycles
		"wibble=0.5",              // unknown clause
		"maxattempts=never",       // not a count
		"crash=1@x:100",           // crash cycle not a number
		"partition=1.2:100",       // partition without @CYCLE
		"partition=1.2@x:1",       // partition cycle not a number
		"partition=1.2@10,heal=x", // heal cycle not a number
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) should fail", spec)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	// The second spec sets the transport's timeout and attempt bound: a
	// reproduce line that dropped them would run a different schedule.
	for _, spec := range []string{"light", "drop=0.01,rto=5000,maxattempts=3"} {
		orig, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(orig.String())
		if err != nil {
			t.Fatalf("re-parsing %q: %v", orig.String(), err)
		}
		if !reflect.DeepEqual(back, orig) {
			t.Fatalf("%q round trip through %q changed the schedule:\n%#v\nvs\n%#v", spec, orig.String(), orig, back)
		}
	}
	var zero Config
	if zero.String() != "none" {
		t.Fatalf("zero schedule renders %q", zero.String())
	}
	if back, err := ParseSpec("none"); err != nil || !reflect.DeepEqual(back, zero) {
		t.Fatalf("the empty schedule's own rendering parses to %+v, %v", back, err)
	}
}

// TestOutageRoundTrip: the state-destroying clauses must survive a
// String/ParseSpec round trip exactly — fuzzdsm prints reproduce lines
// in this syntax.
func TestOutageRoundTrip(t *testing.T) {
	orig, err := ParseSpec("burst=0.02:6,crash=3@50000:20000,crash=1@90000,restart=1@140000,partition=0.2@10000:5000,partition=5@200000,heal=230000")
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.Crashes) != 2 || orig.Crashes[1].Down != 50000 {
		t.Fatalf("restart clause did not close the crash: %+v", orig.Crashes)
	}
	if len(orig.Partitions) != 2 || orig.Partitions[1].Until != 230000 {
		t.Fatalf("heal clause did not close the partition: %+v", orig.Partitions)
	}
	back, err := ParseSpec(orig.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", orig.String(), err)
	}
	if !reflect.DeepEqual(back, orig) {
		t.Fatalf("round trip changed the schedule:\n%+v\nvs\n%+v", orig, back)
	}
}

func TestOutageSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"burst=0.5",                 // missing burst length
		"burst=0.5:0",               // zero burst length
		"crash=1",                   // missing @cycle
		"crash=x@100:10",            // bad node
		"crash=1@100",               // open-ended crash, never restarted
		"restart=1@100",             // restart with no crash
		"crash=1@100,restart=1@50",  // restart before the crash
		"partition=0.1@100",         // never healed
		"partition=@100:10",         // no nodes
		"heal=100",                  // heal with no partition
		"partition=0.1@100,heal=50", // heal before the cut
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) should fail", spec)
		}
	}
}

// TestDeterminism is the core contract: equal Config, equal decision
// sequence — regardless of what the decisions are.
func TestDeterminism(t *testing.T) {
	cfg, err := ParseSpec("heavy")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 42
	a, b := New(cfg, 16), New(cfg, 16)
	for i := 0; i < 10000; i++ {
		now := uint64(i * 13)
		from, to := i%16, (i*7+1)%16
		da := a.OnSend(now, from, to, 1, i%2 == 0)
		db := b.OnSend(now, from, to, 1, i%2 == 0)
		if da != db {
			t.Fatalf("OnSend diverged at step %d: %+v vs %+v", i, da, db)
		}
		if sa, sb := a.OnDeliver(now, to), b.OnDeliver(now, to); sa != sb {
			t.Fatalf("OnDeliver diverged at step %d: %d vs %d", i, sa, sb)
		}
		if la, lb := a.OnLink(now, from, to), b.OnLink(now, from, to); la != lb {
			t.Fatalf("OnLink diverged at step %d: %d vs %d", i, la, lb)
		}
	}
	if a.Counts() != b.Counts() {
		t.Fatalf("counters diverged: %+v vs %+v", a.Counts(), b.Counts())
	}
}

func TestSeedsDecorrelate(t *testing.T) {
	cfg, _ := ParseSpec("heavy")
	cfg.Seed = 1
	a := New(cfg, 16)
	cfg.Seed = 2
	b := New(cfg, 16)
	same := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		if a.OnSend(0, 0, 1, 1, false) == b.OnSend(0, 0, 1, 1, false) {
			same++
		}
	}
	if same == trials {
		t.Fatal("adjacent seeds produced identical decision sequences")
	}
	// The one seed the splitmix scramble maps to zero would leave the
	// xorshift state at zero for good, every draw 0 and every trial a hit.
	cfg.Seed = 0x61c8864680b583eb
	z := New(cfg, 16)
	drops := 0
	for i := 0; i < trials; i++ {
		if z.OnSend(0, 0, 1, 1, false).Drop {
			drops++
		}
	}
	if drops == 0 || drops == trials {
		t.Fatalf("the seed that scrambles to zero dropped %d of %d transmissions", drops, trials)
	}
}

func TestProbabilityExtremes(t *testing.T) {
	in := New(Config{Seed: 3, Drop: 1, Dup: 1, Delay: 1, DelayMax: 100}, 16)
	for i := 0; i < 100; i++ {
		d := in.OnSend(0, 0, 1, 1, false)
		if !d.Drop || !d.Dup || d.ExtraDelay == 0 || d.ExtraDelay > 100 {
			t.Fatalf("p=1 decision not forced: %+v", d)
		}
	}
	// A delay or stall without a cycle bound (ParseSpec refuses one, a
	// Config built in code need not) is drawn and counted, and lasts 0.
	bare := New(Config{Seed: 3, Delay: 1, Stall: 1}, 16)
	if d := bare.OnSend(0, 0, 1, 1, false); d.ExtraDelay != 0 || bare.Counts().Delays != 1 {
		t.Fatalf("unbounded delay: %+v, %d counted", d, bare.Counts().Delays)
	}
	if c := bare.OnDeliver(0, 1); c != 0 || bare.Counts().Stalls != 1 {
		t.Fatalf("unbounded stall lasted %d, %d counted", c, bare.Counts().Stalls)
	}
	quiet := New(Config{Seed: 3}, 16)
	for i := 0; i < 100; i++ {
		if d := quiet.OnSend(0, 0, 1, 1, false); d != (SendDecision{}) {
			t.Fatalf("zero schedule injected %+v", d)
		}
		if quiet.OnDeliver(0, 1) != 0 || quiet.OnLink(0, 0, 1) != 0 {
			t.Fatal("zero schedule stalled or degraded")
		}
	}
}

// TestMaxAttemptsBoundsLoss: reliable traffic at the attempt bound is
// never dropped, even under drop=1 — the liveness guarantee the
// retransmission protocol builds on. Best-effort traffic has no such
// floor.
func TestMaxAttemptsBoundsLoss(t *testing.T) {
	in := New(Config{Seed: 7, Drop: 1, MaxAttempts: 3}, 16)
	for i := 0; i < 100; i++ {
		if !in.OnSend(0, 0, 1, 2, true).Drop {
			t.Fatal("below the bound, reliable traffic should drop at p=1")
		}
		if in.OnSend(0, 0, 1, 3, true).Drop {
			t.Fatal("at the bound, reliable traffic must never drop")
		}
		if !in.OnSend(0, 0, 1, 99, false).Drop {
			t.Fatal("best-effort traffic has no attempt floor")
		}
	}
}

func TestRTOBackoff(t *testing.T) {
	in := New(Config{RTO: 1000}, 16)
	want := []uint64{1000, 2000, 4000, 8000, 16000, 32000, 64000, 64000, 64000}
	for i, w := range want {
		if got := in.RTO(i + 1); got != w {
			t.Fatalf("RTO(attempt %d) = %d, want %d", i+1, got, w)
		}
	}
	def := New(Config{}, 16)
	if def.RTO(1) != DefaultRTO {
		t.Fatalf("default RTO = %d, want %d", def.RTO(1), DefaultRTO)
	}
	if def.MaxAttempts() != DefaultMaxAttempts {
		t.Fatalf("default MaxAttempts = %d", def.MaxAttempts())
	}
	if def.PushTimeout() < 2*DefaultRTO {
		t.Fatalf("PushTimeout %d should cover two RTOs", def.PushTimeout())
	}
}

// TestBurstCorrelation: burst=1:N must drop runs of consecutive
// transmissions, unlike Bernoulli drop which never correlates. With
// Burst=1 and every window spent, every transmission drops; the window
// length draw stays within [1, BurstLen].
func TestBurstCorrelation(t *testing.T) {
	in := New(Config{Seed: 9, Burst: 1, BurstLen: 5}, 16)
	for i := 0; i < 200; i++ {
		if !in.OnSend(0, 0, 1, 1, false).Drop {
			t.Fatalf("burst=1 transmission %d not dropped", i)
		}
	}
	c := in.Counts()
	if c.Bursts == 0 || c.Drops != 200 {
		t.Fatalf("burst accounting wrong: %+v", c)
	}
	// Each window covers between 1 and BurstLen transmissions.
	if c.Bursts < 200/5 || c.Bursts > 200 {
		t.Fatalf("window count %d outside [40,200] for len<=5", c.Bursts)
	}

	// A rare burst yields runs: find at least one run of >=2 consecutive
	// drops, which Bernoulli drop at the same marginal rate would make
	// vanishingly unlikely to demand deterministically.
	runs := New(Config{Seed: 5, Burst: 0.05, BurstLen: 8}, 16)
	run, maxRun := 0, 0
	for i := 0; i < 5000; i++ {
		if runs.OnSend(0, 0, 1, 1, false).Drop {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	if maxRun < 2 {
		t.Fatalf("burst schedule produced no drop run (max run %d)", maxRun)
	}
	// The MaxAttempts floor holds inside a burst too.
	floor := New(Config{Seed: 3, Burst: 1, BurstLen: 4, MaxAttempts: 3}, 16)
	for i := 0; i < 50; i++ {
		if floor.OnSend(0, 0, 1, 3, true).Drop {
			t.Fatal("reliable traffic at the attempt bound dropped inside a burst")
		}
	}
}

// TestOutageQueries: Down/Cut are pure schedule lookups — no
// RNG draws — so they can be consulted from the delivery path without
// perturbing the fault decision stream.
func TestOutageQueries(t *testing.T) {
	cfg, err := ParseSpec("crash=2@1000:500,partition=0.1@2000:300")
	if err != nil {
		t.Fatal(err)
	}
	in := New(cfg, 16)
	rng := in.rng
	if in.Down(999, 2) || !in.Down(1000, 2) || !in.Down(1499, 2) || in.Down(1500, 2) {
		t.Fatal("Down window wrong")
	}
	if in.Down(1200, 3) {
		t.Fatal("wrong node down")
	}
	// Partition separates {0,1} from the rest; internal traffic flows.
	if !in.Cut(2000, 0, 5) || !in.Cut(2100, 5, 1) || in.Cut(2100, 0, 1) || in.Cut(2100, 4, 5) {
		t.Fatal("Cut membership wrong")
	}
	if in.Cut(2300, 0, 5) {
		t.Fatal("partition did not heal")
	}
	if !in.HasCrashes() {
		t.Fatal("crash schedule not reported")
	}
	if in.rng != rng {
		t.Fatal("outage queries drew randomness")
	}
}

func TestDegradeWindows(t *testing.T) {
	in := New(Config{Seed: 5, Degrade: 1, DegradeWindow: 1000, DegradeExtra: 77}, 16)
	if got := in.OnLink(0, 0, 1); got != 77 {
		t.Fatalf("opening transfer pays %d, want 77", got)
	}
	// Inside the window every transfer on the pair pays, with no new draw.
	if got := in.OnLink(999, 0, 1); got != 77 {
		t.Fatalf("in-window transfer pays %d, want 77", got)
	}
	// The reverse direction is an independent pair.
	if got := in.OnLink(0, 1, 0); got != 77 {
		t.Fatalf("reverse pair pays %d, want 77", got)
	}
	// Local transfers never degrade.
	if got := in.OnLink(0, 3, 3); got != 0 {
		t.Fatalf("local transfer pays %d, want 0", got)
	}
	if in.Counts().DegradeWindows < 2 {
		t.Fatalf("expected two windows, got %+v", in.Counts())
	}
}
