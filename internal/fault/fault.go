// Package fault is the deterministic fault-injection layer of the
// simulated network of workstations. It interposes on the simulator's
// message path (aecdsm/internal/sim) and the mesh interconnect
// (aecdsm/internal/network) and injects the failure modes a real LAN
// exhibits — message loss, duplication, bounded extra delay, transient
// link degradation, and node stalls — from a per-run RNG derived from the
// experiment seed, so every faulty run replays exactly.
//
// The package is a leaf: it imports nothing from the repo, so both the
// engine and the network can hold an *Injector without import cycles. It
// carries its own xorshift generator (the same construction as
// apps.NewRand) for the same reason.
//
// Determinism contract: the simulator is single-threaded (at most one of
// {engine, processor goroutine} runs at any instant), so injector draws
// happen in a reproducible order; given equal Config (including Seed) two
// runs make identical decisions. See docs/ROBUSTNESS.md.
package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Config is one fault schedule: the per-message and per-link failure
// probabilities plus the recovery-protocol timing knobs. The zero value
// injects nothing (but still routes messages through the reliable
// transport); a nil *Config elsewhere in the stack means faults are
// compiled out of the run entirely.
type Config struct {
	// Seed derives the injector's RNG. Zero is replaced by a fixed
	// nonzero constant so the zero Config is still usable.
	Seed uint64

	// Drop is the per-transmission probability that a message vanishes
	// in the network. Reliable messages are retransmitted until acked;
	// best-effort messages (LAP eager pushes) stay lost.
	Drop float64
	// Dup is the per-transmission probability that the network delivers
	// a second copy of a message (suppressed by receiver-side dedup).
	Dup float64
	// Delay is the per-transmission probability of extra network delay,
	// uniform in [1, DelayMax] cycles.
	Delay    float64
	DelayMax uint64
	// Stall is the per-delivery probability that the destination node
	// stalls (OS hiccup) for a uniform [1, StallMax] cycles before it
	// can service anything.
	Stall    float64
	StallMax uint64
	// Degrade is the per-transfer probability that the (source,
	// destination) pair enters a degraded window: for DegradeWindow
	// cycles every transfer between the pair pays DegradeExtra extra
	// cycles (a congested or flaky route).
	Degrade       float64
	DegradeWindow uint64
	DegradeExtra  uint64

	// Burst is the per-transmission probability that the network enters a
	// drop burst (a bad cable): this transmission and the next
	// uniform[0, BurstLen-1] transmissions are all dropped, instead of
	// Bernoulli singles. The MaxAttempts floor still applies per message.
	Burst    float64
	BurstLen uint64

	// Crashes schedules node crash/restart events: state-destroying
	// faults, unlike everything above. Closed (Down > 0) by construction —
	// ParseSpec rejects a crash never matched by a restart.
	Crashes []Crash
	// Partitions schedules full network partitions: traffic between the
	// named group and the rest of the machine is dropped for the window.
	// Closed (Until > At) by construction.
	Partitions []Partition

	// RTO is the initial retransmission timeout in virtual cycles; it
	// doubles per attempt (capped). Zero selects DefaultRTO.
	RTO uint64
	// MaxAttempts bounds adversarial loss: once a reliable message
	// reaches this attempt number, neither it nor its ack is dropped
	// any more, so delivery is guaranteed. Zero selects
	// DefaultMaxAttempts.
	MaxAttempts int
}

// Crash schedules one node outage: the node loses its volatile protocol
// state (cached page copies, manager queues, in-flight buffers) at cycle
// At and restarts, empty, at At+Down. Messages to or from the node are
// dropped for the whole window.
type Crash struct {
	Node int
	At   uint64
	Down uint64
}

// Partition schedules one full network partition: from At until Until,
// every message with exactly one endpoint in Nodes is dropped. Nodes keep
// their state (unlike a crash) and resume exactly where they were at heal.
type Partition struct {
	Nodes []int
	At    uint64
	Until uint64
}

// covers reports whether the partition separates a from b at cycle now.
func (p *Partition) covers(now uint64, a, b int) bool {
	if now < p.At || now >= p.Until {
		return false
	}
	inA, inB := false, false
	for _, n := range p.Nodes {
		if n == a {
			inA = true
		}
		if n == b {
			inB = true
		}
	}
	return inA != inB
}

// Defaults for the recovery-timing knobs.
const (
	DefaultRTO         = 40000 // ~4 interrupt times: a generous virtual RTT
	DefaultMaxAttempts = 8
	rtoBackoffCap      = 6 // exponential backoff stops doubling after 2^6
)

// rto returns the retransmission timeout for the given attempt number
// (1-based) with exponential backoff.
func (c *Config) rto(attempt int) uint64 {
	base := c.RTO
	if base == 0 {
		base = DefaultRTO
	}
	shift := attempt - 1
	if shift > rtoBackoffCap {
		shift = rtoBackoffCap
	}
	return base << uint(shift)
}

func (c *Config) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return c.MaxAttempts
}

// Presets name commonly used schedules for the -faults flag.
var Presets = map[string]string{
	"light": "drop=0.01,dup=0.005,delay=0.02:2000,stall=0.002:4000,degrade=0.005:20000:50",
	"heavy": "drop=0.05,dup=0.02,delay=0.05:8000,stall=0.01:20000,degrade=0.02:50000:200",
}

// ParseSpec parses a fault schedule specification: either a preset name
// ("light", "heavy") or a comma-separated list of clauses
//
//	drop=P  dup=P  delay=P:MAXCY  stall=P:MAXCY  degrade=P:WINDOWCY:EXTRACY
//	burst=P:LEN  rto=CYCLES  maxattempts=N
//	crash=NODE@AT:DOWNCY  restart=NODE@AT
//	partition=N1.N2.…@AT:LENCY  heal=AT
//
// e.g. "drop=0.01,dup=0.005,delay=0.02:2000". Probabilities are in [0,1].
// crash without :DOWNCY and partition without :LENCY are open until a
// later restart/heal clause closes them; a spec that leaves any outage
// open is rejected, which keeps every schedule finite (the liveness
// arguments in docs/ROBUSTNESS.md depend on outages ending).
// "none" — what Config.String renders the empty schedule as — and the
// empty string are the empty schedule.
// The returned Config has Seed zero; callers set it from their -fault-seed.
func ParseSpec(spec string) (Config, error) {
	var c Config
	name := strings.ToLower(strings.TrimSpace(spec))
	if name == "none" {
		return c, nil
	}
	if p, ok := Presets[name]; ok {
		spec = p
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return c, fmt.Errorf("fault: clause %q is not key=value", clause)
		}
		parts := strings.Split(val, ":")
		prob := func() (float64, error) {
			p, err := strconv.ParseFloat(parts[0], 64)
			if err != nil || !(p >= 0 && p <= 1) { // NaN is in no interval
				return 0, fmt.Errorf("fault: %s wants a probability in [0,1], got %q", key, parts[0])
			}
			return p, nil
		}
		cycles := func(i int) (uint64, error) {
			if i >= len(parts) {
				return 0, fmt.Errorf("fault: %s=%s is missing its cycle argument", key, val)
			}
			n, err := strconv.ParseUint(parts[i], 10, 64)
			if err != nil || n == 0 {
				return 0, fmt.Errorf("fault: %s wants a positive cycle count, got %q", key, parts[i])
			}
			return n, nil
		}
		// nodeAt splits "NODE@AT" (the crash/restart clause head).
		nodeAt := func(s string) (int, uint64, error) {
			ns, as, ok := strings.Cut(s, "@")
			if !ok {
				return 0, 0, fmt.Errorf("fault: %s wants NODE@CYCLE, got %q", key, s)
			}
			n, err := strconv.Atoi(ns)
			if err != nil || n < 0 {
				return 0, 0, fmt.Errorf("fault: %s wants a node number, got %q", key, ns)
			}
			at, err := strconv.ParseUint(as, 10, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("fault: %s wants a cycle, got %q", key, as)
			}
			return n, at, nil
		}
		var err error
		switch strings.ToLower(key) {
		case "drop":
			c.Drop, err = prob()
		case "dup":
			c.Dup, err = prob()
		case "delay":
			if c.Delay, err = prob(); err == nil {
				c.DelayMax, err = cycles(1)
			}
		case "stall":
			if c.Stall, err = prob(); err == nil {
				c.StallMax, err = cycles(1)
			}
		case "degrade":
			if c.Degrade, err = prob(); err == nil {
				if c.DegradeWindow, err = cycles(1); err == nil {
					c.DegradeExtra, err = cycles(2)
				}
			}
		case "burst":
			if c.Burst, err = prob(); err == nil {
				c.BurstLen, err = cycles(1)
			}
		case "crash":
			var n int
			var at uint64
			if n, at, err = nodeAt(parts[0]); err == nil {
				cr := Crash{Node: n, At: at}
				if len(parts) > 1 {
					cr.Down, err = cycles(1)
				}
				c.Crashes = append(c.Crashes, cr)
			}
		case "restart":
			var n int
			var at uint64
			if n, at, err = nodeAt(parts[0]); err == nil {
				err = fmt.Errorf("fault: restart=%s matches no open crash of node %d", val, n)
				for i := len(c.Crashes) - 1; i >= 0; i-- {
					cr := &c.Crashes[i]
					if cr.Node == n && cr.Down == 0 {
						if at <= cr.At {
							err = fmt.Errorf("fault: restart=%s is not after the crash at cycle %d", val, cr.At)
						} else {
							cr.Down, err = at-cr.At, nil
						}
						break
					}
				}
			}
		case "partition":
			ns, as, ok := strings.Cut(parts[0], "@")
			if !ok {
				err = fmt.Errorf("fault: partition wants N1.N2.…@CYCLE, got %q", parts[0])
				break
			}
			var p Partition
			for _, f := range strings.Split(ns, ".") {
				var n int
				if n, err = strconv.Atoi(f); err != nil || n < 0 {
					err = fmt.Errorf("fault: partition wants node numbers, got %q", f)
					break
				}
				p.Nodes = append(p.Nodes, n)
			}
			if err != nil {
				break
			}
			if p.At, err = strconv.ParseUint(as, 10, 64); err != nil {
				err = fmt.Errorf("fault: partition wants a cycle, got %q", as)
				break
			}
			if len(parts) > 1 {
				var length uint64
				if length, err = cycles(1); err == nil {
					p.Until = p.At + length
				}
			}
			c.Partitions = append(c.Partitions, p)
		case "heal":
			var at uint64
			if at, err = strconv.ParseUint(parts[0], 10, 64); err != nil {
				err = fmt.Errorf("fault: heal wants a cycle, got %q", parts[0])
				break
			}
			err = fmt.Errorf("fault: heal=%s matches no open partition", val)
			for i := len(c.Partitions) - 1; i >= 0; i-- {
				p := &c.Partitions[i]
				if p.Until == 0 {
					if at <= p.At {
						err = fmt.Errorf("fault: heal=%s is not after the partition at cycle %d", val, p.At)
					} else {
						p.Until, err = at, nil
					}
					break
				}
			}
		case "rto":
			c.RTO, err = cycles(0)
		case "maxattempts":
			var n uint64
			if n, err = cycles(0); err == nil {
				c.MaxAttempts = int(n)
			}
		default:
			err = fmt.Errorf("fault: unknown clause %q (want drop/dup/delay/stall/degrade/burst/crash/restart/partition/heal/rto/maxattempts or a preset %v)",
				key, presetNames())
		}
		if err != nil {
			return c, err
		}
	}
	for _, cr := range c.Crashes {
		if cr.Down == 0 {
			return c, fmt.Errorf("fault: crash of node %d at cycle %d is never restarted (add :DOWNCY or a restart clause)", cr.Node, cr.At)
		}
	}
	for _, p := range c.Partitions {
		if p.Until == 0 {
			return c, fmt.Errorf("fault: partition at cycle %d is never healed (add :LENCY or a heal clause)", p.At)
		}
	}
	return c, nil
}

func presetNames() []string {
	// Stable order for error messages (map iteration is not deterministic).
	return []string{"light", "heavy"}
}

// String renders the schedule in ParseSpec syntax.
func (c Config) String() string {
	var parts []string
	if c.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", c.Drop))
	}
	if c.Dup > 0 {
		parts = append(parts, fmt.Sprintf("dup=%g", c.Dup))
	}
	if c.Delay > 0 {
		parts = append(parts, fmt.Sprintf("delay=%g:%d", c.Delay, c.DelayMax))
	}
	if c.Stall > 0 {
		parts = append(parts, fmt.Sprintf("stall=%g:%d", c.Stall, c.StallMax))
	}
	if c.Degrade > 0 {
		parts = append(parts, fmt.Sprintf("degrade=%g:%d:%d", c.Degrade, c.DegradeWindow, c.DegradeExtra))
	}
	if c.Burst > 0 {
		parts = append(parts, fmt.Sprintf("burst=%g:%d", c.Burst, c.BurstLen))
	}
	for _, cr := range c.Crashes {
		parts = append(parts, fmt.Sprintf("crash=%d@%d:%d", cr.Node, cr.At, cr.Down))
	}
	for _, p := range c.Partitions {
		group := make([]string, len(p.Nodes))
		for i, n := range p.Nodes {
			group[i] = strconv.Itoa(n)
		}
		parts = append(parts, fmt.Sprintf("partition=%s@%d:%d", strings.Join(group, "."), p.At, p.Until-p.At))
	}
	if c.RTO > 0 {
		parts = append(parts, fmt.Sprintf("rto=%d", c.RTO))
	}
	if c.MaxAttempts > 0 {
		parts = append(parts, fmt.Sprintf("maxattempts=%d", c.MaxAttempts))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// SendDecision is the injector's verdict for one message transmission.
type SendDecision struct {
	Drop       bool
	Dup        bool
	ExtraDelay uint64
}

// Counts snapshots what the injector has done so far.
type Counts struct {
	Drops, Dups, Delays, Stalls, DegradeWindows, Bursts, OutageDrops uint64
}

// Injector makes the per-message fault decisions for one run. It is not
// safe for concurrent use; the simulator's single-runner discipline
// guarantees serial access.
type Injector struct {
	cfg Config
	rng uint64

	// degradedUntil[from][to] is the end of the directed pair's current
	// degraded window (0: never degraded). A sender's row is allocated
	// when its first window opens, so the table costs what the schedule
	// degrades, not nodes² up front.
	degradedUntil [][]uint64

	// burstLeft counts the remaining transmissions in the current drop
	// burst (0 = not in a burst).
	burstLeft uint64

	counts Counts
}

// New builds the injector for one run of a machine of the given size from
// the schedule. The injector's RNG is derived from cfg.Seed via a
// splitmix64 scramble, so structurally different schedules with the same
// seed still decorrelate.
func New(cfg Config, nodes int) *Injector {
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x5DEECE66D
	}
	// splitmix64 finalizer: decorrelate adjacent seeds.
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	return &Injector{cfg: cfg, rng: z, degradedUntil: make([][]uint64, nodes)}
}

// next is the xorshift64* step (same construction as apps.Rand).
func (in *Injector) next() uint64 {
	in.rng ^= in.rng >> 12
	in.rng ^= in.rng << 25
	in.rng ^= in.rng >> 27
	return in.rng * 0x2545F4914F6CDD1D
}

// chance draws a Bernoulli trial with probability p.
func (in *Injector) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(in.next()>>11)/(1<<53) < p
}

// cyclesIn draws uniformly in [1, max] (0 when max is 0).
func (in *Injector) cyclesIn(max uint64) uint64 {
	if max == 0 {
		return 0
	}
	return 1 + in.next()%max
}

// OnSend decides the fate of one transmission (attempt is 1-based;
// retransmissions pass their attempt number). reliable transmissions stop
// being dropped once attempt reaches MaxAttempts, which bounds recovery:
// by then both the message and its ack go through.
func (in *Injector) OnSend(now uint64, from, to, attempt int, reliable bool) SendDecision {
	var d SendDecision
	floor := reliable && attempt >= in.cfg.maxAttempts()
	if in.chance(in.cfg.Drop) && !floor {
		d.Drop = true
		in.counts.Drops++
	}
	// Correlated drop burst: once open, it eats consecutive transmissions
	// regardless of their endpoints (a shared bad cable), honoring the
	// same reliable-attempt floor per message. No RNG draw is made while a
	// burst is open, and none ever when Burst is zero.
	if in.burstLeft > 0 {
		in.burstLeft--
		if !floor && !d.Drop {
			d.Drop = true
			in.counts.Drops++
		}
	} else if in.chance(in.cfg.Burst) {
		in.burstLeft = in.cyclesIn(in.cfg.BurstLen) - 1
		in.counts.Bursts++
		if !floor && !d.Drop {
			d.Drop = true
			in.counts.Drops++
		}
	}
	if in.chance(in.cfg.Dup) {
		d.Dup = true
		in.counts.Dups++
	}
	if in.chance(in.cfg.Delay) {
		d.ExtraDelay = in.cyclesIn(in.cfg.DelayMax)
		in.counts.Delays++
	}
	return d
}

// OnDeliver decides whether the destination node stalls before servicing,
// returning the stall length in cycles (0 = no stall).
func (in *Injector) OnDeliver(now uint64, to int) uint64 {
	if !in.chance(in.cfg.Stall) {
		return 0
	}
	in.counts.Stalls++
	return in.cyclesIn(in.cfg.StallMax)
}

// OnLink is called per network transfer with the directed endpoint pair;
// it returns extra cycles the transfer pays while the pair's route is in a
// degraded window (possibly opening a new window).
func (in *Injector) OnLink(now uint64, from, to int) uint64 {
	if in.cfg.Degrade <= 0 || from == to {
		return 0
	}
	row := in.degradedUntil[from]
	if row != nil && now < row[to] {
		return in.cfg.DegradeExtra
	}
	if in.chance(in.cfg.Degrade) {
		if row == nil {
			row = make([]uint64, len(in.degradedUntil))
			in.degradedUntil[from] = row
		}
		row[to] = now + in.cfg.DegradeWindow
		in.counts.DegradeWindows++
		return in.cfg.DegradeExtra
	}
	return 0
}

// RTO returns the retransmission timeout for the given attempt (1-based),
// with exponential backoff.
func (in *Injector) RTO(attempt int) uint64 { return in.cfg.rto(attempt) }

// MaxAttempts returns the bound after which reliable traffic stops being
// dropped.
func (in *Injector) MaxAttempts() int { return in.cfg.maxAttempts() }

// PushTimeout is how long an acquirer waits for a predicted eager push
// before falling back to explicit fetches: long enough that an in-flight
// (possibly delayed) push usually lands, short enough not to dominate the
// acquire when the push was lost. Pushes are best-effort (never
// retransmitted), so waiting longer than one delayed flight is pointless.
func (in *Injector) PushTimeout() uint64 {
	base := in.cfg.RTO
	if base == 0 {
		base = DefaultRTO
	}
	return 2*base + in.cfg.DelayMax
}

// Down reports whether node is inside a crash window at cycle now. The
// check draws no randomness — the schedule is fixed in the Config — so
// outage queries never perturb the fault decision stream.
func (in *Injector) Down(now uint64, node int) bool {
	for _, cr := range in.cfg.Crashes {
		if cr.Node == node && now >= cr.At && now < cr.At+cr.Down {
			return true
		}
	}
	return false
}

// Cut reports whether a partition separates from and to at cycle now
// (exactly one endpoint inside an active partition group). Draws no
// randomness.
func (in *Injector) Cut(now uint64, from, to int) bool {
	for i := range in.cfg.Partitions {
		if in.cfg.Partitions[i].covers(now, from, to) {
			return true
		}
	}
	return false
}

// Outage reports whether the (from, to) path is unusable at cycle now —
// either endpoint crashed, or a partition between them — and counts the
// hit. These drops bypass the MaxAttempts floor: a crashed node is
// physically disconnected. Liveness survives because every outage window
// is finite (ParseSpec validation) and the sender's retransmission timers
// (sim/reliable.go) keep firing through it, with capped backoff, until an
// attempt lands after the window ends.
func (in *Injector) Outage(now uint64, from, to int) bool {
	if in.Down(now, from) || in.Down(now, to) || in.Cut(now, from, to) {
		in.counts.OutageDrops++
		return true
	}
	return false
}

// HasCrashes reports whether the schedule destroys node state at all —
// the switch that arms the replication layer in the protocols.
func (in *Injector) HasCrashes() bool { return len(in.cfg.Crashes) > 0 }

// Counts returns a snapshot of the injector's decision counters.
func (in *Injector) Counts() Counts { return in.counts }
