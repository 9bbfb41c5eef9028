// Command tables regenerates the tables and figures of the AEC paper's
// evaluation section (Tables 1-4, Figures 3-6, plus the Ns robustness
// sweep of §5.1) by running the full application suite under AEC,
// AEC-without-LAP and TreadMarks on the simulated testbed.
//
// Usage:
//
//	tables                 # everything, paper problem sizes
//	tables -scale 0.25     # everything, quarter-size problems
//	tables -table 3        # just Table 3 (LAP success rates)
//	tables -figure 5       # just Figure 5 (TM vs AEC, barrier apps)
//	tables -table ns       # the Ns=1..3 sweep
//	tables -table robustness  # LAP rates under AEC vs TreadMarks (§5.1)
//	tables -table munin    # LAP restricting Munin's update traffic (§1)
//	tables -table overview # all seven protocols, normalized runtimes
//	tables -table speedup  # scalability sweep 1-32 processors
//	tables -scaling        # 16/64/256-processor scaling-architecture sweep
//	tables -scaling -scaling-procs 16,64,256,1024 -scaling-app Ocean
//	tables -locklab        # lock-policy lab: MVA prediction vs simulation
//	tables -recovery       # crash-tolerance sweep: faults x protocols (docs/ROBUSTNESS.md)
//	tables -recovery -recovery-app Ocean
//	tables -timeline       # execution timeline via engine warm starts
//
// The -scaling sweep runs the machine with the scaling architecture
// enabled (radix-16 barrier combining, hash-sharded homes and lock
// managers; see docs/SCALING.md) at each requested processor count and
// reports runtime, LAP accuracy, recovery overhead under light faults
// and remote references per synchronization operation for the ideal,
// AEC, TreadMarks and Munin protocols.
//
// With -trace / -metrics every simulation the selection runs — a table,
// a figure or any of the sweeps — is traced into one combined event
// stream (see docs/OBSERVABILITY.md); a trace sink forces sequential
// execution regardless of -jobs so the stream keeps its deterministic
// order. The one untraced engine is -timeline's sampling session: it
// replays, paused at each horizon, a run that is already in the stream.
//
// -jobs N runs up to N simulations concurrently on isolated engines
// (default GOMAXPROCS). The rendered tables are byte-identical at every
// job count; only the wall-clock changes (docs/PERFORMANCE.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"aecdsm"
	"aecdsm/internal/profutil"
)

// parseProcs parses the -scaling-procs machine-size list.
func parseProcs(spec string) ([]int, error) {
	var procs []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -scaling-procs entry %q", f)
		}
		procs = append(procs, n)
	}
	if len(procs) == 0 {
		return nil, fmt.Errorf("-scaling-procs is empty")
	}
	return procs, nil
}

func main() {
	var (
		scale  = flag.Float64("scale", 1.0, "problem scale in (0,1]; 1.0 = paper sizes")
		jobs   = flag.Int("jobs", 0, "simulations to run concurrently (0 = GOMAXPROCS, 1 = sequential; output is identical at every value)")
		table  = flag.String("table", "", "regenerate one table: 1, 2, 3, 4, ns, robustness, munin, overview or speedup")
		figure = flag.String("figure", "", "regenerate one figure: 3, 4, 5 or 6")

		scaling      = flag.Bool("scaling", false, "run the scaling-architecture sweep (docs/SCALING.md)")
		scalingProcs = flag.String("scaling-procs", "16,64,256", "comma-separated machine sizes for -scaling")
		scalingApp   = flag.String("scaling-app", "Ocean", "application for -scaling")

		locklab = flag.Bool("locklab", false, "run the lock-policy lab: MVA prediction vs simulation for all four grant disciplines (docs/LOCKING.md)")

		recovery    = flag.Bool("recovery", false, "run the crash-tolerance sweep: fault schedules x DSM protocols (docs/ROBUSTNESS.md)")
		recoveryApp = flag.String("recovery-app", "IS", "application for -recovery")

		timeline    = flag.Bool("timeline", false, "run the execution-timeline sweep: cycle breakdown sampled at sixths of each protocol's runtime")
		timelineApp = flag.String("timeline-app", "Raytrace", "application for -timeline")
	)
	obs := profutil.Register(flag.CommandLine, " (pins -jobs to 1)")
	flag.Parse()

	tracer, closeObs, err := obs.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(profutil.ExitCode(err))
	}
	defer func() {
		if err := closeObs(); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
		}
	}()

	e := aecdsm.NewExperiments(*scale)
	e.Jobs = obs.Pin(*jobs)
	e.Tracer = tracer
	w := os.Stdout

	switch {
	case *scaling:
		procs, err := parseProcs(*scalingProcs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(2)
		}
		e.ScalingSweep(w, *scalingApp, procs)
	case *locklab:
		e.LockLab(w)
	case *recovery:
		e.RecoverySweep(w, *recoveryApp)
	case *timeline:
		e.TimelineSweep(w, *timelineApp)
	case *table == "" && *figure == "":
		e.All(w)
	case *table == "1":
		e.Table1(w)
	case *table == "2":
		e.Table2(w)
	case *table == "3":
		e.Table3(w)
	case *table == "4":
		e.Table4(w)
	case *table == "ns":
		e.NsSweep(w)
	case *table == "robustness":
		e.LAPRobustness(w)
	case *table == "munin":
		e.MuninTraffic(w)
	case *table == "overview":
		e.ProtocolsOverview(w)
	case *table == "speedup":
		e.Speedup(w, "Ocean")
	case *figure == "3":
		e.Figure3(w)
	case *figure == "4":
		e.Figure4(w)
	case *figure == "5":
		e.Figure5(w)
	case *figure == "6":
		e.Figure6(w)
	default:
		fmt.Fprintf(os.Stderr, "tables: unknown selection -table=%q -figure=%q\n", *table, *figure)
		os.Exit(2)
	}
}
