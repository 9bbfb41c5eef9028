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
//	tables -timeline       # execution timeline sampled by an engine observer
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
// order. The one untraced run is -timeline's sampling run: observed at
// each horizon, it replays a run that is already in the stream.
//
// -jobs N runs up to N simulations concurrently on isolated engines
// (default GOMAXPROCS). The rendered tables are byte-identical at every
// job count; only the wall-clock changes (docs/PERFORMANCE.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"aecdsm"
	"aecdsm/internal/apps"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command without its process: it parses args, renders the
// selection on out, reports on errw and returns the exit code — 2 for a
// flag value, selection or argument it does not accept, before any
// simulation starts or output file is opened; 1 for an output the
// environment refused.
func run(args []string, out, errw io.Writer) (code int) {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		scale  = fs.Float64("scale", 1.0, "problem scale in (0,1]; 1.0 = paper sizes")
		jobs   = fs.Int("jobs", 0, "simulations to run concurrently (0 = GOMAXPROCS, 1 = sequential; output is identical at every value)")
		table  = fs.String("table", "", "regenerate one table: 1, 2, 3, 4, ns, robustness, munin, overview or speedup")
		figure = fs.String("figure", "", "regenerate one figure: 3, 4, 5 or 6")

		scaling      = fs.Bool("scaling", false, "run the scaling-architecture sweep (docs/SCALING.md)")
		scalingProcs = fs.String("scaling-procs", "16,64,256", "comma-separated machine sizes for -scaling")
		scalingApp   = fs.String("scaling-app", "Ocean", "application for -scaling")

		locklab = fs.Bool("locklab", false, "run the lock-policy lab: MVA prediction vs simulation for all four grant disciplines (docs/LOCKING.md)")

		recovery    = fs.Bool("recovery", false, "run the crash-tolerance sweep: fault schedules x DSM protocols (docs/ROBUSTNESS.md)")
		recoveryApp = fs.String("recovery-app", "IS", "application for -recovery")

		timeline    = fs.Bool("timeline", false, "run the execution-timeline sweep: cycle breakdown sampled at sixths of each protocol's runtime")
		timelineApp = fs.String("timeline-app", "Raytrace", "application for -timeline")
	)
	obs := profutil.Register(fs, " (pins -jobs to 1)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Resolve the selection first: an unknown one must not cost a sweep,
	// or leave a half-written trace behind.
	type experiments = aecdsm.Experiments
	var render func(*experiments, io.Writer)
	err := apps.CheckScale(*scale)
	chosen := selections(*table != "", *figure != "", *scaling, *locklab, *recovery, *timeline)
	stray := sweepFlagAlone(fs, *scaling, *recovery, *timeline)
	switch {
	case err != nil: // reported below, like every other refusal
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *jobs < 0:
		err = fmt.Errorf("-jobs must not be negative, got %d", *jobs)
	case len(chosen) > 1:
		err = fmt.Errorf("%s select different outputs; choose one", strings.Join(chosen, " and "))
	case stray != nil:
		err = stray
	case *scaling:
		var procs []int
		if procs, err = parseProcs(*scalingProcs); err == nil {
			err = knownApp("-scaling-app", *scalingApp)
		}
		render = func(e *experiments, w io.Writer) { e.ScalingSweep(w, *scalingApp, procs) }
	case *locklab:
		render = (*experiments).LockLab
	case *recovery:
		err = knownApp("-recovery-app", *recoveryApp)
		render = func(e *experiments, w io.Writer) { e.RecoverySweep(w, *recoveryApp) }
	case *timeline:
		err = knownApp("-timeline-app", *timelineApp)
		render = func(e *experiments, w io.Writer) { e.TimelineSweep(w, *timelineApp) }
	case *table == "" && *figure == "":
		render = (*experiments).All
	case *table == "1":
		render = (*experiments).Table1
	case *table == "2":
		render = (*experiments).Table2
	case *table == "3":
		render = (*experiments).Table3
	case *table == "4":
		render = (*experiments).Table4
	case *table == "ns":
		render = (*experiments).NsSweep
	case *table == "robustness":
		render = (*experiments).LAPRobustness
	case *table == "munin":
		render = (*experiments).MuninTraffic
	case *table == "overview":
		render = (*experiments).ProtocolsOverview
	case *table == "speedup":
		render = func(e *experiments, w io.Writer) { e.Speedup(w, "Ocean") }
	case *figure == "3":
		render = (*experiments).Figure3
	case *figure == "4":
		render = (*experiments).Figure4
	case *figure == "5":
		render = (*experiments).Figure5
	case *figure == "6":
		render = (*experiments).Figure6
	default:
		err = fmt.Errorf("unknown selection -table=%q -figure=%q", *table, *figure)
	}
	if err != nil {
		fmt.Fprintln(errw, "tables:", err)
		return 2
	}

	tracer, closeObs, err := obs.Open()
	if err != nil {
		fmt.Fprintln(errw, "tables:", err)
		return profutil.ExitCode(err)
	}
	// Deferred, so a run that panics (Result.Must) still leaves its trace.
	defer func() {
		if err := closeObs(); err != nil {
			fmt.Fprintln(errw, "tables:", err)
			code = 1
		}
	}()
	e := aecdsm.NewExperiments(*scale)
	e.Jobs = obs.Pin(*jobs)
	e.Tracer = tracer
	render(e, out)
	return 0
}

// selections names the output-selecting flags that are set, in the order
// -table, -figure, -scaling, -locklab, -recovery, -timeline.
func selections(on ...bool) []string {
	var chosen []string
	for i, name := range []string{"-table", "-figure", "-scaling", "-locklab", "-recovery", "-timeline"} {
		if on[i] {
			chosen = append(chosen, name)
		}
	}
	return chosen
}

// sweepFlagAlone rejects a sweep's own flag given without its sweep, which
// would otherwise be ignored by whatever the selection renders.
func sweepFlagAlone(fs *flag.FlagSet, scaling, recovery, timeline bool) error {
	owner := map[string]bool{
		"scaling-procs": scaling, "scaling-app": scaling,
		"recovery-app": recovery, "timeline-app": timeline,
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if on, owned := owner[f.Name]; owned && !on && err == nil {
			sweep, _, _ := strings.Cut(f.Name, "-")
			err = fmt.Errorf("-%s is set without -%s", f.Name, sweep)
		}
	})
	return err
}

// knownApp rejects an application name the sweeps would only discover
// missing deep inside their first run.
func knownApp(flagName, app string) error {
	if apps := aecdsm.Apps(); !slices.Contains(apps, app) {
		return fmt.Errorf("unknown %s %q (want one of %s)", flagName, app, strings.Join(apps, ", "))
	}
	return nil
}
