// Command aecsim runs one application under one SW-DSM protocol on the
// simulated 16-node network of workstations and prints the measurements:
// the execution-time breakdown (busy/data/synch/ipc/others), fault, diff
// and messaging statistics.
//
// Usage:
//
//	aecsim -app IS -protocol AEC
//	aecsim -app Water-ns -protocol TM -scale 0.25
//	aecsim -app Raytrace -protocol AEC -ns 3
//	aecsim -app IS -protocol AEC -trace is.trace -trace-format chrome
//	aecsim -app IS -protocol AEC -metrics is-metrics.json
//	aecsim -app IS -protocol AEC -faults light -fault-seed 7
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"aecdsm"
	"aecdsm/internal/apps"
	"aecdsm/internal/fault"
	"aecdsm/internal/profutil"
	"aecdsm/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command without its process: it parses args, prints the
// measurements on out, reports on errw and returns the exit code — 2 for
// an application, protocol, scale, update-set size, fault clause or
// argument it does not accept, before any output file is opened or
// simulation started; 1 for a run that failed or an output the
// environment refused.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("aecsim", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		app       = fs.String("app", "IS", "application to run (see -list)")
		protocol  = fs.String("protocol", "AEC", "protocol: "+strings.Join(aecdsm.Protocols(), ", "))
		scale     = fs.Float64("scale", 1.0, "problem scale in (0,1]; 1.0 = paper sizes")
		ns        = fs.Int("ns", 2, "LAP update set size (AEC, Munin+LAP); at least 1")
		list      = fs.Bool("list", false, "list applications and protocols")
		perProc   = fs.Bool("procs", false, "print the per-processor breakdown")
		faults    = fs.String("faults", "", "fault schedule: a preset (light, heavy) or clauses like drop=0.05,dup=0.02 (empty = no faults)")
		faultSeed = fs.Uint64("fault-seed", 0, "seed for the fault schedule")
	)
	obs := profutil.Register(fs, "")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "fault-seed" })
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *list:
		fmt.Fprintln(out, "applications:", aecdsm.Apps())
		fmt.Fprintln(out, "protocols:   ", aecdsm.Protocols())
		return 0
	case !slices.Contains(aecdsm.Apps(), *app):
		err = fmt.Errorf("unknown -app %q (want one of %s)", *app, strings.Join(aecdsm.Apps(), ", "))
	case !slices.Contains(aecdsm.Protocols(), *protocol):
		err = fmt.Errorf("unknown -protocol %q (want one of %s)", *protocol, strings.Join(aecdsm.Protocols(), ", "))
	case *ns < 1:
		err = fmt.Errorf("-ns %d is below 1", *ns)
	case seedSet && *faults == "":
		err = fmt.Errorf("-fault-seed is set without -faults")
	default:
		if err = apps.CheckScale(*scale); err == nil {
			_, err = fault.ParseSpec(*faults)
		}
	}
	if err != nil {
		fmt.Fprintln(errw, "aecsim:", err)
		return 2
	}

	tracer, closeObs, err := obs.Open()
	if err != nil {
		fmt.Fprintln(errw, "aecsim:", err)
		return profutil.ExitCode(err)
	}
	res, err := aecdsm.Run(aecdsm.Config{
		App: *app, Protocol: *protocol, Scale: *scale, Ns: *ns,
		TraceSink: tracer,
		Faults:    *faults, FaultSeed: *faultSeed,
	})
	if cerr := closeObs(); cerr != nil {
		fmt.Fprintln(errw, "aecsim:", cerr)
		return 1
	}
	if err != nil {
		fmt.Fprintln(errw, "aecsim:", err)
		return 1
	}

	run := res.Run
	fmt.Fprintf(out, "%s under %s: %d simulated cycles (%.2f ms at 100 MHz)\n",
		run.App, run.Protocol, run.Cycles, float64(run.Cycles)/1e5)

	total := run.TotalBreakdown()
	fmt.Fprintf(out, "breakdown: ")
	for cat := stats.Category(0); cat < stats.NumCategories; cat++ {
		fmt.Fprintf(out, "%s %.1f%%  ", cat, 100*float64(total[cat])/float64(total.Total()))
	}
	fmt.Fprintln(out)

	fmt.Fprintf(out, "locks: %d acquires, %d barriers, %d acquire notices\n",
		run.LockAcquires(), run.BarrierEvents(),
		run.Sum(func(p *stats.Proc) uint64 { return p.AcquireNotices }))
	fmt.Fprintf(out, "faults: %d read, %d write (%d cold), %d cycles stalled\n",
		run.Sum(func(p *stats.Proc) uint64 { return p.ReadFaults }),
		run.Sum(func(p *stats.Proc) uint64 { return p.WriteFaults }),
		run.Sum(func(p *stats.Proc) uint64 { return p.ColdFaults }),
		run.FaultCycles())
	d := run.Diffs()
	fmt.Fprintf(out, "diffs: avg %.0f B, merged avg %.0f B (%.1f%% merged), create %d cy (%.1f%% hidden)\n",
		d.AvgDiffBytes, d.AvgMergedBytes, d.MergedPct, d.CreateCycles, d.HiddenPct)
	fmt.Fprintf(out, "traffic: %d messages, %.1f MB; %d page fetches, %d diff fetches, %d update pushes (%d wasted)\n",
		run.Sum(func(p *stats.Proc) uint64 { return p.MsgsSent }),
		float64(run.Sum(func(p *stats.Proc) uint64 { return p.BytesSent }))/1e6,
		run.Sum(func(p *stats.Proc) uint64 { return p.PageFetches }),
		run.Sum(func(p *stats.Proc) uint64 { return p.DiffRequests }),
		run.Sum(func(p *stats.Proc) uint64 { return p.UpdatesPushed }),
		run.Sum(func(p *stats.Proc) uint64 { return p.UselessUpdates }))
	if *faults != "" {
		fmt.Fprintf(out, "faults: %d drops, %d dups suppressed, %d retransmits, %d acks, %d LAP fallbacks; recovery %d cy stolen, %d cy hidden, %d cy stalled\n",
			run.Sum(func(p *stats.Proc) uint64 { return p.MsgsDropped }),
			run.Sum(func(p *stats.Proc) uint64 { return p.DupMsgsSuppressed }),
			run.Sum(func(p *stats.Proc) uint64 { return p.Retransmits }),
			run.Sum(func(p *stats.Proc) uint64 { return p.AcksSent }),
			run.Sum(func(p *stats.Proc) uint64 { return p.LAPFallbacks }),
			total[stats.Recovery],
			run.Sum(func(p *stats.Proc) uint64 { return p.RecoveryHiddenCycles }),
			run.Sum(func(p *stats.Proc) uint64 { return p.FaultStallCycles }))
		if crashes := run.Sum(func(p *stats.Proc) uint64 { return p.NodeCrashes }); crashes > 0 {
			fmt.Fprintf(out, "crashes: %d node outages, %d cy failover, %d replica-log B, %d orphan invalidations\n",
				crashes,
				run.Sum(func(p *stats.Proc) uint64 { return p.FailoverCycles }),
				run.Sum(func(p *stats.Proc) uint64 { return p.ReplicaLogBytes }),
				run.Sum(func(p *stats.Proc) uint64 { return p.OrphanInvalidations }))
		}
	}

	if *perProc {
		fmt.Fprintln(out, "\nper-processor breakdown (cycles):")
		for i := range run.Procs {
			b := run.Procs[i].Breakdown
			fmt.Fprintf(out, "  p%-2d", i)
			for cat := stats.Category(0); cat < stats.NumCategories; cat++ {
				fmt.Fprintf(out, "  %s %12d", cat, b[cat])
			}
			fmt.Fprintln(out)
		}
	}
	return 0
}
