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
	"flag"
	"fmt"
	"os"
	"strings"

	"aecdsm"
	"aecdsm/internal/profutil"
	"aecdsm/internal/stats"
)

func main() {
	var (
		app       = flag.String("app", "IS", "application to run (see -list)")
		protocol  = flag.String("protocol", "AEC", "protocol: "+strings.Join(aecdsm.Protocols(), ", "))
		scale     = flag.Float64("scale", 1.0, "problem scale in (0,1]; 1.0 = paper sizes")
		ns        = flag.Int("ns", 2, "LAP update set size (AEC only)")
		list      = flag.Bool("list", false, "list applications and protocols")
		perProc   = flag.Bool("procs", false, "print the per-processor breakdown")
		faults    = flag.String("faults", "", "fault schedule: a preset (light, heavy) or clauses like drop=0.05,dup=0.02 (empty = no faults)")
		faultSeed = flag.Uint64("fault-seed", 0, "seed for the fault schedule")
	)
	obs := profutil.Register(flag.CommandLine, "")
	flag.Parse()

	if *list {
		fmt.Println("applications:", aecdsm.Apps())
		fmt.Println("protocols:   ", aecdsm.Protocols())
		return
	}

	tracer, closeObs, err := obs.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aecsim:", err)
		os.Exit(profutil.ExitCode(err))
	}
	res, err := aecdsm.Run(aecdsm.Config{
		App: *app, Protocol: *protocol, Scale: *scale, Ns: *ns,
		TraceSink: tracer,
		Faults:    *faults, FaultSeed: *faultSeed,
	})
	if cerr := closeObs(); cerr != nil {
		fmt.Fprintln(os.Stderr, "aecsim:", cerr)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aecsim:", err)
		os.Exit(1)
	}

	run := res.Run
	fmt.Printf("%s under %s: %d simulated cycles (%.2f ms at 100 MHz)\n",
		run.App, run.Protocol, run.Cycles, float64(run.Cycles)/1e5)

	total := run.TotalBreakdown()
	fmt.Printf("breakdown: ")
	for cat := stats.Category(0); cat < stats.NumCategories; cat++ {
		fmt.Printf("%s %.1f%%  ", cat, 100*float64(total[cat])/float64(total.Total()))
	}
	fmt.Println()

	fmt.Printf("locks: %d acquires, %d barriers, %d acquire notices\n",
		run.LockAcquires(), run.BarrierEvents(),
		run.Sum(func(p *stats.Proc) uint64 { return p.AcquireNotices }))
	fmt.Printf("faults: %d read, %d write (%d cold), %d cycles stalled\n",
		run.Sum(func(p *stats.Proc) uint64 { return p.ReadFaults }),
		run.Sum(func(p *stats.Proc) uint64 { return p.WriteFaults }),
		run.Sum(func(p *stats.Proc) uint64 { return p.ColdFaults }),
		run.FaultCycles())
	d := run.Diffs()
	fmt.Printf("diffs: avg %.0f B, merged avg %.0f B (%.1f%% merged), create %d cy (%.1f%% hidden)\n",
		d.AvgDiffBytes, d.AvgMergedBytes, d.MergedPct, d.CreateCycles, d.HiddenPct)
	fmt.Printf("traffic: %d messages, %.1f MB; %d page fetches, %d diff fetches, %d update pushes (%d wasted)\n",
		run.Sum(func(p *stats.Proc) uint64 { return p.MsgsSent }),
		float64(run.Sum(func(p *stats.Proc) uint64 { return p.BytesSent }))/1e6,
		run.Sum(func(p *stats.Proc) uint64 { return p.PageFetches }),
		run.Sum(func(p *stats.Proc) uint64 { return p.DiffRequests }),
		run.Sum(func(p *stats.Proc) uint64 { return p.UpdatesPushed }),
		run.Sum(func(p *stats.Proc) uint64 { return p.UselessUpdates }))
	if *faults != "" {
		fmt.Printf("faults: %d drops, %d dups suppressed, %d retransmits, %d acks, %d LAP fallbacks; recovery %d cy stolen, %d cy hidden, %d cy stalled\n",
			run.Sum(func(p *stats.Proc) uint64 { return p.MsgsDropped }),
			run.Sum(func(p *stats.Proc) uint64 { return p.DupMsgsSuppressed }),
			run.Sum(func(p *stats.Proc) uint64 { return p.Retransmits }),
			run.Sum(func(p *stats.Proc) uint64 { return p.AcksSent }),
			run.Sum(func(p *stats.Proc) uint64 { return p.LAPFallbacks }),
			total[stats.Recovery],
			run.Sum(func(p *stats.Proc) uint64 { return p.RecoveryHiddenCycles }),
			run.Sum(func(p *stats.Proc) uint64 { return p.FaultStallCycles }))
		if crashes := run.Sum(func(p *stats.Proc) uint64 { return p.NodeCrashes }); crashes > 0 {
			fmt.Printf("crashes: %d node outages, %d cy failover, %d replica-log B, %d orphan invalidations\n",
				crashes,
				run.Sum(func(p *stats.Proc) uint64 { return p.FailoverCycles }),
				run.Sum(func(p *stats.Proc) uint64 { return p.ReplicaLogBytes }),
				run.Sum(func(p *stats.Proc) uint64 { return p.OrphanInvalidations }))
		}
	}

	if *perProc {
		fmt.Println("\nper-processor breakdown (cycles):")
		for i := range run.Procs {
			b := run.Procs[i].Breakdown
			fmt.Printf("  p%-2d", i)
			for cat := stats.Category(0); cat < stats.NumCategories; cat++ {
				fmt.Printf("  %s %12d", cat, b[cat])
			}
			fmt.Println()
		}
	}
}
