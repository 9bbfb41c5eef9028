// Package profutil wires the observability outputs — the protocol event
// trace, the metrics summary, and the runtime/pprof CPU and heap profilers
// — into the command-line drivers, which share one set of flags for them.
// Profiling a parallel run superimposes the scheduler's worker
// interleaving on the simulator's own costs, so the drivers pin -jobs to 1
// whenever a profile is requested — the methodology is documented in
// docs/PERFORMANCE.md ("Profiling the engine").
package profutil

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"aecdsm/internal/trace"
)

// Flags holds the values of the observability flags after parsing.
type Flags struct {
	trace, traceFormat, metrics string
	cpuProfile, memProfile      string
}

// Register declares -trace, -trace-format, -metrics, -cpuprofile and
// -memprofile on fs. profileNote is appended to the two profile flags'
// usage text (the sweep driver says there that profiling pins -jobs).
func Register(fs *flag.FlagSet, profileNote string) *Flags {
	f := RegisterProfiles(fs, profileNote)
	fs.StringVar(&f.trace, "trace", "", "write the protocol event trace to this file")
	fs.StringVar(&f.traceFormat, "trace-format", "jsonl", "trace format: jsonl or chrome (Perfetto)")
	fs.StringVar(&f.metrics, "metrics", "", "write the per-lock/per-page metrics summary (JSON) to this file")
	return f
}

// RegisterProfiles declares only -cpuprofile and -memprofile, for a driver
// that attaches its own tracer (the differential checker's auditor); Open
// then returns a nil tracer.
func RegisterProfiles(fs *flag.FlagSet, profileNote string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file"+profileNote)
	fs.StringVar(&f.memProfile, "memprofile", "", "write an allocation profile to this file"+profileNote)
	return f
}

// usageError is an Open failure caused by a flag value, not the
// environment.
type usageError string

func (e usageError) Error() string { return string(e) }

// ExitCode is the drivers' exit status for an Open error: 2 for a bad flag
// value, 1 for anything the environment refused.
func ExitCode(err error) int {
	var u usageError
	if errors.As(err, &u) {
		return 2
	}
	return 1
}

// Open starts what the flags ask for: CPU profiling, then the trace file
// in its format, then the metrics aggregator. It returns the tracer to
// attach to the run (nil when neither -trace nor -metrics is set) and a
// close function to call once the run is over, which finishes the trace,
// writes the metrics summary and the profiles, and reports what failed,
// each error prefixed with its phase.
func (f *Flags) Open() (tr trace.Tracer, close func() error, err error) {
	if f.trace != "" && f.traceFormat != "jsonl" && f.traceFormat != "chrome" {
		return nil, nil, usageError(fmt.Sprintf("unknown -trace-format %q (want jsonl or chrome)", f.traceFormat))
	}
	stopProf, err := startProfiles(f.cpuProfile, f.memProfile)
	if err != nil {
		return nil, nil, err
	}
	var sinks []trace.Tracer
	var closers []io.Closer
	if f.trace != "" {
		file, err := os.Create(f.trace)
		if err != nil {
			_ = stopProf() // the create error is the one to report
			return nil, nil, err
		}
		var t interface {
			trace.Tracer
			io.Closer
		} = trace.NewJSONL(file)
		if f.traceFormat == "chrome" {
			t = trace.NewChrome(file)
		}
		sinks, closers = append(sinks, t), append(closers, t, file)
	}
	var agg *trace.Metrics
	if f.metrics != "" {
		agg = trace.NewMetrics()
		sinks = append(sinks, agg)
	}
	return trace.Multi(sinks...), func() error {
		var errs []error
		for _, c := range closers {
			if err := c.Close(); err != nil {
				errs = append(errs, fmt.Errorf("closing trace: %w", err))
			}
		}
		if agg != nil {
			out, err := os.Create(f.metrics)
			if err == nil {
				err = agg.WriteJSON(out)
				if cerr := out.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("writing metrics: %w", err))
			}
		}
		if err := stopProf(); err != nil {
			errs = append(errs, fmt.Errorf("writing profile: %w", err))
		}
		return errors.Join(errs...)
	}, nil
}

// startProfiles begins CPU profiling into cpuFile (when non-empty) and
// arranges for a heap profile to be written to memFile (when non-empty).
// It returns a stop function that must run before the process exits,
// which finishes both profiles whatever fails and reports every failure,
// and an error if the CPU profile cannot be started. Empty filenames are
// ignored.
func startProfiles(cpuFile, memFile string) (stop func() error, err error) {
	var cpuF *os.File
	if cpuFile != "" {
		cpuF, err = os.Create(cpuFile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpuF != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpuF.Close())
		}
		if memFile != "" {
			errs = append(errs, writeHeapProfile(memFile))
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeapProfile writes the allocation profile to name.
func writeHeapProfile(name string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	// Materialize the live heap before snapshotting allocation counters so
	// the profile reflects steady state, not GC lag.
	runtime.GC()
	// The profile's compressed writer drops the errors of the writes under
	// it; w keeps the first.
	w := &errWriter{w: f}
	err = pprof.Lookup("allocs").WriteTo(w, 0)
	return errors.Join(cmp.Or(w.err, err), f.Close())
}

// errWriter writes to w and keeps the first error a write returns.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	n, err := e.w.Write(p)
	e.err = cmp.Or(e.err, err)
	return n, err
}

// Pin returns the job count to use when profiling: 1 if either profile
// flag is set (with a notice on stderr when that overrides an explicit
// request), jobs unchanged otherwise.
func (f *Flags) Pin(jobs int) int {
	if f.cpuProfile == "" && f.memProfile == "" {
		return jobs
	}
	if jobs != 1 && jobs != 0 {
		fmt.Fprintln(os.Stderr, "profiling pins -jobs to 1 (docs/PERFORMANCE.md)")
	}
	return 1
}
