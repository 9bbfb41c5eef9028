package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aecdsm/internal/fault"
	"aecdsm/internal/memsys"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// renewSizes are the machine sizes the renewal tests move between: the
// checker's smallest, the paper's, and a combining-tree one.
var renewSizes = []int{2, 16, 64}

// renewParams is the default machine at n processors.
func renewParams(n int) memsys.Params { return memsys.Default().ForProcs(n) }

// ringRun runs a ring exchange on e: every processor touches its cache,
// TLB and memory bus, then sends rounds messages to its right neighbour
// and waits for its left neighbour's. It sets everything a run can set —
// tracer, observer, crash and restart hooks, and under a fault schedule
// the injector and the transport — so that a renewal has all of it to
// undo. It returns the run's JSONL trace.
func ringRun(e *Engine, fcfg *fault.Config) string {
	const rounds = 6
	n := len(e.Procs)
	var buf bytes.Buffer
	tr := trace.NewJSONL(&buf)
	e.Tracer = trace.To(tr)
	e.Observe([]Time{500, 5000}, func(int) {})
	e.OnCrash(func(int) {})
	e.OnRestart(func(int) uint64 { return 100 })
	if fcfg != nil {
		e.EnableFaults(*fcfg)
	}
	got := make([]int, n)
	for i := 0; i < n; i++ {
		to := (i + 1) % n
		e.Spawn(i, func(p *Proc) {
			p.Cache.Access(64*i, 8)
			p.TLB.Access(i)
			p.Advance(p.MemBus.Cost(p.Clock, 4), stats.Data)
			for k := 0; k < rounds; k++ {
				e.SendFrom(p, stats.Synch, to, 1, 64, nil, func(s *Svc, m *Msg) {
					s.Charge(40)
					got[m.To]++
					s.Wake(e.Procs[m.To])
				})
				p.Advance(300, stats.Busy)
			}
			p.WaitUntil(func() bool { return got[i] == rounds }, stats.Synch)
		})
	}
	e.Start()
	if err := tr.Flush(); err != nil {
		panic(err)
	}
	return buf.String()
}

// renewSchedules are the runs an engine is renewed after: clean, the
// light preset, and a crash and restart of node 1 mid-run.
func renewSchedules(t *testing.T) map[string]*fault.Config {
	light, err := fault.ParseSpec("light")
	if err != nil {
		t.Fatal(err)
	}
	light.Seed = 11
	crash := light
	crash.Seed = 12
	crash.Crashes = []fault.Crash{{Node: 1, At: 800, Down: 3000}}
	return map[string]*fault.Config{"clean": nil, "light": &light, "crash": &crash}
}

// project flattens the engine reachable from v into one "path: value"
// line per scalar, following pointers once (a pointer met again prints the
// path it was first met at). It drops what a renewal may keep and a new
// engine lacks, and nothing else: a slice's capacity — an empty slice is
// printed like nil — and the contents of idle pools, the pool.Of records
// and the transport's spare rows. Every other field is compared, including
// any added after this test.
func project(v any) []string {
	var out []string
	seen := map[uintptr]string{}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				out = append(out, path+": nil")
				return
			}
			if at, ok := seen[v.Pointer()]; ok {
				out = append(out, path+": -> "+at)
				return
			}
			seen[v.Pointer()] = path
			walk(path, v.Elem())
		case reflect.Struct:
			if strings.HasPrefix(v.Type().String(), "pool.Of[") {
				return // idle records: what a pool holds is not state
			}
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if v.Type() == reflect.TypeOf(reliability{}) && f.Name == "spare" {
					continue
				}
				walk(path+"."+f.Name, v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			if v.Len() == 0 {
				out = append(out, path+": empty")
			}
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		case reflect.Func, reflect.Interface:
			if v.IsNil() {
				out = append(out, path+": nil")
			} else if v.Kind() == reflect.Func {
				out = append(out, path+": func")
			} else {
				walk(path, v.Elem())
			}
		case reflect.Bool:
			out = append(out, fmt.Sprintf("%s: %v", path, v.Bool()))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			out = append(out, fmt.Sprintf("%s: %d", path, v.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			out = append(out, fmt.Sprintf("%s: %d", path, v.Uint()))
		case reflect.Float32, reflect.Float64:
			out = append(out, fmt.Sprintf("%s: %v", path, v.Float()))
		case reflect.String:
			out = append(out, fmt.Sprintf("%s: %q", path, v.String()))
		default:
			panic(fmt.Sprintf("project: %s is a %s", path, v.Kind()))
		}
	}
	walk("e", reflect.ValueOf(v))
	return out
}

// firstDifference names the first line two projections disagree on.
func firstDifference(got, want []string) string {
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("got %q, want %q", got[i], want[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(got), len(want))
}

// TestRenewedEngineIsFresh: after a clean, a light-faulted and a
// crash-scheduled run at 2, 16 and 64 processors, renewing the engine for
// each size — smaller, the same, larger — gives exactly the engine New
// gives, and so does renewing one that was poisoned after its run.
func TestRenewedEngineIsFresh(t *testing.T) {
	for name, fcfg := range renewSchedules(t) {
		for _, n := range renewSizes {
			for _, poisoned := range []bool{false, true} {
				for _, m := range renewSizes {
					e := New(renewParams(n), stats.NewRun("t", "t", n))
					ringRun(e, fcfg)
					if e.Deadlocked {
						t.Fatalf("%s at %d: the ring deadlocked", name, n)
					}
					if poisoned {
						e.Release()
						e.Poison()
					}
					e.Renew(renewParams(m), stats.NewRun("t", "t", m))
					got, want := project(e), project(New(renewParams(m), stats.NewRun("t", "t", m)))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s at %d (poisoned %v), renewed for %d: %s", name, n, poisoned, m, firstDifference(got, want))
					}
				}
			}
		}
	}
}

// TestReleasedEngineKeepsNoRun: a released engine holds nothing its run
// put in it — no function, no statistics, no processor, no event — only
// storage, and it is the same storage-only engine whatever the run was: a
// new engine released at once projects the same.
func TestReleasedEngineKeepsNoRun(t *testing.T) {
	for name, fcfg := range renewSchedules(t) {
		for _, n := range renewSizes {
			e := New(renewParams(n), stats.NewRun("t", "t", n))
			ringRun(e, fcfg)
			e.Release()
			empty := New(renewParams(n), stats.NewRun("t", "t", n))
			empty.Release()
			got, want := project(e), project(empty)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at %d: %s", name, n, firstDifference(got, want))
			}
			for _, line := range got {
				if strings.HasSuffix(line, ": func") {
					t.Fatalf("%s at %d: the released engine keeps %s", name, n, line)
				}
			}
			if e.Run != nil || len(e.Procs) != 0 || e.events.Len() != 0 {
				t.Fatalf("%s at %d: the released engine keeps its statistics, %d processors and %d events", name, n, len(e.Procs), e.events.Len())
			}
		}
	}
}

// TestRenewedEngineRunsLikeNew: a run on a renewed engine measures and
// traces what it does on a new one, whatever the engine ran before — the
// transport's reused rows start every pair at its first sequence number.
func TestRenewedEngineRunsLikeNew(t *testing.T) {
	schedules := renewSchedules(t)
	for _, name := range []string{"clean", "light", "crash"} {
		for _, m := range renewSizes {
			fresh := stats.NewRun("t", "t", m)
			freshTrace := ringRun(New(renewParams(m), fresh), schedules[name])
			e := New(renewParams(64), stats.NewRun("t", "t", 64))
			for _, before := range []string{"crash", "light", "clean"} {
				ringRun(e, schedules[before])
				renewed := stats.NewRun("t", "t", m)
				e.Renew(renewParams(m), renewed)
				renewedTrace := ringRun(e, schedules[name])
				if !reflect.DeepEqual(fresh, renewed) || renewedTrace != freshTrace {
					t.Fatalf("%s at %d after a %s run: %d cycles renewed, %d new; traces equal %v",
						name, m, before, renewed.Cycles, fresh.Cycles, renewedTrace == freshTrace)
				}
				e.Renew(renewParams(64), stats.NewRun("t", "t", 64))
			}
		}
	}
}

// TestRenewDoesNotAllocate: renewing an engine for a machine no larger
// than the last one it ran allocates nothing — processors, memory-system
// models, links, queue, pools and pair rows are all kept.
func TestRenewDoesNotAllocate(t *testing.T) {
	light := renewSchedules(t)["light"]
	for _, n := range renewSizes {
		e := New(renewParams(n), stats.NewRun("t", "t", n))
		ringRun(e, light)
		runs := make([]*stats.Run, 0, len(renewSizes)+1)
		for _, m := range renewSizes {
			if m <= n {
				runs = append(runs, stats.NewRun("t", "t", m))
			}
		}
		for _, run := range runs {
			p := renewParams(len(run.Procs))
			if allocs := testing.AllocsPerRun(10, func() { e.Renew(p, run) }); allocs != 0 {
				t.Errorf("renewing a %d-processor engine for %d processors allocates %.0f objects", n, len(run.Procs), allocs)
			}
		}
	}
}
