// Command bench is the repository's benchmark: the end-to-end host time and
// memory of the things people run (the paper's tables at quarter and full
// scale, a big-mesh scaling sweep, the differential fuzzer), a traced pass
// that books host time to layers, and isolated probes of each layer's
// kernels. Simulated results are checked, never optimised: a speed-up that
// changes a simulated count is a behaviour change. README.md has the
// definitions; BENCHMARK.json at the repository root is the contract the
// growth driver runs it under.
//
//	go run ./bench                       # every workload, end-to-end metrics
//	go run ./bench -trace 1              # every workload, per-layer metrics and span files
//	go run ./bench -workload bigmesh     # one workload, in this process
//	go run ./bench -selfcheck            # two sets back to back, compared within bounds
//	go run ./bench -update               # regenerate bench/expected/ at this commit
//	go run ./bench -quick ...            # small sizes, for iterating on the benchmark itself
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is how long a workload measures unless -seconds says
// otherwise: timed regions of 30-50 s on the reference box. The growth
// driver passes BENCHMARK.json's shorter run_seconds, which its cap on
// total run time dictates.
const defaultSeconds = 40

func main() {
	cfg := &config{started: time.Now()}
	pinToOneThread()
	flag.StringVar(&cfg.workload, "workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); default every one, each in its own process")
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed: the applications' base seed, the first fuzz seed")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "measure whole iterations for about this long (at least one)")
	traceFlag := flag.Int("trace", 0, "1 = the traced pass: per-layer metrics, probes and bench/out/trace-<workload>.jsonl")
	flag.BoolVar(&cfg.quick, "quick", false, "small sizes (scale 0.05 tables, 16-processor mesh, 20 seeds); no committed reference")
	flag.BoolVar(&cfg.update, "update", false, "rewrite bench/expected/ from this run (default seed, full sizes)")
	selfcheck := flag.Bool("selfcheck", false, "run two sets back to back and fail if any end-to-end metric disagrees beyond its bound")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	cfg.trace = *traceFlag != 0
	if cfg.update && (cfg.seed != defaultSeed || cfg.quick || cfg.trace) {
		fmt.Fprintln(os.Stderr, "bench: -update needs the default seed, full sizes and no -trace")
		os.Exit(2)
	}

	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	switch {
	case *selfcheck:
		os.Exit(selfCheck(cfg, names))
	case cfg.workload == "":
		printHeader()
		if _, ok := runSet(cfg, names); !ok {
			os.Exit(1)
		}
	default:
		printHeader()
		res, err := runWorkload(cfg, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		fmt.Println(resultJSON(res, cfg.trace))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// pinToOneThread runs the benchmark on one OS thread's worth of Go code
// unless the environment sets GOMAXPROCS itself. Every simulation is one
// runner handing control from coroutine to coroutine; with a second P those
// hand-offs cross cores, which on the shared 2-core reference box made the
// same code 20-50 % slower and moved its wall time by 30 % from minute to
// minute as the neighbours' load changed (README, "Reference numbers").
// Child processes inherit the environment and decide the same way.
func pinToOneThread() {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
}

func printHeader() {
	fmt.Printf("bench: nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
}

// commit is the revision being measured, when anything knows it: a
// checkout that is not a git repository reports "unknown".
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// resultJSON renders the contract's last line: exactly the four keys, and
// under metrics exactly the metrics BENCHMARK.json lists for this pass.
func resultJSON(res *result, traced bool) string {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, map[string]value{}}
	for _, m := range res.Metrics {
		for _, d := range defs {
			if d.Driver && d.Name == m.Name {
				out.Metrics[m.Name] = value{m.Value, m.Unit}
			}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// A NaN or Inf value: a metric was computed from nothing.
		return fmt.Sprintf(`{"correct": false, "attempted": %d, "failed": %d, "metrics": {}}`, out.Attempted, max(out.Failed, 1))
	}
	return string(b)
}

// setResult is what the parent keeps of one child run.
type setResult struct {
	correct bool
	metrics map[string]metric
	digest  string
}

// runSet runs each named workload in a child process of its own, so that
// peak_rss_mb is per workload, relaying the child's output. ok is false
// when any child failed.
func runSet(cfg *config, names []string) (map[string]setResult, bool) {
	set := map[string]setResult{}
	ok := true
	traceArg := "0"
	if cfg.trace {
		traceArg = "1"
	}
	for _, name := range names {
		args := []string{
			"-workload", name,
			"-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-trace", traceArg,
			"-quick=" + strconv.FormatBool(cfg.quick),
			"-update=" + strconv.FormatBool(cfg.update),
		}
		cmd := exec.Command(os.Args[0], args...)
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
		cmd.Stderr = os.Stderr
		err := cmd.Run()
		r := parseChild(name, buf.String())
		if err != nil {
			fmt.Printf("%s: FAILED (%v)\n", name, err)
			r.correct = false
		}
		ok = ok && r.correct
		set[name] = r
	}
	return set, ok
}

// parseChild reads a child's "workload name value unit" lines, its digest
// line and the verdict in its last line.
func parseChild(name, output string) setResult {
	r := setResult{metrics: map[string]metric{}}
	sc := bufio.NewScanner(strings.NewReader(output))
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "{"):
			var last struct{ Correct bool }
			r.correct = json.Unmarshal([]byte(line), &last) == nil && last.Correct
		case len(f) == 3 && f[0] == name+":" && f[1] == "digest":
			r.digest = f[2]
		case len(f) >= 4 && f[0] == name:
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				r.metrics[f[1]] = metric{Name: f[1], Value: v, Unit: f[3]}
			}
		}
	}
	return r
}

// selfCheck runs two full sets of the same code and compares them: every
// end-to-end metric within its bound, every exact count exactly. It is how
// the bounds in metrics.go were confirmed, and what to run before trusting
// a comparison made on a new machine.
func selfCheck(cfg *config, names []string) int {
	printHeader()
	cfg.trace, cfg.update = false, false
	first, ok1 := runSet(cfg, names)
	second, ok2 := runSet(cfg, names)
	bad := !ok1 || !ok2
	fmt.Printf("\n%-12s %-18s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, name := range names {
		a, b := first[name], second[name]
		for _, def := range endToEnd {
			ma, okA := a.metrics[def.Name]
			mb, okB := b.metrics[def.Name]
			if !okA || !okB {
				continue
			}
			worse := mb.Value/ma.Value - 1
			if def.Better == "higher" {
				worse = ma.Value/mb.Value - 1
			}
			if def.Name == "failed_frac" {
				worse = mb.Value - ma.Value
			}
			verdict := ""
			if worse > def.Bound && mb.Value-ma.Value >= floors[def.Name] {
				verdict, bad = "  DISAGREE", true
			}
			fmt.Printf("%-12s %-18s %14.6g %14.6g %+7.1f%% %5.0f%%%s\n", name, def.Name, ma.Value, mb.Value, 100*worse, 100*def.Bound, verdict)
		}
		for _, exact := range []string{"sim.msgs", "sim.gcycles"} {
			if a.metrics[exact].Value != b.metrics[exact].Value {
				fmt.Printf("%-12s %-18s %14.6g %14.6g  DISAGREE (exact count)\n", name, exact, a.metrics[exact].Value, b.metrics[exact].Value)
				bad = true
			}
		}
		if a.digest != b.digest {
			fmt.Printf("%-12s digest %s vs %s  DISAGREE\n", name, a.digest, b.digest)
			bad = true
		}
	}
	if bad {
		fmt.Println("selfcheck: the two sets disagree")
		return 1
	}
	fmt.Println("selfcheck: the two sets agree within every bound")
	return 0
}
