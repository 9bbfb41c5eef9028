package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"slices"
	"testing"
)

// contract is the part of BENCHMARK.json the tests hold the code to.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// driverDefs is the catalogue's view of what BENCHMARK.json must list.
func driverDefs(defs []metricDef, bounds bool) []contractMetric {
	var out []contractMetric
	for _, d := range defs {
		if d.Driver {
			m := contractMetric{Name: d.Name, Unit: d.Unit, Better: d.Better}
			if bounds {
				m.Bound = d.Bound
			}
			out = append(out, m)
		}
	}
	return out
}

// TestContractMatchesCatalogue pins BENCHMARK.json to metrics.go: the same
// names, units, directions and bounds, and only workloads the code has.
func TestContractMatchesCatalogue(t *testing.T) {
	c := loadContract(t)
	if !slices.Equal(c.Command, []string{"go", "run", "./bench"}) || !slices.Equal(c.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", c.Command, c.Paths)
	}
	if !slices.Equal(c.EndToEnd, driverDefs(endToEnd, true)) {
		t.Errorf("end_to_end differs from metrics.go:\n%v\n%v", c.EndToEnd, driverDefs(endToEnd, true))
	}
	if !slices.Equal(c.PerLayer, driverDefs(perLayer, false)) {
		t.Errorf("per_layer differs from metrics.go:\n%v\n%v", c.PerLayer, driverDefs(perLayer, false))
	}
	for _, w := range c.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("workload %q is not one of %v", w.Name, workloadNames)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestEveryMetricOnce runs each of the contract's workloads at the -quick
// sizes, untraced and traced: the run is correct (which includes the
// replica reproducing the pass — the sweep's cycle column for bigmesh),
// every metric the contract names is emitted exactly once with its unit,
// nothing outside the catalogue is emitted, and the last line carries
// exactly the contract's metrics.
func TestEveryMetricOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick benchmark (about 15 s)")
	}
	c := loadContract(t)
	for _, w := range c.Workloads {
		for _, traced := range []bool{false, true} {
			want, known := c.EndToEnd, endToEnd
			if traced {
				want, known = c.PerLayer, perLayer
			}
			cfg := &config{workload: w.Name, seed: 7, seconds: 0.1, trace: traced, quick: true}
			res, err := runWorkload(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			seen := map[string]int{}
			for _, m := range res.Metrics {
				seen[m.Name]++
				if !nameRE.MatchString(m.Name) || m.Unit == "" {
					t.Errorf("%s: metric %q unit %q", w.Name, m.Name, m.Unit)
				}
				i := slices.IndexFunc(known, func(d metricDef) bool { return d.Name == m.Name })
				switch {
				case i < 0 && !traced && (m.Name == "sim.msgs" || m.Name == "sim.gcycles"):
					// The exact counts ride along with the end-to-end metrics.
				case i < 0:
					t.Errorf("%s: metric %q is not in the catalogue", w.Name, m.Name)
				case known[i].Unit != m.Unit:
					t.Errorf("%s: metric %q has unit %q, catalogue says %q", w.Name, m.Name, m.Unit, known[i].Unit)
				}
			}
			var last struct {
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(resultJSON(res, traced)), &last); err != nil {
				t.Fatal(err)
			}
			for _, m := range want {
				if seen[m.Name] != 1 {
					t.Errorf("%s traced=%v: %s emitted %d times", w.Name, traced, m.Name, seen[m.Name])
				}
				if got, ok := last.Metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: last line lacks %s in %s", w.Name, traced, m.Name, m.Unit)
				}
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s traced=%v: last line has %d metrics, contract %d", w.Name, traced, len(last.Metrics), len(want))
			}
			if traced && w.Name == "tables_q" {
				checkFormatShare(t, res)
			}
		}
	}
}

// checkFormatShare holds harness.format_s under 5 % of the traced pass: if
// rendering All from the warm cache costs more, the key walk has drifted
// from the key set All submits and simulations are running inside it.
func checkFormatShare(t *testing.T, res *result) {
	t.Helper()
	value := func(name string) float64 {
		i := slices.IndexFunc(res.Metrics, func(m metric) bool { return m.Name == name })
		if i < 0 {
			t.Fatalf("no %s", name)
		}
		return res.Metrics[i].Value
	}
	pass := value("proto.ideal_run_s") + value("aec.run_s") + value("aec_nolap.run_s") + value("tm.run_s") + value("munin.run_s")
	if format := value("harness.format_s"); format > 0.05*pass {
		t.Errorf("harness.format_s %.4g s is over 5 %% of the %.4g s pass", format, pass)
	}
}

// fixedReplica is a workload whose replica returns what the test says.
type fixedReplica struct {
	workload
	out replicaOut
}

func (f fixedReplica) replica(*recorder) (replicaOut, error) { return f.out, nil }

// TestVerifierCatchesDisagreement feeds the verifier passes that do not
// reproduce each other: every simulation of such a pass fails.
func TestVerifierCatchesDisagreement(t *testing.T) {
	good := iteration{digest: "aa", runs: 4, cross: []uint64{1, 2}}
	for name, tc := range map[string]struct {
		v    verifier
		it   iteration
		fail int
	}{
		"agrees":           {verifier{first: &good}, good, 0},
		"reference digest": {verifier{ref: &reference{SHA256: "bb", Runs: 4}}, good, 4},
		"reference runs":   {verifier{ref: &reference{SHA256: "aa", Runs: 5}}, good, 4},
		"earlier digest":   {verifier{first: &iteration{digest: "bb"}}, good, 4},
		"own failures":     {verifier{}, iteration{runs: 4, failed: 2, why: "deadlocked"}, 2},
	} {
		res := &result{}
		tc.v.check(tc.it, res, io.Discard)
		if res.Failed != tc.fail || res.Attempted != tc.it.runs {
			t.Errorf("%s: failed %d of %d, want %d", name, res.Failed, res.Attempted, tc.fail)
		}
	}

	counted := counts{Runs: 4, Msgs: 10, Cycles: 20}
	for name, tc := range map[string]struct {
		ref  *reference
		rep  replicaOut
		fail int
	}{
		"agrees":          {&reference{Runs: 4, SimMsgs: 10, SimCycles: 20}, replicaOut{counts: counted, cross: []uint64{1, 2}, digest: "aa"}, 0},
		"reference count": {&reference{Runs: 4, SimMsgs: 11, SimCycles: 20}, replicaOut{counts: counted}, 4},
		"cycle column":    {nil, replicaOut{counts: counted, cross: []uint64{1, 3}}, 4},
		"output digest":   {nil, replicaOut{counts: counted, digest: "bb"}, 4},
	} {
		res := &result{}
		v := verifier{ref: tc.ref, first: &good}
		v.checkReplica(fixedReplica{out: tc.rep}, nil, res, io.Discard)
		if res.Failed != tc.fail || res.Attempted != 4 {
			t.Errorf("replica %s: failed %d of %d, want %d", name, res.Failed, res.Attempted, tc.fail)
		}
	}
}

// TestSelfTimes checks the span arithmetic on nested and overlapping spans.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},     // overlaps a: union is 10..60
		{Name: "a1", Start: 15, End: 25, Parent: 1},    // nested two deep
		{Name: "c", Start: 90, End: 120, Parent: 0},    // runs past the parent: clipped to 90..100
		{Name: "b1", Start: 35, End: 36, Parent: 2},    // inside the overlap, still b's child only
		{Name: "leaf", Start: 70, End: 80, Parent: -1}, // a second root
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30 - 1, 10, 30, 1, 10}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	rec := newRecorder("w")
	outer := rec.begin("layer.x:one")
	inner := rec.begin("layer.y:two")
	rec.end(inner)
	rec.end(outer)
	if len(rec.spans) != 2 || rec.spans[1].Parent != 0 || rec.spans[0].Parent != -1 || len(rec.open) != 0 {
		t.Errorf("recorder nesting: %+v", rec.spans)
	}
	if s := secondsBy(rec.spans, layerOf); len(s) != 2 || s["layer.x"] < s["layer.y"] {
		t.Errorf("secondsBy(layerOf) = %v", s)
	}
	var none *recorder
	none.end(none.begin("ignored")) // the untraced pass: nothing recorded, nothing read
}

func TestQuantile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if median(v) != 3 || quantile(v, 0.99) != 5 || quantile(v, 0) != 1 || median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Errorf("median %v p99 %v p0 %v", median(v), quantile(v, 0.99), quantile(v, 0))
	}
}
