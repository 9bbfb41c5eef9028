package aecdsm_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"aecdsm"
	"aecdsm/internal/mem"
)

func TestFacadeRun(t *testing.T) {
	res, err := aecdsm.Run(aecdsm.Config{App: "IS", Protocol: "AEC", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles() == 0 {
		t.Fatal("no cycles")
	}
}

func TestFacadeDefaults(t *testing.T) {
	res, err := aecdsm.Run(aecdsm.Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.App != "IS" || res.Run.Protocol != "AEC" {
		t.Fatalf("defaults: %s/%s", res.Run.App, res.Run.Protocol)
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := aecdsm.Run(aecdsm.Config{App: "nope", Scale: 0.05}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := aecdsm.Run(aecdsm.Config{Protocol: "nope", Scale: 0.05}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := aecdsm.NewProtocol("bogus", 2); err == nil {
		t.Fatal("NewProtocol accepted bogus name")
	}
	if _, err := aecdsm.NewProtocol("AEC", -3); err == nil {
		t.Fatal("NewProtocol accepted a negative update-set size")
	}
	if _, err := aecdsm.Run(aecdsm.Config{Protocol: "Munin+LAP", Ns: -1, Scale: 0.05}); err == nil {
		t.Fatal("Run accepted a negative update-set size")
	}
	if pr, err := aecdsm.NewProtocol("AEC", 0); err != nil || pr.(fmt.Stringer).String() != "AEC(Ns=2)" {
		t.Fatalf("NewProtocol with size 0 = %v, %v; want the default AEC(Ns=2)", pr, err)
	}
	if _, err := aecdsm.NewApp("bogus", 1); err == nil {
		t.Fatal("NewApp accepted bogus name")
	}
}

// TestFacadeScale holds the library to the CLIs' scale range: a scale
// outside (0,1] is refused, not run at the paper's size.
func TestFacadeScale(t *testing.T) {
	for _, scale := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := aecdsm.NewApp("IS", scale); err == nil || !strings.Contains(err.Error(), "outside (0, 1]") {
			t.Errorf("NewApp(IS, %v) error = %v, want the scale refused", scale, err)
		}
		if _, err := aecdsm.NewAppSeeded("IS", scale, 7); err == nil || !strings.Contains(err.Error(), "outside (0, 1]") {
			t.Errorf("NewAppSeeded(IS, %v, 7) error = %v, want the scale refused", scale, err)
		}
	}
	if _, err := aecdsm.Run(aecdsm.Config{Scale: 2}); err == nil || !strings.Contains(err.Error(), "outside (0, 1]") {
		t.Errorf("Run(Scale: 2) error = %v, want the scale refused", err)
	}
	for _, scale := range []float64{0.05, 1} {
		if _, err := aecdsm.NewApp("IS", scale); err != nil {
			t.Errorf("NewApp(IS, %v): %v", scale, err)
		}
	}
}

func TestFacadeLists(t *testing.T) {
	if len(aecdsm.Protocols()) != 7 {
		t.Fatalf("protocols: %v", aecdsm.Protocols())
	}
	if len(aecdsm.Apps()) < 6 {
		t.Fatalf("apps: %v", aecdsm.Apps())
	}
	for _, p := range aecdsm.Protocols() {
		if _, err := aecdsm.NewProtocol(p, 2); err != nil {
			t.Errorf("protocol %s: %v", p, err)
		}
	}
}

func TestDefaultParams(t *testing.T) {
	p := aecdsm.DefaultParams()
	if p.NumProcs != 16 || p.PageSize != 4096 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTablesRenderContent checks the experiment drivers emit the expected
// headers and app rows at a tiny scale.
func TestTablesRenderContent(t *testing.T) {
	e := aecdsm.NewExperiments(0.02)
	var buf bytes.Buffer
	e.All(&buf)
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4",
		"Figure 3", "Figure 4", "Figure 5", "Figure 6",
		"Ns sweep",
		"IS", "Raytrace", "Water-ns", "FFT", "Ocean", "Water-sp",
		"busy", "synch", "waitQ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestPaperOrdering asserts the headline result at small scale: AEC
// outperforms TreadMarks for every application in our configuration
// (the paper reports 5 of 6 wins and one tie).
func TestPaperOrdering(t *testing.T) {
	e := aecdsm.NewExperiments(0.05)
	for _, app := range []string{"IS", "FFT", "Water-sp"} {
		aecRes := e.Run(app, "AEC")
		tmRes := e.Run(app, "TM")
		if aecRes.Cycles() >= tmRes.Cycles() {
			t.Errorf("%s: AEC %d !< TM %d", app, aecRes.Cycles(), tmRes.Cycles())
		}
	}
}

// miniProgram exercises the RunProgram entry point with a caller-supplied
// Program.
type miniProgram struct{ err error }

func (m *miniProgram) Name() string                  { return "mini" }
func (m *miniProgram) NumLocks() int                 { return 1 }
func (m *miniProgram) Err() error                    { return m.err }
func (m *miniProgram) Init(s *mem.Space, nprocs int) { s.Alloc("mini", 64, 0) }
func (m *miniProgram) Body(c *aecdsm.Ctx)            { c.Compute(100); c.Barrier() }

func TestRunProgram(t *testing.T) {
	for _, protocol := range aecdsm.Protocols() {
		res, err := aecdsm.RunProgram(aecdsm.DefaultParams(), protocol, &miniProgram{})
		if err != nil {
			t.Fatalf("%s: %v", protocol, err)
		}
		if res.Cycles() == 0 {
			t.Fatalf("%s: no cycles", protocol)
		}
	}
	if _, err := aecdsm.RunProgram(aecdsm.DefaultParams(), "bogus", &miniProgram{}); err == nil {
		t.Fatal("bogus protocol accepted")
	}
}

// splitRefuser is miniProgram with a problem splitter that refuses every
// processor count.
type splitRefuser struct{ miniProgram }

func (*splitRefuser) CheckSplit(nprocs int) error {
	return fmt.Errorf("cannot split over %d processors", nprocs)
}

// TestSplitRefusalIsAnError: a configuration whose problem cannot be split
// over the machine is an error, not a run of zero cycles.
func TestSplitRefusalIsAnError(t *testing.T) {
	cfg := aecdsm.Config{Params: aecdsm.DefaultParams().ForProcs(256), App: "FFT", Scale: 0.05}
	if res, err := aecdsm.Run(cfg); err == nil || !strings.Contains(err.Error(), "FFT") || !strings.Contains(err.Error(), "256") {
		t.Errorf("FFT on 256 processors at 0.05: error %v (%d cycles), want a refusal naming app and processor count", err, res.Cycles())
	}
	cfg.Params = aecdsm.DefaultParams().ForProcs(16)
	if res, err := aecdsm.Run(cfg); err != nil || res.Cycles() == 0 {
		t.Errorf("FFT on 16 processors at 0.05: %v, %d cycles", err, res.Cycles())
	}
	if _, err := aecdsm.RunProgram(aecdsm.DefaultParams(), "AEC", &splitRefuser{}); err == nil || !strings.Contains(err.Error(), "mini") {
		t.Errorf("RunProgram with a refusing splitter: error %v, want a refusal naming the program", err)
	}
}
