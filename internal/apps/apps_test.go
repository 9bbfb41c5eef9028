package apps_test

import (
	"testing"

	"aecdsm/internal/aec"
	"aecdsm/internal/apps"
	"aecdsm/internal/harness"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/tm"
)

// testScale keeps app problem sizes small enough for fast CI runs while
// still crossing many pages and synchronization events.
const testScale = 0.1

func protocols() map[string]func() proto.Protocol {
	return map[string]func() proto.Protocol{
		"ideal":     func() proto.Protocol { return proto.NewIdeal(2048) },
		"AEC":       func() proto.Protocol { return aec.New(aec.DefaultOptions()) },
		"AEC-noLAP": func() proto.Protocol { return aec.New(aec.Options{UseLAP: false, Ns: 2}) },
		"TM":        func() proto.Protocol { return tm.New() },
	}
}

// runApp executes one app under one protocol and fails the test on any
// deadlock or verification error.
func runApp(t *testing.T, name string, mk func() proto.Protocol) *harness.Result {
	t.Helper()
	factory, ok := apps.Registry[name]
	if !ok {
		t.Fatalf("app %q not registered", name)
	}
	res := harness.Run(memsys.Default(), mk(), factory(apps.Config{Scale: testScale}))
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAppsAllProtocols checks every registered application computes
// correct results under every protocol — the end-to-end coherence
// correctness test of the whole stack.
func TestAppsAllProtocols(t *testing.T) {
	for _, app := range apps.Names() {
		app := app
		for pname, mk := range protocols() {
			pname, mk := pname, mk
			t.Run(app+"/"+pname, func(t *testing.T) {
				runApp(t, app, mk)
			})
		}
	}
}
