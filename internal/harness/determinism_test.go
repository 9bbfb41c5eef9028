package harness

import (
	"bytes"
	"testing"

	"aecdsm/internal/apps"
	"aecdsm/internal/memsys"
	"aecdsm/internal/trace"
)

// metricsJSON runs one app under AEC with the metrics aggregator attached
// and returns the serialized summary.
func metricsJSON(t *testing.T, app string, scale float64) []byte {
	return metricsJSONSeeded(t, app, scale, 0)
}

// metricsJSONSeeded is metricsJSON with an explicit base seed for the
// application's random streams.
func metricsJSONSeeded(t *testing.T, app string, scale float64, seed uint64) []byte {
	t.Helper()
	m := trace.NewMetrics()
	prog := apps.Registry[app](apps.Config{Scale: scale, BaseSeed: seed})
	RunFaultTraced(memsys.Default(), NewProtocol(ProtoAEC, 2), prog, m, nil).Must()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMetricsDeterministic pins the repo-wide determinism contract: every
// source of randomness in the applications derives from the per-run
// apps.Config streams, so the same seed produces a byte-identical metrics
// summary run over run.
func TestMetricsDeterministic(t *testing.T) {
	for _, app := range []string{"IS", "Raytrace", "synth"} {
		a := metricsJSON(t, app, 0.05)
		b := metricsJSON(t, app, 0.05)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed produced different metrics JSON (%d vs %d bytes)",
				app, len(a), len(b))
		}
	}
}

// TestBaseSeedPerturbs checks the base-seed knob actually reaches the
// applications: a non-zero Config.BaseSeed must change the random streams
// (and with them the metrics), while the zero value must keep the
// historical per-app constants exactly. IS's key distribution makes the
// stream directly visible in the lock and diff metrics.
func TestBaseSeedPerturbs(t *testing.T) {
	const app = "IS"
	base := metricsJSON(t, app, 0.05)

	perturbed := metricsJSONSeeded(t, app, 0.05, 12345)
	perturbed2 := metricsJSONSeeded(t, app, 0.05, 12345)

	if bytes.Equal(base, perturbed) {
		t.Error("base seed 12345 did not change the IS random stream")
	}
	if !bytes.Equal(perturbed, perturbed2) {
		t.Error("perturbed runs are not deterministic")
	}

	restored := metricsJSON(t, app, 0.05)
	if !bytes.Equal(base, restored) {
		t.Error("zero base seed did not produce the historical stream")
	}
}
