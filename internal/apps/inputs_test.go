package apps_test

import (
	"crypto/sha256"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"aecdsm/internal/apps"
	"aecdsm/internal/harness"
	"aecdsm/internal/memsys"
)

// inputDigest hashes everything a generated input holds: fmt prints the
// unexported fields of the structs it reaches, and every float in full.
func inputDigest(v any) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("%v", v)))
}

// TestSharedInputsBuiltOnceNeverWritten runs every table and figure on two
// concurrent engines and checks the two halves of the sharing rule: each
// application's input is built once for the whole driver, and no run
// writes it — every input hashes the same after the last run as it did
// when it was built.
func TestSharedInputsBuiltOnceNeverWritten(t *testing.T) {
	type record struct {
		app   string
		key   any
		v     any
		built [32]byte
		n     int
	}
	var (
		mu   sync.Mutex
		recs []*record
	)
	apps.OnInputBuilt(t, func(app string, key, v any) {
		d := inputDigest(v)
		mu.Lock()
		defer mu.Unlock()
		for _, r := range recs {
			if r.key == key {
				r.n++
				return
			}
		}
		recs = append(recs, &record{app: app, key: key, v: v, built: d, n: 1})
	})

	e := harness.NewExperiments(0.05)
	e.Jobs = 2
	e.All(io.Discard)

	var got []string
	for _, r := range recs {
		got = append(got, r.app)
		if r.n != 1 {
			t.Errorf("%s: input built %d times, want once", r.app, r.n)
		}
		if inputDigest(r.v) != r.built {
			t.Errorf("%s: input changed after it was built: a run wrote it", r.app)
		}
	}
	slices.Sort(got)
	want := slices.Clone(harness.AllApps())
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("inputs built for %v, want one for each of %v", got, want)
	}
}

// TestVerifierCatchesWrongReference checks that each paper application's
// self-check is live: with one element of its reference changed, a correct
// run must fail verification and name the application, and the same run
// against the unchanged reference must pass.
func TestVerifierCatchesWrongReference(t *testing.T) {
	for _, name := range harness.AllApps() {
		t.Run(name, func(t *testing.T) {
			run := func(perturb bool) error {
				prog := apps.Registry[name](apps.Config{Scale: 0.05, Inputs: new(apps.Inputs)})
				if perturb {
					apps.PerturbReference(prog)
				}
				res := harness.Run(memsys.Default(), harness.NewProtocol(harness.ProtoIdeal, 2), prog)
				if res.Deadlocked {
					t.Fatalf("deadlocked (perturbed %v)", perturb)
				}
				if res.VerifyErr != prog.Err() {
					t.Fatalf("Result.VerifyErr %v, program's Err %v", res.VerifyErr, prog.Err())
				}
				return res.VerifyErr
			}
			if err := run(false); err != nil {
				t.Fatalf("unperturbed run failed verification: %v", err)
			}
			err := run(true)
			if err == nil {
				t.Fatal("run against a perturbed reference passed verification")
			}
			if !strings.HasPrefix(err.Error(), name+":") {
				t.Errorf("verification error %q does not name %s", err, name)
			}
			t.Log(err)
		})
	}
}
