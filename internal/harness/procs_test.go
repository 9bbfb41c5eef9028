package harness

import (
	"fmt"
	"testing"

	"aecdsm/internal/aec"
	"aecdsm/internal/apps"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/tm"
)

// TestProcessorCounts runs the counter program on non-default machine
// sizes: protocols must be correct for any mesh, not just the paper's 4x4.
func TestProcessorCounts(t *testing.T) {
	shapes := []struct{ w, h int }{{1, 1}, {2, 1}, {2, 2}, {4, 2}, {8, 4}}
	for _, sh := range shapes {
		params := memsys.Default()
		params.MeshW, params.MeshH = sh.w, sh.h
		params.NumProcs = sh.w * sh.h
		for _, mk := range []func() proto.Protocol{
			func() proto.Protocol { return aec.New(aec.DefaultOptions()) },
			func() proto.Protocol { return aec.New(aec.Options{UseLAP: false, Ns: 2}) },
			func() proto.Protocol { return tm.New() },
		} {
			pr := mk()
			name := fmt.Sprintf("%dx%d/%s", sh.w, sh.h, pr.Name())
			res := Run(params, pr, apps.NewCounter(3, 32, 4))
			if err := res.Err(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// TestPageSizeVariants exercises the coherence unit at non-default sizes,
// which changes false-sharing patterns drastically.
func TestPageSizeVariants(t *testing.T) {
	for _, ps := range []int{1024, 8192} {
		params := memsys.Default()
		params.PageSize = ps
		for _, mk := range []func() proto.Protocol{
			func() proto.Protocol { return aec.New(aec.DefaultOptions()) },
			func() proto.Protocol { return tm.New() },
		} {
			pr := mk()
			res := Run(params, pr, apps.NewMicroRMW(64, 3))
			if err := res.Err(); err != nil {
				t.Error(err)
			}
		}
	}
}
