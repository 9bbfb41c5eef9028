package sim

import (
	"testing"

	"aecdsm/internal/fault"
)

// TestCrashOutsideMachineIgnored: a crash naming a node the machine does
// not have schedules nothing — a schedule written for a bigger machine
// runs on a smaller one without a stray outage.
func TestCrashOutsideMachineIgnored(t *testing.T) {
	e, _ := testEngine(2)
	e.EnableFaults(fault.Config{Crashes: []fault.Crash{
		{Node: 2, At: 10, Down: 10}, {Node: -1, At: 10, Down: 10},
	}})
	if n := len(e.events); n != 0 {
		t.Fatalf("%d events scheduled for crashes outside a 2-node machine, want 0", n)
	}
}

// TestRestartSweepQueuesBehindService: the failover sweep a restart
// reports occupies the node's service window after the service already
// booked there, and is charged to Recovery on that node.
func TestRestartSweepQueuesBehindService(t *testing.T) {
	e, run := testEngine(2)
	e.OnRestart(func(node int) uint64 { return 300 })
	p := e.Procs[1]
	e.now, p.svcBusyUntil = 100, 1000
	e.restartNode(fault.Crash{Node: 1, At: 50, Down: 50})
	if p.svcBusyUntil != 1300 {
		t.Errorf("service window ends at %d, want 1300: the sweep starts when the booked service ends", p.svcBusyUntil)
	}
	if got := run.Procs[1].FailoverCycles; got != 300 {
		t.Errorf("FailoverCycles = %d, want 300", got)
	}
	if p.stolenRec != 300 {
		t.Errorf("%d recovery cycles stolen from the running node, want 300", p.stolenRec)
	}
}
