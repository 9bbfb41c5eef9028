// Package network models the interconnect of the simulated network of
// workstations: a 2-D mesh with wormhole routing, dimension-order (XY)
// paths, and per-link FIFO contention, using the latency parameters of
// Table 1 of the AEC paper (switch latency, wire latency, 16-bit paths).
//
// When tracing is enabled (see aecdsm/internal/trace and
// docs/OBSERVABILITY.md), every Transfer emits a net-transfer event
// carrying the link-contention wait the message suffered, which is how
// interconnect hot spots show up in the metrics summary.
package network

import (
	"fmt"
	"unsafe"

	"aecdsm/internal/fault"
	"aecdsm/internal/memsys"
	"aecdsm/internal/trace"
)

// Mesh is a W x H wormhole-routed mesh. Node i sits at (i%W, i/W). Links
// are unidirectional; each keeps a next-free time implementing FIFO
// arbitration, so concurrent messages crossing the same link serialize.
type Mesh struct {
	w, h      int
	flitBytes int
	switchCy  uint64
	wireCy    uint64

	// linkFree[l] is the time unidirectional link l becomes free.
	linkFree []uint64

	// Statistics.
	Messages   uint64
	BytesMoved uint64
	HopsTotal  uint64
	WaitCycles uint64
	// DegradedCycles is the extra latency paid inside injected
	// link-degradation windows (zero unless fault injection is on).
	DegradedCycles uint64

	// Tracer emits one KindNetTransfer event per message with the
	// link-contention wait it suffered.
	Tracer trace.Emitter

	// Faults, when non-nil, injects transient link degradation: a
	// degraded (source, destination) pair pays extra cycles per transfer
	// for the length of the window. Nil costs one branch per Transfer,
	// so fault-free runs are unperturbed.
	Faults *fault.Injector
}

// NewMesh builds the mesh described by the parameter set.
func NewMesh(p memsys.Params) *Mesh {
	m := new(Mesh)
	m.Renew(p)
	return m
}

// Renew makes m the mesh NewMesh(p) returns, in place: every link free,
// counters zero, no tracer, no injector. It keeps its link array when that
// holds the new mesh's links, so renewing for a mesh no larger than the
// last allocates nothing.
func (m *Mesh) Renew(p memsys.Params) {
	// Four outgoing directions per node is an upper bound on the number
	// of unidirectional links we index.
	links := p.MeshW * p.MeshH * 4
	free := m.linkFree[:0]
	if cap(free) < links {
		free = make([]uint64, 0, links)
	}
	free = free[:links]
	clear(free)
	*m = Mesh{
		w:         p.MeshW,
		h:         p.MeshH,
		flitBytes: p.NetPathWidthBits / 8,
		switchCy:  p.SwitchCycles,
		wireCy:    p.WireCycles,
		linkFree:  free,
	}
}

// direction codes for link indexing.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

func (m *Mesh) linkIndex(node, dir int) int { return node*4 + dir }

// Hops returns the XY-routing hop count between two nodes.
func (m *Mesh) Hops(from, to int) int {
	fx, fy := from%m.w, from/m.w
	tx, ty := to%m.w, to/m.w
	return abs(fx-tx) + abs(fy-ty)
}

// Flits returns the number of flits needed to carry the given payload.
func (m *Mesh) Flits(bytes int) int {
	if bytes <= 0 {
		return 1 // header flit
	}
	return (bytes + m.flitBytes - 1) / m.flitBytes
}

// Transfer injects a message of the given size at time now and returns the
// time its tail arrives at the destination. Wormhole pipeline: the header
// pays switch+wire per hop; the body streams behind at one flit per wire
// time; each traversed link is reserved for the message's full duration on
// that link, so contending messages queue.
func (m *Mesh) Transfer(now uint64, from, to, bytes int) uint64 {
	m.Messages++
	m.BytesMoved += uint64(bytes)
	if from == to {
		return now
	}
	flits := uint64(m.Flits(bytes))
	bodyCy := (flits - 1) * m.wireCy
	t := now // time the header is ready to enter the next link
	if m.Faults != nil {
		if extra := m.Faults.OnLink(now, from, to); extra > 0 {
			m.DegradedCycles += extra
			t += extra
		}
	}
	// The XY path, walked in place: x first, then y, each link reserved
	// as the header reaches it.
	x, y := from%m.w, from/m.w
	tx, ty := to%m.w, to/m.w
	var hops, waited uint64
	for ; x != tx || y != ty; hops++ {
		node, dir := y*m.w+x, dirEast
		switch {
		case x < tx:
			x++
		case x > tx:
			dir, x = dirWest, x-1
		case y < ty:
			dir, y = dirSouth, y+1
		default:
			dir, y = dirNorth, y-1
		}
		l := m.linkIndex(node, dir)
		start := t
		if m.linkFree[l] > start {
			waited += m.linkFree[l] - start
			start = m.linkFree[l]
		}
		// Header crosses the switch and wire of this hop.
		t = start + m.switchCy + m.wireCy
		// The link is held until the tail flit has crossed it.
		m.linkFree[l] = t + bodyCy
	}
	m.HopsTotal += hops
	m.WaitCycles += waited
	m.Tracer.Event(now, from, trace.KindNetTransfer, int64(to), int64(waited))
	// Tail arrival: header arrival plus the pipelined body.
	return t + bodyCy
}

// Latency returns the uncontended latency for a message of the given size
// between two nodes; it does not reserve links.
func (m *Mesh) Latency(from, to, bytes int) uint64 {
	if from == to {
		return 0
	}
	hops := uint64(m.Hops(from, to))
	flits := uint64(m.Flits(bytes))
	return hops*(m.switchCy+m.wireCy) + (flits-1)*m.wireCy
}

// Size reports the number of nodes.
func (m *Mesh) Size() int { return m.w * m.h }

// Bytes is the memory the mesh keeps: itself and its link array.
func (m *Mesh) Bytes() int { return int(unsafe.Sizeof(*m)) + 8*cap(m.linkFree) }

func (m *Mesh) String() string {
	return fmt.Sprintf("mesh %dx%d, %d-byte flits, switch %dcy, wire %dcy",
		m.w, m.h, m.flitBytes, m.switchCy, m.wireCy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
