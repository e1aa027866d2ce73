package router

import (
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
	"alpha21364/internal/vc"
)

// move is one candidate (output port, downstream channel) for a packet,
// together with the connection-matrix row (read port) that reaches the
// output. Local moves (to a processor-facing port) carry targetCh 0.
type move struct {
	out      ports.Out
	row      uint8
	targetCh vc.Channel
}

// local reports whether the move drains to a processor-facing port.
func (m move) local() bool { return m.out.IsLocal() }

// candidates is a packet's static routing choice at this router, fixed
// when the packet enters: m[:nPrimary] is the preference group (the local
// port, or the minimal-rectangle adaptive moves) and m[nPrimary:n] the
// dimension-order escape, tried only when no preferred move is ready —
// always, for an I/O packet, whose group is empty. Moves the crossbar
// cannot make are left out.
type candidates struct {
	m        [3]move
	nPrimary uint8
	n        uint8
	outs     ports.OutMask // the output ports of m[:n]
}

func (c *candidates) add(row int8, out ports.Out, targetCh vc.Channel) {
	if row < 0 {
		return
	}
	c.m[c.n] = move{out: out, row: uint8(row), targetCh: targetCh}
	c.n++
	c.outs = c.outs.With(out)
}

// routeEntry is the precomputed static routing decision toward one
// destination: the minimal-rectangle productive directions and the
// dimension-order escape hop with its dateline sub-channel.
type routeEntry struct {
	dirs   [2]topology.Dir
	nDirs  uint8
	dor    topology.Dir
	dorSub vc.Sub
	dorOK  bool
}

// rowFor returns the read-port row of input in that the crossbar connects
// to out, or -1 if neither read port reaches it.
func rowFor(conn ports.ConnectionMatrix, in ports.In, out ports.Out) int8 {
	for rp := 0; rp < 2; rp++ {
		if conn.Connected(ports.Row(in, rp), out) {
			return int8(ports.Row(in, rp))
		}
	}
	return -1
}

// localOut picks the processor-facing output port for a packet addressed
// to this node. I/O packets use the I/O port; everything else drains
// through the two memory-controller ports (which are also the path to the
// internal cache, §2.1), interleaved by packet ID as a stand-in for
// address interleaving across the two Rambus controllers.
func localOut(p *packet.Packet) ports.Out {
	if p.Class.IsIO() {
		return ports.OutIO
	}
	if p.ID%2 == 0 {
		return ports.OutMC0
	}
	return ports.OutMC1
}

// candidatesFor computes a packet's static moves from input port in:
//
//   - a packet addressed to this node uses its local output port;
//   - otherwise the adaptive channel offers up to two minimal-rectangle
//     directions (packets route adaptively until blocked, §2.1);
//   - when no adaptive move is ready (blocked: port busy or no buffer), the
//     packet may escape into the deadlock-free channels, taking the strict
//     dimension-order hop with VC0/VC1 chosen by the dateline rule;
//   - I/O-class packets route only in the deadlock-free channels (§2.1
//     footnote);
//   - the special class has a single channel and no escape: a blocked
//     special packet waits for its minimal moves.
func (r *Router) candidatesFor(p *packet.Packet, in ports.In) candidates {
	var c candidates
	rows := &r.rows[in]
	if p.Dst == r.node {
		out := localOut(p)
		c.add(rows[out], out, 0)
		c.nPrimary = c.n
		return c
	}
	cls := p.Class
	route := &r.routes[p.Dst]
	if !cls.IsIO() {
		adaptiveCh := vc.Of(cls, vc.Adaptive)
		for _, d := range route.dirs[:route.nDirs] {
			out := ports.OutForDir(d)
			c.add(rows[out], out, adaptiveCh)
		}
	}
	c.nPrimary = c.n
	if route.dorOK && cls != packet.Special {
		out := ports.OutForDir(route.dor)
		c.add(rows[out], out, vc.Of(cls, route.dorSub))
	}
	return c
}

// refreshReady recomputes the per-output ready words for a grant at
// gaTick: ready[out] has bit ch set when the port will be free and (for a
// network port) its downstream channel ch has a free packet buffer; a free
// local port sets bit 0. Nothing a scan reads changes between arbitration
// starts, so one refresh per LA issue or wave build serves every input.
func (r *Router) refreshReady(gaTick sim.Ticks) {
	r.readyOuts = 0
	for out := range r.outputs {
		var w uint32
		if r.outputs[out].freeForGrant(gaTick, r.postArbTicks) {
			if ports.Out(out).IsLocal() {
				w = 1
			} else {
				w = r.credits[out].Mask()
			}
		}
		r.ready[out] = w
		if w != 0 {
			r.readyOuts = r.readyOuts.With(ports.Out(out))
		}
	}
}

func (r *Router) isReady(m move) bool { return r.ready[m.out]>>m.targetCh&1 != 0 }

// readyMoves writes the packet's ready moves into dst in routing-preference
// order and returns how many there are: the ready preferred moves — the
// preference between two productive directions rotating per input port so
// traffic spreads over both minimal-rectangle sides — or, when none is
// ready, the ready escape.
func (r *Router) readyMoves(e *pkEntry, dst *[3]move) int {
	c := &e.cand
	n := 0
	pref := c.m
	if c.nPrimary == 2 && r.dirPref[e.in]&1 == 1 {
		pref[0], pref[1] = pref[1], pref[0]
	}
	for _, m := range pref[:c.nPrimary] {
		if r.isReady(m) {
			dst[n] = m
			n++
		}
	}
	if n > 0 {
		return n
	}
	for _, m := range c.m[c.nPrimary:c.n] {
		if r.isReady(m) {
			dst[n] = m
			n++
		}
	}
	return n
}
