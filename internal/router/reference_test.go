package router

import (
	"math/bits"
	"slices"

	"alpha21364/internal/core"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
	"alpha21364/internal/vc"
)

// reference_test.go keeps the scalar LA-stage scans the router ran before
// its mask-driven form, as differential references: they walk all 19
// channels of every input (in LRU order for SPAA) and every picker-window
// packet, and re-derive every packet's moves from the routing table, the
// crossbar and the output ports on each scan. The differential tests run
// them on a clone of the router's state next to the production issue
// stage and require identical decisions and identical resulting state.

// refClone copies the state the LA stage reads or writes, including the
// last wave's matrix, so a reference issue can run beside the production
// one. Queues share their ring storage: the LA stage never pushes or
// removes.
func (r *Router) refClone() *Router {
	c := *r
	c.slab.e = slices.Clone(r.slab.e)
	c.slab.free = nil
	c.noms = slices.Clone(r.noms)
	if r.matrix != nil {
		c.matrix = core.NewRouterMatrix()
		for row := 0; row < ports.NumRows; row++ {
			for w := r.matrix.RowMask(row); w != 0; w &= w - 1 {
				col := bits.TrailingZeros64(w)
				cell := r.matrix.At(row, col)
				c.matrix.Set(row, col, cell.Age, cell.Key, cell.Payload)
			}
		}
	}
	c.oracle, c.metrics, c.flight = nil, nil, nil
	return &c
}

// refIssue is the reference LA half of a cycle.
func (r *Router) refIssue(now sim.Ticks) {
	if r.cfg.isWave() {
		if now < r.nextWaveAt || r.waveActive {
			return
		}
		r.nextWaveAt = now + sim.Ticks(r.cfg.InitInterval)*r.cfg.RouterPeriod
		if r.refBuildWave(now) {
			r.waveActive = true
			r.waveResolveAt = now + r.waveGaOffset
		}
		return
	}
	if now < r.nextLA {
		return
	}
	r.nextLA = now + sim.Ticks(r.cfg.InitInterval)*r.cfg.RouterPeriod
	gaTick := now + r.gaOffset
	for in := ports.In(0); in < ports.NumIn; in++ {
		pk, mv, ok := r.refFindNomination(in, now, gaTick)
		if !ok {
			continue
		}
		r.slab.e[pk].flags |= pkNominated
		r.dirPref[in]++
		r.noms = append(r.noms, nomination{pk: pk, mv: mv, resolveAt: gaTick})
		r.Counters.Nominations++
	}
}

// refFindNomination is the scalar input-port arbiter.
func (r *Router) refFindNomination(in ports.In, now, gaTick sim.Ticks) (int32, move, bool) {
	s := &r.slab
	var moves []move
	for _, ch := range r.lru[in] {
		q := &r.queues[in][ch]
		if q.Len() == 0 {
			continue
		}
		limit := q.Len()
		if limit > r.cfg.Window {
			limit = r.cfg.Window
		}
		best := int32(-1)
		var bestMove move
		for i := 0; i < limit; i++ {
			pk := q.At(i)
			r.markOld(pk, now)
			e := &s.e[pk]
			if e.flags&pkNominated != 0 || r.eligibleAt(e) > now {
				continue
			}
			if r.draining && e.flags&pkOld == 0 {
				continue
			}
			if best >= 0 && !olderThan(e, &s.e[best]) {
				continue
			}
			moves = r.refReadyMoves(pk, gaTick, moves[:0])
			if len(moves) == 0 {
				continue
			}
			best, bestMove = pk, moves[0]
		}
		if best >= 0 {
			return best, bestMove, true
		}
	}
	return -1, move{}, false
}

// refBuildWave is the scalar wave build.
func (r *Router) refBuildWave(now sim.Ticks) bool {
	r.matrix.Reset()
	gaTick := now + r.waveGaOffset
	any := false
	s := &r.slab
	var moves []move
	for in := ports.In(0); in < ports.NumIn; in++ {
		for ch := vc.Channel(0); ch < vc.NumChannels; ch++ {
			q := &r.queues[in][ch]
			limit := q.Len()
			if limit > r.cfg.Window {
				limit = r.cfg.Window
			}
			for i := 0; i < limit; i++ {
				pk := q.At(i)
				r.markOld(pk, now)
				e := &s.e[pk]
				if e.flags&pkNominated != 0 || r.eligibleAt(e) > now {
					continue
				}
				if r.draining && e.flags&pkOld == 0 {
					continue
				}
				moves = r.refReadyMoves(pk, gaTick, moves[:0])
				if len(moves) == 0 {
					continue
				}
				row := assignRow(in, moves, e.pkt.ID)
				for _, mv := range moves {
					if int(mv.row) != row {
						continue
					}
					cell := r.matrix.At(row, int(mv.out))
					age := int64(e.headerArrive)
					if cell.Valid && !(age < cell.Age || (age == cell.Age && e.pkt.ID < cell.Key)) {
						continue
					}
					r.matrix.Set(row, int(mv.out), age, e.pkt.ID, 0)
					r.waveCells[row][mv.out] = waveCell{pk: pk, targetCh: mv.targetCh}
					any = true
				}
			}
		}
	}
	if !any {
		return false
	}
	for row := 0; row < ports.NumRows; row++ {
		for w := r.matrix.RowMask(row); w != 0; w &= w - 1 {
			s.e[r.waveCells[row][bits.TrailingZeros64(w)].pk].flags |= pkNominated
			r.Counters.Nominations++
		}
	}
	return true
}

// refRowFor returns the read-port row of input in that the crossbar
// connects to out, or -1 if neither read port reaches it.
func (r *Router) refRowFor(in ports.In, out ports.Out) int {
	if r.cfg.Conn.Connected(ports.Row(in, 0), out) {
		return ports.Row(in, 0)
	}
	if r.cfg.Conn.Connected(ports.Row(in, 1), out) {
		return ports.Row(in, 1)
	}
	return -1
}

// refReadyMoves appends the packet's ready moves at gaTick in
// routing-preference order.
func (r *Router) refReadyMoves(pk int32, gaTick sim.Ticks, dst []move) []move {
	e := &r.slab.e[pk]
	p, in := e.pkt, e.in
	if p.Dst == r.node {
		out := localOut(p)
		row := r.refRowFor(in, out)
		if row >= 0 && r.outputs[out].freeForGrant(gaTick, r.postArbTicks) {
			dst = append(dst, move{out: out, row: uint8(row)})
		}
		return dst
	}
	cls := p.Class
	route := &r.routes[p.Dst]
	if !cls.IsIO() {
		adaptiveCh := vc.Of(cls, vc.Adaptive)
		dirs := route.dirs
		if route.nDirs == 2 && r.dirPref[in]&1 == 1 {
			dirs[0], dirs[1] = dirs[1], dirs[0]
		}
		for _, d := range dirs[:route.nDirs] {
			if m, ok := r.refNetworkMove(in, d, adaptiveCh, gaTick); ok {
				dst = append(dst, m)
			}
		}
		if len(dst) > 0 {
			return dst
		}
	}
	// The special class has a single channel: no deadlock-free escape.
	if !route.dorOK || cls == packet.Special {
		return dst
	}
	if m, ok := r.refNetworkMove(in, route.dor, vc.Of(cls, route.dorSub), gaTick); ok {
		dst = append(dst, m)
	}
	return dst
}

func (r *Router) refNetworkMove(in ports.In, d topology.Dir, targetCh vc.Channel, gaTick sim.Ticks) (move, bool) {
	out := ports.OutForDir(d)
	row := r.refRowFor(in, out)
	if row < 0 {
		return move{}, false
	}
	op := &r.outputs[out]
	if !op.freeForGrant(gaTick, r.postArbTicks) {
		return move{}, false
	}
	if op.credits == nil || !op.credits.Available(targetCh) {
		return move{}, false
	}
	return move{out: out, row: uint8(row), targetCh: targetCh}, true
}
