package router

import (
	"fmt"
	"math/bits"

	"alpha21364/internal/core"
	"alpha21364/internal/obs"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/topology"
	"alpha21364/internal/vc"
)

// Counters exposes router-level event counts for statistics and tests.
type Counters struct {
	Injected    int64 // packets accepted at local input ports
	Arrived     int64 // packets accepted from network links
	Nominations int64 // LA-stage nominations issued
	Grants      int64 // GA-stage grants (dispatches)
	Collisions  int64 // nominations reset without a grant
	// WastedSpecReads counts SPAA's speculative buffer reads that were
	// discarded because the output arbiter picked another packet (§3.3).
	WastedSpecReads int64
	DrainEntries    int64 // times the anti-starvation drain engaged
	DeliveredLocal  int64 // packets consumed by this node's local ports
}

// nomination is one SPAA in-flight nomination traveling LA -> RE -> GA.
// pk is a slab handle.
type nomination struct {
	pk        int32
	mv        move
	resolveAt sim.Ticks
}

// waveCell carries the packet and downstream channel behind one
// wave-matrix cell; pk is a slab handle, -1 when the cell is empty, and
// pos its queue position.
type waveCell struct {
	pk       int32
	targetCh vc.Channel
	pos      uint8
}

// Router is one cycle-accurate 21364 router. Drive it by attaching it to a
// sim.Engine clock domain with the router's clock period.
type Router struct {
	cfg   Config
	node  topology.Node
	torus topology.Torus
	rng   *sim.RNG

	// Packet state lives in a slab of entries; the per-(input port,
	// channel) queues are fixed-capacity index rings over it, and the
	// remaining per-input-port state is flattened into router-level
	// arrays so arbitration scans walk contiguous memory.
	slab   pkSlab
	queues [ports.NumIn][vc.NumChannels]vc.Ring
	// lru[in] is the least-recently-selected ordering over virtual
	// channels: the front (rank 0) is the channel selected longest ago,
	// and rank[in][ch] is ch's position in it. The 21364's input arbiter
	// "selects the oldest packet ... from the least-recently selected
	// virtual channel" (§3).
	lru  [ports.NumIn][vc.NumChannels]vc.Channel
	rank [ports.NumIn][vc.NumChannels]uint8
	// busyCh[in] has bit ch set when queue (in, ch) is non-empty;
	// busyRank[in] is the same set indexed by LRU rank, so its set bits
	// in ascending order are the non-empty channels least recently
	// selected first.
	busyCh   [ports.NumIn]uint32
	busyRank [ports.NumIn]uint32
	// win[in][ch] indexes queue (in, ch)'s picker window (see window.go).
	win [ports.NumIn][vc.NumChannels]window
	// feeders hold the injection credits for local ports (the processor's
	// view of the buffer's free space); nil for network inputs, whose
	// credits live at the upstream router's output port.
	feeders [ports.NumIn]*vc.Credits

	outputs [ports.NumOut]outputPort
	// held is the number of packets buffered at the router.
	held int

	// SPAA pipeline state.
	policy  core.SelectPolicy
	noms    []nomination // FIFO ordered by resolveAt
	dirPref [ports.NumIn]uint8
	nextLA  sim.Ticks

	// Wave (PIM1/WFA) pipeline state.
	arb           core.Arbiter
	matrix        *core.Matrix
	waveCells     [ports.NumRows][ports.NumOut]waveCell
	waveActive    bool
	waveResolveAt sim.Ticks
	nextWaveAt    sim.Ticks

	// Anti-starvation drain (§3.4).
	oldCount int
	draining bool

	// routes[dst] caches the static routing decision toward every node:
	// productive directions, the dimension-order escape hop, and its
	// dateline sub-channel. rows[in][out] is the read-port row of in that
	// the crossbar connects to out, or -1. candidatesFor turns both into a
	// packet's static moves once, when it enters the router.
	routes []routeEntry
	rows   [ports.NumIn][ports.NumOut]int8

	// ready[out] is the output's ready word for the arbitration in
	// progress (see refreshReady); readyOuts has bit out set when
	// ready[out] is non-zero.
	ready     [ports.NumOut]uint32
	readyOuts ports.OutMask
	// oldAt is a lower bound on the tick at which any non-old packet in a
	// picker window turns old: until then every anti-starvation aging
	// check is a no-op and the scans skip it.
	oldAt sim.Ticks

	// Derived tick quantities.
	postArbTicks sim.Ticks
	preArbLocal  sim.Ticks // Inject -> LA eligibility
	preArbNet    sim.Ticks // Arrive -> LA eligibility
	gaOffset     sim.Ticks // LA -> GA latency in ticks (SPAA nominations)
	// waveGaOffset is the build -> grant latency for PIM1/WFA waves: the
	// grant decision lands at the initiation interval (matrix operations),
	// and any remaining arbitration cycles are pipelined wire delay to the
	// output ports (paper §3.1-3.2). Waves therefore never overlap.
	waveGaOffset sim.Ticks
	ageTicks     sim.Ticks

	Counters Counters

	// oracle, when non-nil, observes every arbitration decision for
	// online invariant checking; oracleGrants is its reused record buffer.
	oracle       Oracle
	oracleGrants []SPAAGrant

	// metrics and flight, when non-nil, receive telemetry (see metrics.go).
	metrics *obs.RouterMetrics
	flight  *obs.FlightRing

	// scratch
	gaRows []int
	gaNet  []bool
	gaIdx  []int
}

// New builds a router for the given node of the torus.
func New(cfg Config, node topology.Node, torus topology.Torus) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Router{
		cfg:          cfg,
		node:         node,
		torus:        torus,
		rng:          sim.NewRNG(cfg.Seed ^ (uint64(node)+1)*0x9e3779b97f4a7c15),
		postArbTicks: sim.Ticks(cfg.PostArb) * cfg.RouterPeriod,
		preArbLocal:  sim.Ticks(cfg.PreArbLocal) * cfg.RouterPeriod,
		preArbNet:    sim.Ticks(cfg.PreArbNetwork) * cfg.RouterPeriod,
		gaOffset:     sim.Ticks(cfg.ArbCycles-1) * cfg.RouterPeriod,
		ageTicks:     sim.Ticks(cfg.AntiStarvationAge) * cfg.RouterPeriod,
	}
	waveGa := cfg.ArbCycles - 1
	if cfg.InitInterval < waveGa {
		waveGa = cfg.InitInterval
	}
	r.waveGaOffset = sim.Ticks(waveGa) * cfg.RouterPeriod
	for in := ports.In(0); in < ports.NumIn; in++ {
		initQueues(&r.queues[in], cfg.Buffers)
		for ch := vc.Channel(0); ch < vc.NumChannels; ch++ {
			r.lru[in][ch] = ch
			r.rank[in][ch] = uint8(ch)
		}
		for out := ports.Out(0); out < ports.NumOut; out++ {
			r.rows[in][out] = rowFor(cfg.Conn, in, out)
		}
		if !in.IsNetwork() {
			r.feeders[in] = vc.NewCredits(cfg.Buffers)
		}
	}
	for row := range r.waveCells {
		for col := range r.waveCells[row] {
			r.waveCells[row][col].pk = -1
		}
	}
	r.oldAt = maxTicks
	r.routes = make([]routeEntry, torus.Nodes())
	for dst := 0; dst < torus.Nodes(); dst++ {
		e := &r.routes[dst]
		var n int
		e.dirs, n = torus.ProductiveDirsFixed(node, topology.Node(dst))
		e.nDirs = uint8(n)
		if d, ok := torus.DORDir(node, topology.Node(dst)); ok {
			e.dorOK, e.dor = true, d
			e.dorSub = vc.VC0
			if torus.WrapsAhead(node, topology.Node(dst), d) {
				e.dorSub = vc.VC1
			}
		}
	}
	switch cfg.Kind {
	case core.KindSPAABase, core.KindSPAARotary:
		if cfg.GrantPolicyFactory != nil {
			r.policy = cfg.GrantPolicyFactory(ports.NumRows, int(ports.NumOut))
		} else {
			r.policy = core.NewLRSPolicy(ports.NumRows, int(ports.NumOut),
				cfg.Kind == core.KindSPAARotary)
		}
	default:
		r.arb = core.New(cfg.Kind, r.rng.Split())
		r.matrix = core.NewRouterMatrix()
	}
	return r, nil
}

// Node returns the router's torus position.
func (r *Router) Node() topology.Node { return r.node }

// Config returns the router's configuration.
func (r *Router) Config() Config { return r.cfg }

// ConnectNetwork wires a torus output port: send is invoked on dispatch,
// and downstream describes the neighbor input buffer the port holds
// credits for.
func (r *Router) ConnectNetwork(out ports.Out, send SendFunc) {
	if !out.IsNetwork() {
		panic(fmt.Sprintf("router: %v is not a network port", out))
	}
	r.outputs[out].send = send
	r.outputs[out].credits = vc.NewCredits(r.cfg.Buffers)
}

// ConnectLocal wires a processor-facing output port to its sink.
func (r *Router) ConnectLocal(out ports.Out, deliver DeliverFunc) {
	if out.IsNetwork() {
		panic(fmt.Sprintf("router: %v is not a local port", out))
	}
	r.outputs[out].deliver = deliver
}

// injectionChannel returns the virtual channel a newly injected packet
// enters: the adaptive channel of its class, except I/O packets, which
// live in the deadlock-free channels only.
func (r *Router) injectionChannel(p *packet.Packet) vc.Channel {
	if !p.Class.IsIO() {
		return vc.Of(p.Class, vc.Adaptive)
	}
	sub := vc.VC0
	if route := &r.routes[p.Dst]; route.dorOK {
		sub = route.dorSub
	}
	return vc.Of(p.Class, sub)
}

// addPacket checks a packet into the slab and its queue, computing its
// static candidate moves once.
func (r *Router) addPacket(p *packet.Packet, in ports.In, ch vc.Channel,
	headerArrive sim.Ticks, flags uint8, upstream *vc.Credits) {
	idx := r.slab.alloc()
	e := &r.slab.e[idx]
	*e = pkEntry{
		pkt:          p,
		upstream:     upstream,
		headerArrive: headerArrive,
		cand:         r.candidatesFor(p, in),
		ch:           ch,
		in:           in,
		flags:        flags,
	}
	q := &r.queues[in][ch]
	q.Push(idx)
	r.held++
	if q.Len() == 1 {
		r.busyCh[in] |= 1 << ch
		r.busyRank[in] |= 1 << r.rank[in][ch]
	}
	if q.Len() <= r.cfg.Window {
		r.enterWindow(&r.win[in][ch], e)
	}
	if m := r.metrics; m != nil {
		m.QueueDelta(in, ch, +1, headerArrive)
	}
}

// eligibleAt is the earliest tick a buffered packet takes part in LA
// (after its pin-to-LA pipeline stages).
func (r *Router) eligibleAt(e *pkEntry) sim.Ticks {
	if e.flags&pkInjected != 0 {
		return e.headerArrive + r.preArbLocal
	}
	return e.headerArrive + r.preArbNet
}

// tailArrive is when a buffered packet's last flit has fully arrived:
// injected flits stream in at the router clock, network flits at the
// link clock.
func (r *Router) tailArrive(e *pkEntry) sim.Ticks {
	period := r.cfg.LinkPeriod
	if e.flags&pkInjected != 0 {
		period = r.cfg.RouterPeriod
	}
	return e.headerArrive + sim.Ticks(e.pkt.Flits-1)*period
}

// Inject offers a packet to a local input port at time now. It returns
// false when the port's buffer has no space in the packet's channel; the
// caller (the processor model) must retry later — this backpressure is the
// throttling path the Rotary Rule exploits.
func (r *Router) Inject(p *packet.Packet, in ports.In, now sim.Ticks) bool {
	if in.IsNetwork() {
		panic(fmt.Sprintf("router: cannot inject on network port %v", in))
	}
	feeder := r.feeders[in]
	ch := r.injectionChannel(p)
	if !feeder.Available(ch) {
		return false
	}
	feeder.Reserve(ch)
	r.addPacket(p, in, ch, now, pkInjected, feeder)
	r.Counters.Injected++
	if f := r.flight; f != nil {
		f.Record(now, obs.FlightInject, p.ID, in, ch, ports.NumOut)
	}
	return true
}

// InjectionSpace returns the free packet-buffer count a new packet of
// class cl would see at local input port in (the processor's backpressure
// signal).
func (r *Router) InjectionSpace(in ports.In, cl packet.Class, dst topology.Node) int {
	if in.IsNetwork() {
		panic(fmt.Sprintf("router: %v is not a local port", in))
	}
	p := packet.Packet{Class: cl, Dst: dst}
	return r.feeders[in].Free(r.injectionChannel(&p))
}

// OutputCredits exposes a network output port's downstream credit pool;
// used by the network wiring and by tests that exercise backpressure.
func (r *Router) OutputCredits(out ports.Out) *vc.Credits {
	if !out.IsNetwork() {
		panic(fmt.Sprintf("router: %v has no credits", out))
	}
	return r.outputs[out].credits
}

// Arrive accepts a packet from an inter-router link. The upstream output
// port reserved a credit for targetCh before sending, so buffer space is
// guaranteed; creditHome is that port's credit pool, released when the
// packet leaves this router.
func (r *Router) Arrive(p *packet.Packet, in ports.In, targetCh vc.Channel,
	headerArrive sim.Ticks, creditHome *vc.Credits) {
	if r.queues[in][targetCh].Len() >= r.cfg.Buffers.Capacity(targetCh) {
		panic(fmt.Sprintf("router %d: buffer overflow on %v/%v — credit accounting broken",
			r.node, in, targetCh))
	}
	r.addPacket(p, in, targetCh, headerArrive, 0, creditHome)
	r.Counters.Arrived++
	if f := r.flight; f != nil {
		f.Record(headerArrive, obs.FlightArrive, p.ID, in, targetCh, ports.NumOut)
	}
}

// Buffered returns the number of packets buffered at the router.
func (r *Router) Buffered() int { return r.held }

// Draining reports whether the anti-starvation drain is active.
func (r *Router) Draining() bool { return r.draining }

// Tick advances the router one clock cycle: GA resolution first (grants
// commit, losers reset), then LA issue (new nominations or a new wave).
func (r *Router) Tick(now sim.Ticks) {
	r.resolve(now)
	r.issue(now)
}

// resolve is the GA half of a cycle: it commits the SPAA nominations or
// the wave due now.
func (r *Router) resolve(now sim.Ticks) {
	if r.cfg.isWave() {
		if r.waveActive && now >= r.waveResolveAt {
			r.resolveWave(now)
		}
		return
	}
	due := 0
	for due < len(r.noms) && r.noms[due].resolveAt <= now {
		due++
	}
	if due > 0 {
		r.resolveSPAA(r.noms[:due], now)
		r.noms = r.noms[:copy(r.noms, r.noms[due:])]
	}
}

// issue is the LA half of a cycle: SPAA's nominations, one per input port
// per initiation interval, or a PIM1/WFA wave on the wave cadence.
func (r *Router) issue(now sim.Ticks) {
	if r.cfg.isWave() {
		if now < r.nextWaveAt || r.waveActive {
			return
		}
		// Waves restart on their fixed cadence whether or not the previous
		// one found work (the paper: "a new arbitration can be started
		// every three cycles").
		r.nextWaveAt = now + sim.Ticks(r.cfg.InitInterval)*r.cfg.RouterPeriod
		if r.buildWave(now) {
			r.waveActive = true
			r.waveResolveAt = now + r.waveGaOffset
		}
		return
	}
	if now < r.nextLA {
		return
	}
	r.nextLA = now + sim.Ticks(r.cfg.InitInterval)*r.cfg.RouterPeriod
	if r.held == 0 {
		return
	}
	gaTick := now + r.gaOffset
	r.refreshReady(gaTick)
	if r.readyOuts == 0 && now < r.oldAt {
		// No move can be ready and no packet can age: every scan would
		// come up empty.
		return
	}
	for in := ports.In(0); in < ports.NumIn; in++ {
		pk, pos, mv, ok := r.findNomination(in, now)
		if !ok {
			continue
		}
		e := &r.slab.e[pk]
		e.flags |= pkNominated
		r.win[in][e.ch].nom |= 1 << pos
		r.dirPref[in]++
		r.noms = append(r.noms, nomination{pk: pk, mv: mv, resolveAt: gaTick})
		r.Counters.Nominations++
		if f := r.flight; f != nil {
			f.Record(now, obs.FlightNominate, e.pkt.ID, in, e.ch, mv.out)
		}
		if r.oracle != nil {
			r.oracle.SPAANominate(r, now, SPAAGrant{
				ID: e.pkt.ID, Row: int(mv.row), In: in, Ch: e.ch,
				Out: mv.out, TargetCh: mv.targetCh, Local: mv.local(),
			}, gaTick)
		}
	}
	r.settleOldAt(now)
}

// ---- SPAA pipeline ----

// findNomination implements the 21364 input port arbiter: the oldest
// packet satisfying the basic constraints from the least-recently selected
// virtual channel (§3). It walks only the non-empty channels, in LRU rank
// order, skips windows that want no ready output, and visits only the
// unlocked window positions, testing their moves against the ready words.
// It returns the packet's queue position with it.
func (r *Router) findNomination(in ports.In, now sim.Ticks) (int32, int, move, bool) {
	var mv [3]move
	for w := r.busyRank[in]; w != 0; w &= w - 1 {
		ch := r.lru[in][bits.TrailingZeros32(w)]
		q := &r.queues[in][ch]
		win := &r.win[in][ch]
		limit := min(q.Len(), r.cfg.Window)
		drainFrom := r.ageWindow(q, limit, now)
		if win.want&r.readyOuts == 0 {
			continue
		}
		best, bestPos := int32(-1), 0
		var bestE *pkEntry
		var bestMove move
		for c := win.open(limit); c != 0; c &= c - 1 {
			i := bits.TrailingZeros32(c)
			pk := q.At(i)
			e := &r.slab.e[pk]
			if !r.eligible(e, i >= drainFrom, now) || (bestE != nil && !olderThan(e, bestE)) {
				continue
			}
			if r.readyMoves(e, &mv) == 0 {
				continue
			}
			best, bestPos, bestE, bestMove = pk, i, e, mv[0]
		}
		if best >= 0 {
			return best, bestPos, bestMove, true
		}
	}
	return -1, 0, move{}, false
}

// eligible reports whether an unlocked window packet takes part in LA
// now: past its pre-arbitration stages and, where the drain filter
// covers it, old.
func (r *Router) eligible(e *pkEntry, drain bool, now sim.Ticks) bool {
	return r.eligibleAt(e) <= now && (!drain || e.flags&pkOld != 0)
}

// olderThan orders two buffered packets by arrival, then packet ID.
func olderThan(a, b *pkEntry) bool {
	if a.headerArrive != b.headerArrive {
		return a.headerArrive < b.headerArrive
	}
	return a.pkt.ID < b.pkt.ID
}

// resolveSPAA is the GA stage: for each output port with due nominations,
// the grant policy picks a winner among still-valid requests; the rest are
// reset for re-nomination (SPAA step 3).
func (r *Router) resolveSPAA(due []nomination, now sim.Ticks) {
	if r.oracle != nil {
		r.oracleGrants = r.oracleGrants[:0]
	}
	for out := ports.Out(0); out < ports.NumOut; out++ {
		r.gaRows = r.gaRows[:0]
		r.gaNet = r.gaNet[:0]
		r.gaIdx = r.gaIdx[:0]
		op := &r.outputs[out]
		for i := range due {
			n := &due[i]
			if n.mv.out != out {
				continue
			}
			valid := op.freeForGrant(now, r.postArbTicks) &&
				(n.mv.local() || (op.credits != nil && op.credits.Available(n.mv.targetCh)))
			if !valid {
				if m := r.metrics; m != nil {
					if !op.freeForGrant(now, r.postArbTicks) {
						m.Stalls++
					} else {
						m.CreditWaits++
					}
					m.Arb.NomFailures++
				}
				r.reset(n.pk, now)
				n.pk = -1
				continue
			}
			r.gaRows = append(r.gaRows, int(n.mv.row))
			r.gaNet = append(r.gaNet, r.slab.e[n.pk].in.IsNetwork())
			r.gaIdx = append(r.gaIdx, i)
		}
		if len(r.gaRows) == 0 {
			continue
		}
		w := r.policy.Select(int(out), r.gaRows, r.gaNet)
		for k, idx := range r.gaIdx {
			n := &due[idx]
			if k == w {
				if r.oracle != nil {
					e := &r.slab.e[n.pk]
					r.oracleGrants = append(r.oracleGrants, SPAAGrant{
						ID: e.pkt.ID, Row: int(n.mv.row), In: e.in, Ch: e.ch,
						Out: n.mv.out, TargetCh: n.mv.targetCh, Local: n.mv.local(),
					})
				}
				r.dispatch(n.pk, n.mv.out, n.mv.targetCh, now)
			} else {
				r.reset(n.pk, now)
				r.Counters.WastedSpecReads++
			}
			n.pk = -1
		}
	}
	// Any nominations left unprocessed would be a bookkeeping bug.
	for i := range due {
		if due[i].pk >= 0 {
			panic("router: unresolved nomination")
		}
	}
	if r.oracle != nil {
		r.oracle.SPAAResolve(r, now, r.oracleGrants)
	}
}

func (r *Router) reset(pk int32, now sim.Ticks) {
	e := &r.slab.e[pk]
	e.flags &^= pkNominated
	r.win[e.in][e.ch].nom &^= 1 << r.queues[e.in][e.ch].Index(pk)
	r.Counters.Collisions++
	if f := r.flight; f != nil {
		f.Record(now, obs.FlightReset, e.pkt.ID, e.in, e.ch, ports.NumOut)
	}
}

// ---- PIM1/WFA wave pipeline ----

// buildWave loads the connection matrix: for every read-port row and every
// reachable column, the oldest eligible packet that can move there this
// wave. Each packet is assigned to a single read port (the pair
// synchronizes), and all nominated packets are locked until the wave
// resolves — the bookkeeping cost the paper cites for PIM1/WFA (up to 54
// in-flight nominations versus SPAA's 16).
func (r *Router) buildWave(now sim.Ticks) bool {
	r.matrix.Reset()
	if r.held == 0 {
		return false
	}
	r.refreshReady(now + r.waveGaOffset)
	if r.readyOuts == 0 && now < r.oldAt {
		return false
	}
	any := false
	var mv [3]move
	for in := ports.In(0); in < ports.NumIn; in++ {
		for w := r.busyCh[in]; w != 0; w &= w - 1 {
			ch := bits.TrailingZeros32(w)
			q := &r.queues[in][ch]
			win := &r.win[in][ch]
			limit := min(q.Len(), r.cfg.Window)
			drainFrom := r.ageWindow(q, limit, now)
			if win.want&r.readyOuts == 0 {
				continue
			}
			for c := win.open(limit); c != 0; c &= c - 1 {
				i := bits.TrailingZeros32(c)
				pk := q.At(i)
				e := &r.slab.e[pk]
				if !r.eligible(e, i >= drainFrom, now) {
					continue
				}
				n := r.readyMoves(e, &mv)
				if n == 0 {
					continue
				}
				id := e.pkt.ID
				row := assignRow(in, mv[:n], id)
				age := int64(e.headerArrive)
				for _, m := range mv[:n] {
					if int(m.row) != row {
						continue
					}
					if r.matrix.RowMask(row)>>m.out&1 != 0 {
						if cell := r.matrix.At(row, int(m.out)); !(age < cell.Age || (age == cell.Age && id < cell.Key)) {
							continue
						}
					}
					r.matrix.Set(row, int(m.out), age, id, 0)
					r.waveCells[row][m.out] = waveCell{pk: pk, targetCh: m.targetCh, pos: uint8(i)}
					any = true
				}
			}
		}
	}
	r.settleOldAt(now)
	if !any {
		return false
	}
	// Lock every packet that made it into a cell, walking the matrix's
	// row validity words instead of rescanning every cell.
	for row := 0; row < ports.NumRows; row++ {
		for w := r.matrix.RowMask(row); w != 0; w &= w - 1 {
			col := bits.TrailingZeros64(w)
			cell := &r.waveCells[row][col]
			e := &r.slab.e[cell.pk]
			e.flags |= pkNominated
			r.win[e.in][e.ch].nom |= 1 << cell.pos
			r.Counters.Nominations++
			if f := r.flight; f != nil {
				f.Record(now, obs.FlightNominate, e.pkt.ID, e.in, e.ch, ports.Out(col))
			}
		}
	}
	return true
}

// assignRow picks the single read-port row a packet nominates through: the
// one whose crossbar connections cover more of the packet's ready moves,
// with ties broken by packet ID.
func assignRow(in ports.In, moves []move, id uint64) int {
	row0, row1 := ports.Row(in, 0), ports.Row(in, 1)
	c0, c1 := 0, 0
	for _, mv := range moves {
		switch int(mv.row) {
		case row0:
			c0++
		case row1:
			c1++
		}
	}
	switch {
	case c0 == 0:
		return row1
	case c1 == 0:
		return row0
	case c0 > c1:
		return row0
	case c1 > c0:
		return row1
	case id%2 == 0:
		return row0
	default:
		return row1
	}
}

func (r *Router) resolveWave(now sim.Ticks) {
	grants := r.arb.Arbitrate(r.matrix)
	if r.oracle != nil {
		r.oracle.WaveResolve(r, now, r.matrix, grants)
	}
	for _, g := range grants {
		cell := r.waveCells[g.Row][g.Col]
		out := ports.Out(g.Col)
		op := &r.outputs[out]
		valid := op.freeForGrant(now, r.postArbTicks) &&
			(out.IsLocal() || (op.credits != nil && op.credits.Available(cell.targetCh)))
		if !valid || cell.pk < 0 || r.slab.e[cell.pk].flags&pkNominated == 0 {
			if m := r.metrics; m != nil && !valid && cell.pk >= 0 {
				if !op.freeForGrant(now, r.postArbTicks) {
					m.Stalls++
				} else {
					m.CreditWaits++
				}
				m.Arb.NomFailures++
			}
			continue
		}
		r.dispatch(cell.pk, out, cell.targetCh, now)
	}
	// Unlock every nominated packet that was not dispatched; the row
	// validity words name exactly the cells the wave populated.
	for row := 0; row < ports.NumRows; row++ {
		for w := r.matrix.RowMask(row); w != 0; w &= w - 1 {
			col := bits.TrailingZeros64(w)
			if pk := r.waveCells[row][col].pk; pk >= 0 && r.slab.e[pk].flags&pkNominated != 0 {
				r.reset(pk, now)
			}
			r.waveCells[row][col] = waveCell{pk: -1}
		}
	}
	r.waveActive = false
}

// ---- common ----

func (r *Router) markOld(pk int32, now sim.Ticks) {
	e := &r.slab.e[pk]
	if e.flags&pkOld == 0 && now-e.headerArrive >= r.ageTicks {
		e.flags |= pkOld
		r.oldCount++
		if !r.draining && r.oldCount > r.cfg.AntiStarvationThreshold {
			r.draining = true
			r.Counters.DrainEntries++
		}
	}
}

// touchVC moves ch to the most-recently-selected end of in's LRU order,
// shifting the ranks above it down by one in both the order and the
// rank-indexed busy word.
func (r *Router) touchVC(in ports.In, ch vc.Channel) {
	lru, rank := &r.lru[in], &r.rank[in]
	k := uint(rank[ch])
	for j := k; j < vc.NumChannels-1; j++ {
		c := lru[j+1]
		lru[j] = c
		rank[c] = uint8(j)
	}
	lru[vc.NumChannels-1] = ch
	rank[ch] = vc.NumChannels - 1
	w := r.busyRank[in]
	r.busyRank[in] = w&(1<<k-1) | w>>(k+1)<<k | (w>>k&1)<<(vc.NumChannels-1)
}

// dispatch commits a grant: the packet leaves its input buffer (returning
// the upstream credit), the output port goes busy for the packet's length,
// and the packet is handed to the link or the local sink. A grant at tick
// g puts the header on the pin at g + PostArb cycles.
func (r *Router) dispatch(pk int32, out ports.Out, targetCh vc.Channel, now sim.Ticks) {
	// The granted packet leaves the input buffer; losers of this GA round
	// were already reset. A successful selection is what advances the
	// input port's least-recently-selected virtual channel order.
	e := &r.slab.e[pk]
	e.flags &^= pkNominated
	in, ch := e.in, e.ch
	r.touchVC(in, ch)
	q := &r.queues[in][ch]
	pos := q.Index(pk)
	if pos < 0 {
		panic("router: removing packet not in queue")
	}
	q.RemoveAt(pos)
	r.held--
	if q.Len() == 0 {
		r.busyCh[in] &^= 1 << ch
		r.busyRank[in] &^= 1 << r.rank[in][ch]
	}
	r.leaveWindow(in, ch, pos)
	if m := r.metrics; m != nil {
		m.QueueDelta(in, ch, -1, now)
	}
	if e.flags&pkOld != 0 {
		e.flags &^= pkOld
		r.oldCount--
		if r.oldCount == 0 {
			r.draining = false
		}
	}
	if e.upstream != nil {
		e.upstream.Release(ch)
	}

	p := e.pkt
	tailArrive := r.tailArrive(e)
	r.slab.release(pk)
	if f := r.flight; f != nil {
		f.Record(now, obs.FlightGrant, p.ID, in, ch, out)
	}

	op := &r.outputs[out]
	headerDepart := now + r.postArbTicks
	flits := sim.Ticks(p.Flits)
	if out.IsLocal() {
		op.busyUntil = headerDepart + flits*r.cfg.RouterPeriod
		deliveredAt := headerDepart + (flits-1)*r.cfg.RouterPeriod
		if tailArrive > deliveredAt {
			deliveredAt = tailArrive
		}
		r.Counters.DeliveredLocal++
		if op.deliver == nil {
			panic(fmt.Sprintf("router %d: local port %v not connected", r.node, out))
		}
		op.deliver(p, deliveredAt)
	} else {
		op.credits.Reserve(targetCh)
		op.busyUntil = headerDepart + flits*r.cfg.LinkPeriod
		p.Hops++
		if op.send == nil {
			panic(fmt.Sprintf("router %d: network port %v not connected", r.node, out))
		}
		op.send(p, targetCh, headerDepart, op.credits)
	}
	r.Counters.Grants++
}
