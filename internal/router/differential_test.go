package router

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"alpha21364/internal/core"
	"alpha21364/internal/packet"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/vc"
)

// diffClock drives a router's cycle in its two halves and, between them,
// runs the scalar reference LA stage on a clone of the router: after both
// issue stages the decisions and the state they leave must be identical,
// and the router's masks must agree with its queues.
type diffClock struct {
	t *testing.T
	r *Router
}

func (d *diffClock) Tick(now sim.Ticks) {
	r := d.r
	r.resolve(now)
	ref := r.refClone()
	ref.refIssue(now)
	r.issue(now)
	if msg := issueDiff(r, ref); msg != "" {
		d.t.Fatalf("%v at tick %d: mask-driven issue differs from the scalar reference: %s", r.cfg.Kind, now, msg)
	}
	if msg := indexDiff(r); msg != "" {
		d.t.Fatalf("%v at tick %d: %s", r.cfg.Kind, now, msg)
	}
}

// issueDiff compares everything an issue stage writes.
func issueDiff(r, ref *Router) string {
	if !slices.Equal(r.noms, ref.noms) {
		return fmt.Sprintf("nominations %+v, reference %+v", r.noms, ref.noms)
	}
	for pk := range r.slab.e {
		if r.slab.e[pk].flags != ref.slab.e[pk].flags {
			return fmt.Sprintf("packet slot %d flags %b, reference %b", pk, r.slab.e[pk].flags, ref.slab.e[pk].flags)
		}
	}
	type scalars struct {
		oldCount                          int
		draining, waveActive              bool
		nextLA, nextWaveAt, waveResolveAt sim.Ticks
		dirPref                           [ports.NumIn]uint8
		counters                          Counters
	}
	of := func(r *Router) scalars {
		return scalars{r.oldCount, r.draining, r.waveActive, r.nextLA, r.nextWaveAt, r.waveResolveAt, r.dirPref, r.Counters}
	}
	if a, b := of(r), of(ref); a != b {
		return fmt.Sprintf("state %+v, reference %+v", a, b)
	}
	if r.matrix == nil {
		return ""
	}
	for row := 0; row < ports.NumRows; row++ {
		for col := 0; col < int(ports.NumOut); col++ {
			a, b := r.matrix.At(row, col), ref.matrix.At(row, col)
			if a.Valid != b.Valid || a.Valid && a != b {
				return fmt.Sprintf("wave cell (%d,%d) %+v, reference %+v", row, col, a, b)
			}
			ca, cb := r.waveCells[row][col], ref.waveCells[row][col]
			if ca.pk != cb.pk || ca.targetCh != cb.targetCh {
				return fmt.Sprintf("wave cell (%d,%d) packet %+v, reference %+v", row, col, ca, cb)
			}
		}
	}
	return ""
}

// indexDiff checks the router's words against the queues they index, and
// the queue records against the store they tile.
func indexDiff(r *Router) string {
	held, off := 0, 0
	for in := ports.In(0); in < ports.NumIn; in++ {
		for k, ch := range r.lru[in] {
			if int(r.rank[in][ch]) != k {
				return fmt.Sprintf("input %v: rank of %v is %d, LRU position %d", in, ch, r.rank[in][ch], k)
			}
			busy := r.queues[in][ch].n > 0
			if r.busyCh[in]>>ch&1 == 1 != busy || r.busyRank[in]>>k&1 == 1 != busy {
				return fmt.Sprintf("input %v channel %v: busy bits disagree with queue length %d", in, ch, r.queues[in][ch].n)
			}
		}
		var wantIn ports.OutMask
		for ch := range r.queues[in] {
			q := &r.queues[in][ch]
			if int(q.off) != off || int(q.cap) != r.cfg.Buffers.Capacity(vc.Channel(ch)) ||
				q.n > q.cap || q.head >= max(q.cap, 1) {
				return fmt.Sprintf("queue %v/%d: record %+v does not tile the store at offset %d with capacity %d",
					in, ch, *q, off, r.cfg.Buffers.Capacity(vc.Channel(ch)))
			}
			off += int(q.cap)
			held += int(q.n)
			limit := min(int(q.n), r.cfg.Window)
			var want ports.OutMask
			var nom uint32
			for i := 0; i < limit; i++ {
				e := &r.slab.e[q.at(r.store, i)]
				want |= e.cand.outs
				if e.flags&pkNominated != 0 {
					nom |= 1 << i
				}
				if e.flags&pkOld == 0 && e.headerArrive+r.ageTicks < r.oldAt {
					return fmt.Sprintf("queue %v/%d position %d turns old before the oldAt bound", in, ch, i)
				}
			}
			if q.want != want || q.nom != nom {
				return fmt.Sprintf("queue %v/%d: window want %b nom %b, want %b nom %b over %d packets", in, ch, q.want, q.nom, want, nom, limit)
			}
			wantIn |= want
		}
		if r.wantIn[in] != wantIn {
			return fmt.Sprintf("input %v: wantIn %b, windows want %b", in, r.wantIn[in], wantIn)
		}
	}
	if off != len(r.store) {
		return fmt.Sprintf("queues tile %d store slots, store has %d", off, len(r.store))
	}
	if held != r.held {
		return fmt.Sprintf("held %d, queues hold %d", r.held, held)
	}
	return ""
}

// TestDifferentialIssue drives every router kind with seeded random
// traffic — every class, every channel a class can occupy, local
// injections and bursts — under each configuration that changes what a
// scan sees, and checks every cycle against the scalar reference.
func TestDifferentialIssue(t *testing.T) {
	kinds := []core.Kind{core.KindSPAABase, core.KindSPAARotary, core.KindPIM1, core.KindWFABase, core.KindWFARotary}
	variants := []struct {
		name  string
		cfg   func(*Config)
		held  ports.OutMask // outputs whose credits never return
		delay int           // credit return delay in router cycles
		burst int           // traffic: packets per event (default 3)
		gap   int           // and cycles between events (default 12)
		check func(*Router) error
	}{
		{name: "default"},
		{
			name: "drain",
			cfg: func(c *Config) {
				c.AntiStarvationAge = 40
				c.AntiStarvationThreshold = 2
			},
			held: 1<<ports.OutNorth | 1<<ports.OutEast,
			check: func(r *Router) error {
				if r.Counters.DrainEntries == 0 {
					return fmt.Errorf("the drain never engaged")
				}
				return nil
			},
		},
		{
			// Dense traffic aging fast enough that the drain starts in
			// the middle of picker windows, again and again.
			name: "drainflip",
			cfg: func(c *Config) {
				c.AntiStarvationAge = 12
				c.AntiStarvationThreshold = 0
			},
			burst: 10, gap: 4,
		},
		{name: "window2", cfg: func(c *Config) { c.Window = 2 }, burst: 8},
		{name: "scaled", cfg: func(c *Config) { *c = c.ScalePipeline() }},
		{name: "fullconn", cfg: func(c *Config) { c.Conn = ports.FullConnectionMatrix() }},
		{name: "credits", held: 1<<ports.OutSouth | 1<<ports.OutWest, delay: 30},
	}
	classes := make([]packet.Class, packet.NumClasses)
	for c := range classes {
		classes[c] = packet.Class(c)
	}
	for _, kind := range kinds {
		for _, v := range variants {
			for seed := uint64(1); seed <= 2; seed++ {
				kind, v, seed := kind, v, seed
				t.Run(fmt.Sprintf("%v/%s/%d", kind, v.name, seed), func(t *testing.T) {
					t.Parallel()
					cfg := DefaultConfig(kind)
					if v.cfg != nil {
						v.cfg(&cfg)
					}
					h := newUnclockedHarness(t, cfg)
					h.held = v.held
					h.creditDelay = sim.Ticks(v.delay) * cfg.RouterPeriod
					h.eng.AddClock(cfg.RouterPeriod, 0, &diffClock{t: t, r: h.r})
					a := &arrivals{
						h: h, rng: sim.NewRNG(seed), classes: classes,
						anyChannel: true, inject: true,
						burst: cmp.Or(v.burst, 3), gap: cmp.Or(v.gap, 12), limit: 150,
					}
					a.start(150)
					h.eng.Run(3000 * cfg.RouterPeriod)
					if h.r.Counters.Grants == 0 {
						t.Fatal("no grants: the run exercised nothing")
					}
					if v.check != nil {
						if err := v.check(h.r); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		}
	}
}
