// Package router implements the cycle-accurate timing model of the Alpha
// 21364 on-chip router (paper §2.2): eight input ports with two buffer
// read ports each, seven output ports, 19 virtual channels with
// packet-granularity virtual cut-through buffering, and the three-stage
// arbitration pipeline (LA: input-port arbitration, RE: read entry table
// and transport, GA: output-port arbitration) running SPAA, PIM1 or WFA
// with optional Rotary Rule prioritization and the anti-starvation drain
// the Rotary Rule relies on.
package router

import (
	"fmt"

	"alpha21364/internal/core"
	"alpha21364/internal/ports"
	"alpha21364/internal/sim"
	"alpha21364/internal/vc"
)

// Config parameterizes one router instance. All cycle counts are in router
// clock cycles.
type Config struct {
	// Kind selects the arbitration algorithm (SPAA/PIM1/WFA, base or
	// rotary). MCM, full PIM and OPF are standalone-model algorithms and
	// are rejected by New.
	Kind core.Kind

	// ArbCycles is the LA-through-GA arbitration latency: 3 for SPAA, 4
	// for PIM1/WFA (paper §3). InitInterval is the number of cycles
	// between successive input-port arbitration starts: 1 for SPAA
	// (pipelined), 3 for PIM1/WFA.
	ArbCycles    int
	InitInterval int

	// RouterPeriod and LinkPeriod are the clock periods (1.2 GHz core,
	// 0.8 GHz links; the Figure 11a study doubles the core clock).
	RouterPeriod sim.Ticks
	LinkPeriod   sim.Ticks

	// PreArbNetwork is the pin-to-LA pipeline depth for network inputs
	// (ECC, transport, synchronization, DW); PreArbLocal the local-port
	// equivalent (RT and decode; the paper quotes 2.5 ns of local port
	// latency). PostArb covers GA-to-pin (read entry, crossbar, ECC, pad
	// and transport). With SPAA's 3 arbitration cycles the zero-contention
	// pin-to-pin latency is PreArbNetwork + (ArbCycles-1) + PostArb = 13
	// cycles = 10.8 ns, matching §2.2.
	PreArbNetwork int
	PreArbLocal   int
	PostArb       int

	// LinkLatencyCycles is the router-to-router wire latency in link
	// clocks (paper §4.1: 3 network clocks per link).
	LinkLatencyCycles int

	// Buffers configures the 316-packet input buffer split across the 19
	// virtual channels.
	Buffers vc.Config

	// Conn is the crossbar connection matrix (Figure 5).
	Conn ports.ConnectionMatrix

	// Window bounds how many packets per virtual channel queue an input
	// arbiter examines each cycle (the entry-table picker depth).
	Window int

	// AntiStarvationAge is the wait (in router cycles) after which a
	// buffered packet turns "old"; AntiStarvationThreshold is the old-
	// packet count that flips the router into drain mode, in which old
	// packets are served before any new ones (paper §3.4).
	AntiStarvationAge       int
	AntiStarvationThreshold int

	// Seed feeds PIM1's random grant/accept steps.
	Seed uint64

	// GrantPolicyFactory, when non-nil, replaces SPAA's default
	// least-recently-selected output-port policy with a custom one (§3
	// names random, round-robin, LRS and priority chains as the design
	// space). Each router gets its own instance. Ignored by the wave
	// algorithms, whose grant rule is part of the algorithm itself.
	GrantPolicyFactory func(rows, cols int) core.SelectPolicy
}

// DefaultConfig returns the 21364 production parameters for an algorithm.
func DefaultConfig(kind core.Kind) Config {
	t := core.TimingOf(kind)
	return Config{
		Kind:                    kind,
		ArbCycles:               t.ArbCycles,
		InitInterval:            t.InitInterval,
		RouterPeriod:            sim.RouterPeriod,
		LinkPeriod:              sim.LinkPeriod,
		PreArbNetwork:           6,
		PreArbLocal:             3,
		PostArb:                 5,
		LinkLatencyCycles:       3,
		Buffers:                 vc.DefaultConfig(),
		Conn:                    ports.DefaultConnectionMatrix(),
		Window:                  8,
		AntiStarvationAge:       20000,
		AntiStarvationThreshold: 48,
		Seed:                    1,
	}
}

// ScalePipeline doubles the pipeline depth and clock frequency, the
// Figure 11a scaling study: every stage count doubles while the cycle time
// halves, and the arbitration latencies become 8 (PIM1/WFA) and 6 (SPAA)
// cycles. SPAA remains pipelined with a new arbitration every (fast)
// cycle; PIM1/WFA restart every 6.
func (c Config) ScalePipeline() Config {
	c.RouterPeriod /= 2
	c.ArbCycles *= 2
	c.PreArbNetwork *= 2
	c.PreArbLocal *= 2
	c.PostArb *= 2
	if c.InitInterval > 1 {
		c.InitInterval *= 2
	}
	c.AntiStarvationAge *= 2
	return c
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch c.Kind {
	case core.KindSPAABase, core.KindSPAARotary, core.KindPIM1, core.KindWFABase, core.KindWFARotary:
	default:
		return fmt.Errorf("router: %v is a standalone-model algorithm, not implementable in the router pipeline", c.Kind)
	}
	if c.ArbCycles < 2 {
		return fmt.Errorf("router: ArbCycles %d too small (need LA and GA stages)", c.ArbCycles)
	}
	if c.InitInterval < 1 {
		return fmt.Errorf("router: InitInterval must be at least 1")
	}
	if c.RouterPeriod <= 0 || c.LinkPeriod <= 0 {
		return fmt.Errorf("router: clock periods must be positive")
	}
	if c.Window < 1 || c.Window > maxWindow {
		return fmt.Errorf("router: Window %d outside [1, %d]", c.Window, maxWindow)
	}
	return nil
}

// PinToPinCycles returns the zero-contention network-input to
// network-output latency in router cycles.
func (c Config) PinToPinCycles() int {
	return c.PreArbNetwork + (c.ArbCycles - 1) + c.PostArb
}

// isWave reports whether the algorithm arbitrates in matrix waves
// (PIM1/WFA) rather than SPAA's per-cycle nominations.
func (c *Config) isWave() bool {
	return c.Kind == core.KindPIM1 || c.Kind == core.KindWFABase || c.Kind == core.KindWFARotary
}
