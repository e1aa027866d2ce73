package main

// pprof.go decodes the CPU profiles runtime/pprof writes (gzipped
// perftools.profiles.Profile protobuf) far enough to attribute each
// sample's CPU time to a layer. Only the fields that attribution needs
// are read: samples, locations with their inline line chains, functions
// and the string table.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profSample is one profile sample: its stack as function names, leaf
// first with inlined frames expanded, and its CPU nanoseconds.
type profSample struct {
	stack []string
	ns    int64
}

// parseCPUProfile decodes a gzipped pprof CPU profile.
func parseCPUProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbRepeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbRepeated(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("pprof: sample without a cpu value")
		}
		ps := profSample{ns: s.values[1]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				idx := funcNames[fn]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, errors.New("pprof: function name out of range")
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; the profile format does not use them
// in the fields read here.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("pprof: truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errors.New("pprof: truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: truncated bytes")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated reads a repeated varint field in either encoding: one value
// per field (data nil) or packed into one length-delimited run.
func pbRepeated(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			return errors.New("pprof: truncated packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// layers are the repository modules the profile attributes time to.
var layers = []string{"sim", "network", "router", "core", "standalone", "vc", "workload", "packet", "stats"}

const modulePrefix = "alpha21364/internal/"

// funcPackage returns the import path of a profiled function's package:
// "alpha21364/internal/router.(*Router).Tick" -> "alpha21364/internal/router".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf maps a function to its layer, or "" when it belongs to none.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	if !strings.HasPrefix(pkg, modulePrefix) {
		return ""
	}
	name := strings.TrimPrefix(pkg, modulePrefix)
	for _, l := range layers {
		if name == l {
			return l
		}
	}
	return ""
}

// profileShares splits the CPU time spent inside the simulation by
// layer. A sample is inside the simulation when a simulation entry point
// is on its stack (Engine.Run, ShardGroup.Run and its band workers,
// standalone.RunArbiter); everything else is the benchmark's own work
// (construction, checks, forced GCs) or background runtime work.
// Each in-run sample goes to the first layer frame walking up from the
// leaf: the layer's self time, with the runtime and helper packages
// (ports, topology, obs) it calls folded into it. shardWait collects
// in-run samples spent at the sharded edge barrier: spinning in
// TickShard on a neighbour band's publish flag, or blocked on the
// ShardGroup's edge channels.
type profileShares struct {
	totalNS   int64
	inRunNS   int64
	samples   int
	byLayer   map[string]int64
	shardWait int64
}

// simRoots are the entry points whose callees are the simulation.
var simRoots = []string{
	modulePrefix + "sim.(*Engine).Run",
	modulePrefix + "sim.(*ShardGroup).Run",
	modulePrefix + "sim.(*ShardGroup).start.func1",
	modulePrefix + "standalone.RunArbiter",
}

func inRun(stack []string) bool {
	for _, fn := range stack {
		for _, r := range simRoots {
			if strings.HasPrefix(fn, r) {
				return true
			}
		}
	}
	return false
}

func attribute(samples []profSample) profileShares {
	ps := profileShares{byLayer: map[string]int64{}}
	for _, s := range samples {
		ps.totalNS += s.ns
		ps.samples++
		if !inRun(s.stack) {
			continue
		}
		ps.inRunNS += s.ns
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				ps.byLayer[l] += s.ns
				break
			}
		}
		if isShardWait(s.stack) {
			ps.shardWait += s.ns
		}
	}
	return ps
}

// isShardWait reports whether the innermost repository frame of a stack
// is a barrier wait: TickShard's spin loop (router work below it has a
// router frame first), or a ShardGroup edge-channel operation.
func isShardWait(stack []string) bool {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, modulePrefix) {
			continue
		}
		switch {
		case strings.HasSuffix(fn, "network.(*Network).TickShard"):
			return true
		case strings.HasSuffix(fn, "sim.(*ShardGroup).runEdge"),
			strings.HasSuffix(fn, "sim.(*ShardGroup).start.func1"):
			return true
		}
		return false
	}
	return false
}

// share returns a layer's fraction of the in-run CPU time.
func (ps profileShares) share(layer string) float64 {
	return ratio(float64(ps.byLayer[layer]), float64(ps.inRunNS))
}

// inRunShare is the fraction of all profiled CPU time spent inside the
// simulation, the part the layer shares divide.
func (ps profileShares) inRunShare() float64 {
	return ratio(float64(ps.inRunNS), float64(ps.totalNS))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
