package core

import (
	"testing"

	"alpha21364/internal/sim"
)

// benchMatrices prebuilds a deterministic ladder of router-shaped request
// matrices across densities, so every kernel is measured over the same
// mixed sparse/dense workload and the benchmark loop itself does no
// building.
func benchMatrices() []*Matrix {
	rng := sim.NewRNG(0xB157)
	ms := make([]*Matrix, 32)
	for i := range ms {
		m := NewRouterMatrix()
		fillRandom(m, rng, float64(i%8+1)/8)
		ms[i] = m
	}
	return ms
}

// BenchmarkArbitrate times one Arbitrate call per kernel over the shared
// matrix ladder (ns/op = ns per arbitration). `make bench-arbiters` runs
// this beside the scalar references.
func BenchmarkArbitrate(b *testing.B) {
	ms := benchMatrices()
	for k := Kind(0); k < NumKinds; k++ {
		b.Run(k.String(), func(b *testing.B) {
			arb := New(k, sim.NewRNG(2))
			for _, m := range ms {
				arb.Arbitrate(m) // size the scratch before measuring
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arb.Arbitrate(ms[i%len(ms)])
			}
		})
	}
	b.Run("iSLIP", func(b *testing.B) {
		arb := NewISLIP(PIMFullIterations)
		for _, m := range ms {
			arb.Arbitrate(m)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arb.Arbitrate(ms[i%len(ms)])
		}
	})
	b.Run("WFA-plain", func(b *testing.B) {
		arb := NewWFAPlain()
		for _, m := range ms {
			arb.Arbitrate(m)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arb.Arbitrate(ms[i%len(ms)])
		}
	})
}

// BenchmarkReferenceArbitrate times the retained scalar kernels over the
// same ladder, so the word-parallel speedup is a two-line comparison:
//
//	go test ./internal/core -bench 'Arbitrate/' -benchmem
func BenchmarkReferenceArbitrate(b *testing.B) {
	ms := benchMatrices()
	for k := Kind(0); k < NumKinds; k++ {
		b.Run(k.String(), func(b *testing.B) {
			arb := NewReferenceArbiter(k, sim.NewRNG(2))
			for _, m := range ms {
				arb.Arbitrate(m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arb.Arbitrate(ms[i%len(ms)])
			}
		})
	}
}
