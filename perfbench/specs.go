package main

import (
	"fmt"
	"math/rand"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/runspec"
)

// defaultSeed is the workload seed the pinned result digests belong to.
const defaultSeed = 1

// splitmix64 derives independent sub-seeds from the workload seed, so each
// use of the seed (SYNTH seeds, Zipf draws) gets its own
// stream and changing one never shifts another.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func subSeed(seed int64, stream, i uint64) uint64 {
	return splitmix64(splitmix64(uint64(seed)^stream*0x632be59bd9b4e019) + i)
}

// synthSeed maps a derived seed into SYNTH's accepted seed range.
func synthSeed(seed int64, stream, i uint64) uint64 {
	return subSeed(seed, stream, i) % (1 << 32)
}

// Sub-seed streams.
const (
	streamSynthCoherence = 1
	streamCatalogue      = 2
	streamDraws          = 3
)

func slipstreamSpec(kernel string, size kernels.Size, cmps int) runspec.RunSpec {
	return runspec.RunSpec{Kernel: kernel, Size: size, Mode: core.ModeSlipstream,
		ARSync: core.ZeroTokenGlobal, TransparentLoads: true, SelfInvalidate: true, CMPs: cmps}
}

// paperSlipstreamSpecs is the paper-slipstream pass: the paper's headline
// configuration (slipstream G0 with transparent loads and self-invalidation
// on 8 CMPs) at paper size. It does not depend on the seed.
func paperSlipstreamSpecs() []runspec.RunSpec {
	var specs []runspec.RunSpec
	for _, k := range []string{"OCEAN", "SOR", "FFT"} {
		specs = append(specs, slipstreamSpec(k, kernels.Paper, 8).Normalize())
	}
	return specs
}

// synthCoherenceSeeds is how many SYNTH seeds one synth-coherence pass runs.
const synthCoherenceSeeds = 4

// synthCoherenceSpecs is the synth-coherence pass: a migratory,
// false-sharing SYNTH mix in double mode on 8 CMPs, over seeds derived from
// the workload seed.
func synthCoherenceSpecs(seed int64) []runspec.RunSpec {
	var specs []runspec.RunSpec
	for i := uint64(0); i < synthCoherenceSeeds; i++ {
		p := kernels.Params(fmt.Sprintf("fs=0.3,mig=0.3,pc=4,seed=%d,wr=0.3", synthSeed(seed, streamSynthCoherence, i)))
		specs = append(specs, runspec.RunSpec{Kernel: "SYNTH", Size: kernels.Paper, Params: p,
			Mode: core.ModeDouble, CMPs: 8}.Normalize())
	}
	return specs
}

// Served catalogue shape: six paper kernels in three modes plus SYNTH over
// 291 seeds in two modes, 600 specs, all at tiny size and 4 CMPs.
var catalogueKernels = []string{"FFT", "OCEAN", "WATER-NS", "WATER-SP", "SOR", "CG"}

const (
	catalogueSynth = 291
	catalogueCMPs  = 4
	// catalogueFixed is the number of leading catalogue specs that do not
	// depend on the seed: the paper kernels in three modes.
	catalogueFixed = 18
)

// catalogue returns the served-zipf spec list in Zipf rank order: the
// paper kernels first, then SYNTH by index. It is a pure function of the
// seed, which picks only the SYNTH seeds.
func catalogue(seed int64) []runspec.RunSpec {
	modes := func(kernel string, p kernels.Params, single bool) []runspec.RunSpec {
		base := runspec.RunSpec{Kernel: kernel, Size: kernels.Tiny, Params: p, CMPs: catalogueCMPs}
		dbl := base
		dbl.Mode = core.ModeDouble
		out := []runspec.RunSpec{dbl}
		if single {
			sgl := base
			sgl.Mode = core.ModeSingle
			out = append(out, sgl)
		}
		ss := slipstreamSpec(kernel, kernels.Tiny, catalogueCMPs)
		ss.Params = p
		return append(out, ss)
	}
	var specs []runspec.RunSpec
	for _, k := range catalogueKernels {
		specs = append(specs, modes(k, "", true)...)
	}
	for i := 0; i < catalogueSynth; i++ {
		p := kernels.Params(fmt.Sprintf("seed=%d", synthSeed(seed, streamCatalogue, uint64(i))))
		specs = append(specs, modes("SYNTH", p, false)...)
	}
	for i := range specs {
		specs[i] = specs[i].Normalize()
	}
	return specs
}

// zipfS is the served-zipf popularity skew.
const zipfS = 1.1

// draws returns n request specs drawn Zipf(zipfS) over the catalogue by
// rank. Like catalogue, it is a pure function of the seed.
func draws(seed int64, cat []runspec.RunSpec, n int) []runspec.RunSpec {
	rng := rand.New(rand.NewSource(int64(subSeed(seed, streamDraws, 0) >> 1)))
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(cat)-1))
	out := make([]runspec.RunSpec, n)
	for i := range out {
		out[i] = cat[z.Uint64()]
	}
	return out
}

// distinct returns the distinct specs of seq in first-seen order.
func distinct(seq []runspec.RunSpec) []runspec.RunSpec {
	seen := make(map[runspec.RunSpec]bool)
	var out []runspec.RunSpec
	for _, sp := range seq {
		if !seen[sp] {
			seen[sp] = true
			out = append(out, sp)
		}
	}
	return out
}
