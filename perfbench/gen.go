package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"scarecrow/internal/malware"
	"scarecrow/internal/service"
	"scarecrow/internal/winsim"
)

// Request generation. Every workload derives its inputs from the --seed
// flag alone, through the functions in this file, and hands the program
// nothing but the generated requests. Machine seeds drawn here lie in
// [1, 2^40); the fixed history and the warm-up requests use seeds at or
// above reservedSeedBase, so no workload key can collide with them.

const (
	seedSpace        = 1 << 40
	reservedSeedBase = 1 << 41
)

// cell is one (specimen, profile, machine seed) verdict identity.
type cell struct {
	Specimen string `json:"specimen"`
	Profile  string `json:"profile,omitempty"`
	Seed     int64  `json:"seed"`
}

func (c cell) request() service.SubmitRequest {
	seed := c.Seed
	return service.SubmitRequest{Specimen: c.Specimen, Profile: c.Profile, Seed: &seed}
}

// key is the service's canonical cache key for the cell.
func (c cell) key() string {
	k, err := service.RouteKey(c.request())
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated an unroutable cell %+v: %v", c, err))
	}
	return k
}

func (c cell) profile() winsim.ProfileName {
	if c.Profile == "" {
		return service.DefaultProfile
	}
	return winsim.ProfileName(c.Profile)
}

// splitmix64 is the finalizer used to derive independent streams from
// (seed, index) pairs without shared RNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix40 is a bijection on [0, 2^40): odd multipliers and xor-shifts are
// each invertible modulo 2^40, so distinct inputs give distinct outputs.
func mix40(x uint64) uint64 {
	const mask = seedSpace - 1
	x &= mask
	x = (x * 0x9e3779b97f4b) & mask
	x ^= x >> 19
	x = (x * 0xd6e8feb86659fd) & mask
	x ^= x >> 21
	return x
}

func rngFor(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix64(uint64(seed)^splitmix64(stream)) >> 1)))
}

// corpusIDs lists the Figure-4 corpus identifiers in corpus order.
func corpusIDs() []string {
	specs := malware.MalGeneCorpus()
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.ID
	}
	return ids
}

// corpusGen yields the corpus-cold request stream: pass p is a seeded
// permutation of the whole corpus, and request i runs at a machine seed
// that is a bijection of i, so no two requests share a cache key.
type corpusGen struct {
	seed   int64
	ids    []string
	salt   uint64
	passes map[int][]int
}

func newCorpusGen(seed int64) *corpusGen {
	return &corpusGen{seed: seed, ids: corpusIDs(), salt: splitmix64(uint64(seed)), passes: make(map[int][]int)}
}

// at returns request i. Not safe for concurrent use.
func (g *corpusGen) at(i int) cell {
	pass, pos := i/len(g.ids), i%len(g.ids)
	perm, ok := g.passes[pass]
	if !ok {
		perm = rngFor(g.seed, uint64(pass)).Perm(len(g.ids))
		g.passes[pass] = perm
	}
	return cell{
		Specimen: "mg:" + g.ids[perm[pos]],
		Seed:     1 + int64(mix40(uint64(i)^g.salt)%(seedSpace-1)),
	}
}

// sweepSpecimens is the catalog plus the Joe Security samples: the
// specimens a fleet serves interactively and sweeps as campaigns.
func sweepSpecimens() []string {
	names := malware.CatalogNames()
	for _, s := range malware.JoeSecuritySamples() {
		names = append(names, "joe:"+s.ID)
	}
	return names
}

// fleetProfiles are the two machine profiles the fleet workloads mix.
var fleetProfiles = []string{string(winsim.ProfileBareMetalSandbox), string(winsim.ProfileEndUser)}

// fleetSeedsPerCell is how many machine seeds each (specimen, profile)
// pair appears with in the fleet pool.
const fleetSeedsPerCell = 4

// fleetPlan is the fleet-replay pool: every sweep specimen × both
// profiles × fleetSeedsPerCell seeds, a seeded Zipf popularity over the
// pool, and the half of each pair's seeds that set-up commits to the
// backends' WALs before the measured phase.
type fleetPlan struct {
	seed      int64
	pool      []cell
	committed []cell    // pre-committed during set-up (store hits on first touch)
	cdf       []float64 // popularity CDF over pool indices
}

// fleetZipfS is the popularity skew: with s = 1.1 over 176 cells the
// hottest cell draws ~17% of requests and the coldest ~0.05%.
const fleetZipfS = 1.1

func newFleetPlan(seed int64) *fleetPlan {
	rng := rngFor(seed, 0xf1ee7)
	p := &fleetPlan{seed: seed}
	for _, spec := range sweepSpecimens() {
		for _, prof := range fleetProfiles {
			seeds := make([]int64, fleetSeedsPerCell)
			for i := range seeds {
				seeds[i] = 1 + rng.Int63n(seedSpace-1)
			}
			for i, s := range seeds {
				c := cell{Specimen: spec, Profile: prof, Seed: s}
				p.pool = append(p.pool, c)
				if i < fleetSeedsPerCell/2 {
					p.committed = append(p.committed, c)
				}
			}
		}
	}
	// Popularity rank is a seeded permutation of the pool.
	rng.Shuffle(len(p.pool), func(i, j int) { p.pool[i], p.pool[j] = p.pool[j], p.pool[i] })
	p.cdf = make([]float64, len(p.pool))
	var sum float64
	for r := range p.pool {
		sum += 1 / math.Pow(float64(r+1), fleetZipfS)
		p.cdf[r] = sum
	}
	for r := range p.cdf {
		p.cdf[r] /= sum
	}
	return p
}

// at returns request i: a pool cell drawn by popularity from a uniform
// derived from (seed, i), so the stream needs no shared RNG state.
func (p *fleetPlan) at(i int) cell {
	u := float64(splitmix64(uint64(p.seed)^splitmix64(uint64(i)+0x51ab))>>11) / (1 << 53)
	r := sort.SearchFloat64s(p.cdf, u)
	if r >= len(p.pool) {
		r = len(p.pool) - 1
	}
	return p.pool[r]
}

// fanoutPlan is the campaign-fanout sequence. In round r, campaign j
// sweeps every sweep specimen × both profiles × fanoutWindow consecutive
// seeds starting at base(r) + j·fanoutWindow/2, so each campaign repeats
// half of its predecessor's cells and runs the other half cold. Every
// round draws its own base: the front's ring keeps keys that differ only
// in a consecutive seed on one backend, so one base fixes which backend
// sweeps each (specimen, profile) pair for a whole round, and a run
// averages over as many of those splits as it has rounds.
type fanoutPlan struct{ seed int64 }

const fanoutWindow = 4

func newFanoutPlan(seed int64) *fanoutPlan { return &fanoutPlan{seed: seed} }

func (p *fanoutPlan) seeds(round, j int) []int64 {
	base := 1 + rngFor(p.seed, 0xfa2<<32|uint64(round)).Int63n(seedSpace/2)
	out := make([]int64, fanoutWindow)
	for i := range out {
		out[i] = base + int64(j*fanoutWindow/2+i)
	}
	return out
}

// size is the number of cells in every campaign.
func (p *fanoutPlan) size() int { return len(sweepSpecimens()) * len(fleetProfiles) * fanoutWindow }

// cells lists a campaign's cells in the engine's expansion order.
func (p *fanoutPlan) cells(round, j int) []cell {
	var out []cell
	for _, spec := range sweepSpecimens() {
		for _, prof := range fleetProfiles {
			for _, s := range p.seeds(round, j) {
				out = append(out, cell{Specimen: spec, Profile: prof, Seed: s})
			}
		}
	}
	return out
}

// expectedHits is how many of a campaign's cells the round's previous
// campaign already computed: the replays the service must serve from
// its cache. A round's first campaign runs on a fresh rig.
func (p *fanoutPlan) expectedHits(round, j int) int {
	if j == 0 {
		return 0
	}
	prev := make(map[string]bool)
	for _, c := range p.cells(round, j-1) {
		prev[c.key()] = true
	}
	n := 0
	for _, c := range p.cells(round, j) {
		if prev[c.key()] {
			n++
		}
	}
	return n
}
