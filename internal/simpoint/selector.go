package simpoint

// This file defines the pluggable selection-engine layer: a Selector
// turns projected region vectors and per-region work weights into a
// Selection — which regions to simulate, organized into strata with
// per-draw weights. Two engines live here:
//
//   - "simpoint": the classic SimPoint medoid rule — cluster, then pick
//     the one region nearest each centroid. One draw per stratum, so
//     downstream extrapolation is a point estimate (no estimable
//     variance).
//   - "stratified": two-phase stratified random sampling (after "CPU
//     Simulation Using Two-Phase Stratified Sampling", arXiv:2603.22605).
//     Phase one draws a cheap seeded pilot per cluster and estimates the
//     within-stratum scatter; phase two spends the remaining region
//     budget where the variance lives (Neyman allocation) and draws
//     seeded random representatives. Multiple draws per stratum make
//     per-metric confidence intervals estimable (internal/stats).
//
// The BarrierPoint and time-based baselines (internal/baselines) register
// additional engines beside these through RegisterSelector. Every engine
// is deterministic: the same (vectors, weights, seeds) produce the same
// Selection at every worker width.

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// DefaultPilot is the phase-one pilot draw count per stratum.
const DefaultPilot = 2

// DefaultConfidence is the default confidence level for the intervals
// computed from a stratified selection.
const DefaultConfidence = 0.95

// SelectorOpts parameterizes a Select call beyond the clustering knobs.
type SelectorOpts struct {
	// Budget is the total number of regions to draw across all strata.
	// Engines clamp it to [number of strata, number of regions]; <= 0
	// selects the engine default (the stratified engine draws
	// min(2·K, N); the medoid engine always draws exactly K).
	Budget int
	// Pilot is the phase-one draw count per stratum (stratified engine;
	// <= 0 → DefaultPilot). Pilot draws are reused in phase two.
	Pilot int
	// Proportional switches the stratified engine's phase-two allocation
	// from Neyman (∝ W_h·S_h) to proportional (∝ W_h) — the ablation the
	// calibration suite compares against.
	Proportional bool
}

func (o SelectorOpts) pilot() int {
	if o.Pilot <= 0 {
		return DefaultPilot
	}
	return o.Pilot
}

// SelectedRegion is one drawn representative.
type SelectedRegion struct {
	// Index is the region's index in the profiled region list.
	Index int
	// Stratum is the index into Selection.Strata this draw came from.
	Stratum int
	// Weight is the share of total work this draw stands for: the
	// stratum's work share divided by the stratum's draw count. Weights
	// sum to 1 across the selection.
	Weight float64
}

// Stratum describes one sampling stratum (for clustering engines, one
// cluster).
type Stratum struct {
	// Members lists the region indices belonging to the stratum, in
	// ascending order.
	Members []int
	// Sampled is the number of draws taken from the stratum (n_h).
	Sampled int
	// Work is the summed region weight of the members (W_h, unnormalized).
	Work float64
	// Weight is Work normalized across strata; stratum weights sum to 1.
	Weight float64
	// PilotVar is the phase-one within-stratum variance estimate that
	// drove the allocation (0 for engines without a pilot phase).
	PilotVar float64
}

// Size returns the stratum's population count N_h.
func (s Stratum) Size() int { return len(s.Members) }

// Selection is the engine-independent output of a Selector.
type Selection struct {
	// Engine names the selector that produced the selection.
	Engine string
	// Result is the clustering that defined the strata (nil for engines
	// that stratify without clustering, e.g. time-based).
	Result *Result
	// Regions are the draws, sorted by region index.
	Regions []SelectedRegion
	// Strata describe the sampling frame; SelectedRegion.Stratum indexes
	// this slice.
	Strata []Stratum
}

// Selector is a pluggable selection engine: given projected region
// vectors and per-region work weights, choose which regions to simulate
// and how to weight them.
type Selector interface {
	// Name returns the engine's registry name.
	Name() string
	// Select draws the representatives. copts parameterizes the
	// clustering that defines the strata (engines that do not cluster
	// use only copts.Seed); sopts parameterizes the draw itself.
	Select(vectors [][]float64, weights []float64, copts Options, sopts SelectorOpts) (*Selection, error)
}

// ---- registry ----

var (
	selectorMu       sync.RWMutex
	selectorRegistry = map[string]func() Selector{}
)

// RegisterSelector adds a selection engine under the given name.
// Registering a duplicate name panics: engines are wired at init time
// and a silent overwrite would make selection depend on package-init
// order.
func RegisterSelector(name string, factory func() Selector) {
	selectorMu.Lock()
	defer selectorMu.Unlock()
	if _, dup := selectorRegistry[name]; dup {
		panic(fmt.Sprintf("simpoint: selector %q registered twice", name))
	}
	selectorRegistry[name] = factory
}

// NewSelector instantiates a registered engine by name.
func NewSelector(name string) (Selector, error) {
	selectorMu.RLock()
	factory, ok := selectorRegistry[name]
	selectorMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("simpoint: unknown selector %q (have %v)", name, SelectorNames())
	}
	return factory(), nil
}

// SelectorNames lists the registered engines, sorted.
func SelectorNames() []string {
	selectorMu.RLock()
	defer selectorMu.RUnlock()
	names := make([]string, 0, len(selectorRegistry))
	for n := range selectorRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterSelector("simpoint", func() Selector { return SimPointSelector{} })
	RegisterSelector("stratified", func() Selector { return StratifiedSelector{} })
}

// clusterStrata converts a clustering Result into strata: one per
// cluster, members ascending (Assign is iterated in region order), work
// summed in member order.
func clusterStrata(res *Result, weights []float64) []Stratum {
	strata := make([]Stratum, res.K)
	for i, j := range res.Assign {
		strata[j].Members = append(strata[j].Members, i)
		strata[j].Work += weights[i]
	}
	NormalizeStrata(strata)
	return strata
}

// NormalizeStrata fills each stratum's normalized Weight from its Work
// (exported for engines registered outside this package).
func NormalizeStrata(strata []Stratum) {
	var total float64
	for i := range strata {
		total += strata[i].Work
	}
	if total <= 0 {
		// Weightless population (all-zero region weights): fall back to
		// member counts so the weights still sum to 1.
		var n int
		for i := range strata {
			n += len(strata[i].Members)
		}
		for i := range strata {
			strata[i].Weight = float64(len(strata[i].Members)) / float64(n)
		}
		return
	}
	for i := range strata {
		strata[i].Weight = strata[i].Work / total
	}
}

// FinishSelection sorts the draws by region index and fills per-draw
// weights from the strata (exported for engines registered outside this
// package).
func FinishSelection(sel *Selection) *Selection {
	for i := range sel.Regions {
		st := sel.Strata[sel.Regions[i].Stratum]
		sel.Regions[i].Weight = st.Weight / float64(st.Sampled)
	}
	sort.Slice(sel.Regions, func(i, j int) bool {
		return sel.Regions[i].Index < sel.Regions[j].Index
	})
	return sel
}

// ---- SimPoint medoid engine ----

// SimPointSelector is the classic SimPoint rule refactored behind the
// Selector interface: cluster with BIC-swept k-means and pick the region
// nearest each centroid. Its Result (and therefore every downstream
// selection, multiplier, and golden file) is byte-identical to the
// pre-interface pipeline — Cluster is called with exactly the same
// arguments, and the medoids are the Reps Cluster already computed.
type SimPointSelector struct{}

// Name implements Selector.
func (SimPointSelector) Name() string { return "simpoint" }

// Select implements Selector.
func (SimPointSelector) Select(vectors [][]float64, weights []float64, copts Options, sopts SelectorOpts) (*Selection, error) {
	res, err := Cluster(vectors, weights, copts)
	if err != nil {
		return nil, err
	}
	return MedoidSelection(res, weights), nil
}

// MedoidSelection is the medoid rule over a finished clustering: one
// stratum per cluster, its representative the sole draw.
func MedoidSelection(res *Result, weights []float64) *Selection {
	sel := &Selection{Engine: "simpoint", Result: res, Strata: clusterStrata(res, weights)}
	for j, rep := range res.Reps {
		sel.Strata[j].Sampled = 1
		sel.Regions = append(sel.Regions, SelectedRegion{Index: rep, Stratum: j})
	}
	return FinishSelection(sel)
}

// ---- two-phase stratified engine ----

// StratifiedSelector is the two-phase stratified sampler. Clusters are
// the strata. Phase one draws a seeded pilot from each stratum and
// estimates its internal scatter in the projected BBV space (the cheap
// proxy for metric variance — regions with similar BBVs perform
// similarly, the premise SimPoint itself rests on). Phase two allocates
// the remaining budget across strata by Neyman allocation
// (n_h ∝ W_h·S_h: spend simulation where the work-weighted variance
// lives) and draws that many distinct members uniformly at random.
//
// Draws are organized as one seeded permutation per stratum whose prefix
// is the pilot: the final sample is the first n_h elements, so the pilot
// draws are reused rather than discarded (standard double sampling) and
// the whole selection is a pure function of (vectors, weights, seeds).
type StratifiedSelector struct{}

// Name implements Selector.
func (StratifiedSelector) Name() string { return "stratified" }

// Select implements Selector.
func (s StratifiedSelector) Select(vectors [][]float64, weights []float64, copts Options, sopts SelectorOpts) (*Selection, error) {
	res, err := Cluster(vectors, weights, copts)
	if err != nil {
		return nil, err
	}
	strata := clusterStrata(res, weights)
	n := len(vectors)

	// One deterministic permutation per stratum; pilot = prefix.
	perms := make([][]int, len(strata))
	for h := range strata {
		perms[h] = permute(strata[h].Members, drawSeed(copts.Seed, h))
	}

	// Phase one: pilot scatter per stratum. S_h² is the mean squared
	// distance of the pilot members from their pilot centroid — zero for
	// singleton strata, where no second draw exists to disagree.
	pilot := sopts.pilot()
	for h := range strata {
		p := min(pilot, len(perms[h]))
		strata[h].PilotVar = scatter(vectors, perms[h][:p])
	}

	// Budget: clamp to [K, N]; default 2 draws per stratum.
	budget := sopts.Budget
	if budget <= 0 {
		budget = 2 * len(strata)
	}
	if budget < len(strata) {
		budget = len(strata)
	}
	if budget > n {
		budget = n
	}
	alloc := allocate(strata, budget, sopts.Proportional)

	// Phase two: the first n_h permutation elements are the sample.
	sel := &Selection{Engine: s.Name(), Result: res, Strata: strata}
	for h := range strata {
		sel.Strata[h].Sampled = alloc[h]
		for _, idx := range perms[h][:alloc[h]] {
			sel.Regions = append(sel.Regions, SelectedRegion{Index: idx, Stratum: h})
		}
	}
	return FinishSelection(sel), nil
}

// drawSeed derives the per-stratum RNG seed. The stratum index is mixed
// through splitmix64 before xoring so neighboring strata get unrelated
// streams even under small master seeds.
func drawSeed(seed uint64, h int) uint64 {
	return splitmix64(seed ^ splitmix64(0xC0FFEE0D15EA5E5+uint64(h)))
}

// permute returns a seeded Fisher-Yates shuffle of members (the input
// slice is not modified).
func permute(members []int, seed uint64) []int {
	out := make([]int, len(members))
	copy(out, members)
	state := seed
	for i := len(out) - 1; i > 0; i-- {
		state = splitmix64(state)
		j := int(state % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// scatter returns the mean squared distance of the given vectors from
// their centroid — the phase-one variance proxy.
func scatter(vectors [][]float64, idxs []int) float64 {
	if len(idxs) < 2 {
		return 0
	}
	dims := len(vectors[idxs[0]])
	mean := make([]float64, dims)
	for _, i := range idxs {
		for d, x := range vectors[i] {
			mean[d] += x
		}
	}
	for d := range mean {
		mean[d] /= float64(len(idxs))
	}
	var sum float64
	for _, i := range idxs {
		sum += sqDist(vectors[i], mean)
	}
	return sum / float64(len(idxs))
}

// allocate distributes budget draws across strata. Every stratum gets at
// least one draw; second draws go to the highest-scoring strata first
// (two draws are what make a stratum's variance estimable); the rest
// follows Neyman scores W_h·S_h — or plain W_h when proportional is set
// or every pilot variance is zero — via largest-remainder rounding. All
// ties break by stratum index, so the allocation is deterministic.
// Requires budget ∈ [len(strata), Σ N_h].
func allocate(strata []Stratum, budget int, proportional bool) []int {
	k := len(strata)
	alloc := make([]int, k)
	remaining := budget

	scores := make([]float64, k)
	var totalScore float64
	for h, st := range strata {
		if proportional {
			scores[h] = st.Weight
		} else {
			scores[h] = st.Weight * math.Sqrt(st.PilotVar)
		}
		totalScore += scores[h]
	}
	if totalScore == 0 {
		// Zero variance everywhere (or zero weights): fall back to
		// proportional so the budget still spreads by work.
		for h, st := range strata {
			scores[h] = st.Weight
			totalScore += scores[h]
		}
	}

	// Floor: one draw per stratum.
	for h := range alloc {
		alloc[h] = 1
		remaining--
	}
	// Second draws by descending score (index-ascending on ties).
	order := make([]int, k)
	for h := range order {
		order[h] = h
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
	for _, h := range order {
		if remaining == 0 {
			break
		}
		if strata[h].Size() >= 2 {
			alloc[h]++
			remaining--
		}
	}
	// Largest-remainder rounding of the rest along the scores.
	if remaining > 0 && totalScore > 0 {
		type frac struct {
			h int
			f float64
		}
		fracs := make([]frac, 0, k)
		floorSum := 0
		for _, h := range order {
			quota := float64(remaining) * scores[h] / totalScore
			take := int(quota)
			if room := strata[h].Size() - alloc[h]; take > room {
				take = room
			}
			alloc[h] += take
			floorSum += take
			fracs = append(fracs, frac{h, quota - math.Trunc(quota)})
		}
		remaining -= floorSum
		sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
		// Hand out the leftovers one at a time, cycling past full strata
		// (budget <= Σ N_h guarantees termination).
		for remaining > 0 {
			gave := false
			for _, fr := range fracs {
				if remaining == 0 {
					break
				}
				if alloc[fr.h] < strata[fr.h].Size() {
					alloc[fr.h]++
					remaining--
					gave = true
				}
			}
			if !gave {
				break
			}
		}
	}
	return alloc
}
