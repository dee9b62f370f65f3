package simpoint

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"looppoint/internal/bbv"
)

// The fast clustering engine (sparse projection, Hamerly-bounded k-means,
// parallel BIC sweep) must be byte-identical to the naive reference path:
// same seeds in, same floats out, for projections, per-k k-means runs,
// and the full Cluster Result. These tests are the contract that lets
// pre-existing selections, resume journals, and golden files stay valid.

// testRNG is a tiny deterministic generator for fuzz-style inputs.
type testRNG uint64

func (r *testRNG) next() uint64 {
	*r = testRNG(splitmix64(uint64(*r)))
	return uint64(*r)
}

func (r *testRNG) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (r *testRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// randomRegions builds a random multi-threaded BBV region set: sparse
// per-thread vectors with random supports and weights, plus occasional
// empty threads and duplicate regions to hit the degenerate paths.
func randomRegions(rng *testRNG, n, threads, nblocks int) []*bbv.Region {
	regions := make([]*bbv.Region, n)
	for i := range regions {
		vecs := make([]map[int]float64, threads)
		for t := range vecs {
			vecs[t] = map[int]float64{}
			if rng.intn(10) == 0 {
				continue // empty thread
			}
			for b := 0; b < 1+rng.intn(12); b++ {
				vecs[t][rng.intn(nblocks)] = float64(1 + rng.intn(1000))
			}
		}
		regions[i] = &bbv.Region{Index: i, Vectors: vecs}
	}
	// Duplicate a few regions verbatim: identical projected points force
	// exact distance ties, dead centroids, and compact() remapping.
	for i := 2; i < n; i += 5 {
		regions[i].Vectors = regions[i-1].Vectors
	}
	return regions
}

func TestProjectRegionsFastSlowIdentity(t *testing.T) {
	rng := testRNG(7)
	for trial := 0; trial < 6; trial++ {
		n := 5 + rng.intn(40)
		threads := 1 + rng.intn(8)
		nblocks := 16 + rng.intn(200)
		dims := 4 + rng.intn(32)
		seed := rng.next()
		regions := randomRegions(&rng, n, threads, nblocks)

		fast := ProjectRegions(regions, nblocks, dims, seed)
		slow := ProjectRegionsSlow(regions, nblocks, dims, seed)
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("trial %d: ProjectRegions fast/slow differ (n=%d threads=%d nblocks=%d dims=%d seed=%d)",
				trial, n, threads, nblocks, dims, seed)
		}
		sumFast := SumProjectRegions(regions, nblocks, dims, seed)
		sumSlow := SumProjectRegionsSlow(regions, nblocks, dims, seed)
		if !reflect.DeepEqual(sumFast, sumSlow) {
			t.Fatalf("trial %d: SumProjectRegions fast/slow differ", trial)
		}
	}
}

func TestKMeansFastSlowIdentity(t *testing.T) {
	rng := testRNG(99)
	cases := [][][]float64{}
	// Well-separated blobs, noisy data, exact duplicates, and all-equal
	// points (forces sum==0 seeding and coincident centroids).
	vecs, _ := blobs(90, 4, 12, 5)
	cases = append(cases, vecs)
	noisy := make([][]float64, 60)
	for i := range noisy {
		v := make([]float64, 10)
		for d := range v {
			v[d] = rng.float() * 10
		}
		noisy[i] = v
	}
	for i := 3; i < len(noisy); i += 4 {
		noisy[i] = noisy[i-1] // duplicates: exact distance ties
	}
	cases = append(cases, noisy)
	same := make([][]float64, 20)
	for i := range same {
		same[i] = []float64{1, 2, 3}
	}
	cases = append(cases, same)

	for ci, vs := range cases {
		n, dims := len(vs), len(vs[0])
		flat := make([]float64, n*dims)
		for i, v := range vs {
			copy(flat[i*dims:], v)
		}
		for k := 1; k <= 8 && k <= n; k++ {
			for _, seed := range []uint64{1, 3, 17} {
				sa, sc, sd := KMeansSlow(vs, k, seed, 100)
				fa, fc, fd := kmeansFast(flat, n, dims, k, seed, 100)
				if !reflect.DeepEqual(sa, fa) {
					t.Fatalf("case %d k=%d seed=%d: assignments differ\nslow: %v\nfast: %v", ci, k, seed, sa, fa)
				}
				if !reflect.DeepEqual(sc, fc) {
					t.Fatalf("case %d k=%d seed=%d: centroids differ", ci, k, seed)
				}
				if sd != fd {
					t.Fatalf("case %d k=%d seed=%d: distortion differs: %v vs %v", ci, k, seed, sd, fd)
				}
			}
		}
	}
}

// TestClusterFastSlowIdentityFuzz clusters random BBV sets end to end on
// both paths and asserts the Result structs are identical — the satellite
// fuzz-style identity requirement.
func TestClusterFastSlowIdentityFuzz(t *testing.T) {
	rng := testRNG(1234)
	for trial := 0; trial < 8; trial++ {
		n := 8 + rng.intn(60)
		threads := 1 + rng.intn(6)
		nblocks := 20 + rng.intn(150)
		dims := 6 + rng.intn(20)
		seed := rng.next()
		maxK := 1 + rng.intn(12)
		regions := randomRegions(&rng, n, threads, nblocks)
		vectors := ProjectRegions(regions, nblocks, dims, seed)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(1 + rng.intn(10_000))
		}

		slow, err := ClusterSlow(vectors, weights, Options{MaxK: maxK, Seed: seed})
		if err != nil {
			t.Fatalf("trial %d: slow: %v", trial, err)
		}
		for _, workers := range []int{1, 4} {
			fast, err := Cluster(vectors, weights, Options{MaxK: maxK, Seed: seed, Workers: workers})
			if err != nil {
				t.Fatalf("trial %d: fast(workers=%d): %v", trial, workers, err)
			}
			if !reflect.DeepEqual(slow, fast) {
				t.Fatalf("trial %d (n=%d maxK=%d seed=%d workers=%d): fast/slow Results differ\nslow: %+v\nfast: %+v",
					trial, n, maxK, seed, workers, slow, fast)
			}
		}
	}
}

// TestClusterWorkerWidthInvariant pins the parallel-sweep determinism
// contract directly: the Result is identical at every worker width.
func TestClusterWorkerWidthInvariant(t *testing.T) {
	vecs, _ := blobs(120, 5, 16, 31)
	w := ones(120)
	base, err := Cluster(vecs, w, Options{MaxK: 15, Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := Cluster(vecs, w, Options{MaxK: 15, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d: Result differs from workers=1", workers)
		}
	}
}

func TestClusterMaxKGreaterThanN(t *testing.T) {
	// maxK must clamp to n: the sweep evaluates exactly n attempts and
	// both paths agree, including on the degenerate n=1 and n=2 sets.
	for _, n := range []int{1, 2, 5} {
		vecs, _ := blobs(n, min(n, 2), 6, 3)
		w := ones(n)
		slow, err := ClusterSlow(vecs, w, Options{MaxK: 50, Seed: 2})
		if err != nil {
			t.Fatalf("n=%d slow: %v", n, err)
		}
		fast, err := Cluster(vecs, w, Options{MaxK: 50, Seed: 2})
		if err != nil {
			t.Fatalf("n=%d fast: %v", n, err)
		}
		if len(fast.BICByK) != n {
			t.Errorf("n=%d: %d BIC scores, want %d (maxK not clamped)", n, len(fast.BICByK), n)
		}
		if fast.K > n {
			t.Errorf("n=%d: chose k=%d > n", n, fast.K)
		}
		if !reflect.DeepEqual(slow, fast) {
			t.Errorf("n=%d: fast/slow differ under maxK > n", n)
		}
	}
}

// TestClusterDuplicatePointsCompact drives Cluster into the
// dead-centroid path: with every point identical, k-means++ seeds
// coincident centroids, all points collapse into cluster 0, and
// compact() must drop the empty clusters.
func TestClusterDuplicatePointsCompact(t *testing.T) {
	vecs := make([][]float64, 12)
	for i := range vecs {
		vecs[i] = []float64{4, 4, 4, 4}
	}
	for _, slow := range []bool{false, true} {
		cluster := Cluster
		if slow {
			cluster = ClusterSlow
		}
		res, err := cluster(vecs, ones(12), Options{MaxK: 5, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if res.K != 1 {
			t.Errorf("slow=%v: duplicate points produced K=%d, want 1", slow, res.K)
		}
		if len(res.Reps) != res.K || len(res.Centroids) != res.K || len(res.ClusterWeight) != res.K {
			t.Errorf("slow=%v: compact left inconsistent lengths: %d reps, %d cents, %d weights",
				slow, len(res.Reps), len(res.Centroids), len(res.ClusterWeight))
		}
		for i, a := range res.Assign {
			if a != 0 {
				t.Errorf("slow=%v: point %d assigned to %d after compaction", slow, i, a)
			}
		}
		if math.Abs(res.ClusterWeight[0]-1) > 1e-12 {
			t.Errorf("slow=%v: surviving cluster weight %v, want 1", slow, res.ClusterWeight[0])
		}
	}
}

// TestCompactDropsEmptyClusters unit-tests Result.compact directly:
// clusters whose representative is -1 (centroid lost during Lloyd
// iterations) are removed, survivors are renumbered in order, and
// assignments are remapped.
func TestCompactDropsEmptyClusters(t *testing.T) {
	r := &Result{
		K:             4,
		Assign:        []int{0, 2, 2, 0, 3},
		Centroids:     [][]float64{{0}, {9}, {2}, {3}},
		Reps:          []int{0, -1, 1, 4},
		ClusterWeight: []float64{0.5, 0, 0.3, 0.2},
	}
	r.compact()
	if r.K != 3 {
		t.Fatalf("K=%d after compact, want 3", r.K)
	}
	if want := []int{0, 1, 4}; !reflect.DeepEqual(r.Reps, want) {
		t.Errorf("Reps=%v, want %v", r.Reps, want)
	}
	if want := []int{0, 1, 1, 0, 2}; !reflect.DeepEqual(r.Assign, want) {
		t.Errorf("Assign=%v, want %v", r.Assign, want)
	}
	if want := [][]float64{{0}, {2}, {3}}; !reflect.DeepEqual(r.Centroids, want) {
		t.Errorf("Centroids=%v, want %v", r.Centroids, want)
	}
	if want := []float64{0.5, 0.3, 0.2}; !reflect.DeepEqual(r.ClusterWeight, want) {
		t.Errorf("ClusterWeight=%v, want %v", r.ClusterWeight, want)
	}
}

// TestClusterGoldenSelections freezes the fast path against a table of
// known-good outcomes computed by the reference path, so a regression in
// either engine — or a silent divergence between them — fails with a
// readable diff rather than deep inside an end-to-end run.
func TestClusterGoldenSelections(t *testing.T) {
	for _, tc := range []struct {
		n, trueK, dims, maxK int
		seed                 uint64
	}{
		{60, 3, 8, 10, 1},
		{80, 4, 6, 8, 5},
		{120, 6, 16, 20, 42},
	} {
		t.Run(fmt.Sprintf("n%d-k%d", tc.n, tc.trueK), func(t *testing.T) {
			vecs, _ := blobs(tc.n, tc.trueK, tc.dims, tc.seed)
			slow, err := ClusterSlow(vecs, ones(tc.n), Options{MaxK: tc.maxK, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			fast, err := Cluster(vecs, ones(tc.n), Options{MaxK: tc.maxK, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			if slow.K != tc.trueK {
				t.Errorf("reference path chose k=%d, want %d", slow.K, tc.trueK)
			}
			if !reflect.DeepEqual(slow, fast) {
				t.Errorf("fast path diverges from reference:\nslow: K=%d Reps=%v BIC=%v\nfast: K=%d Reps=%v BIC=%v",
					slow.K, slow.Reps, slow.BICByK, fast.K, fast.Reps, fast.BICByK)
			}
		})
	}
}

// TestSimPointSelectorMatchesDirectCluster pins the refactored medoid
// engine to the pre-interface selection rule: SimPointSelector.Select
// must carry exactly the Result a direct Cluster call produces (same
// arguments, same floats) and draw exactly its Reps, one per cluster —
// the identity that keeps every existing selection, golden file, and
// resume journal valid under the Selector interface.
func TestSimPointSelectorMatchesDirectCluster(t *testing.T) {
	rng := testRNG(31)
	for trial := 0; trial < 5; trial++ {
		n := 8 + rng.intn(50)
		vectors, _ := blobs(n, 1+rng.intn(5), 6, uint64(rng.next()))
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(1 + rng.intn(100000))
		}
		opts := Options{MaxK: 8, Seed: uint64(trial) + 1, Workers: 1 + rng.intn(4)}

		direct, err := Cluster(vectors, weights, opts)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := SimPointSelector{}.Select(vectors, weights, opts, SelectorOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sel.Result, direct) {
			t.Fatalf("trial %d: selector's clustering Result differs from a direct Cluster call", trial)
		}
		if len(sel.Regions) != direct.K {
			t.Fatalf("trial %d: %d draws for %d clusters", trial, len(sel.Regions), direct.K)
		}
		reps := append([]int(nil), direct.Reps...)
		sort.Ints(reps)
		for i, dr := range sel.Regions {
			if dr.Index != reps[i] {
				t.Fatalf("trial %d: draw %d is region %d, want medoid %d", trial, i, dr.Index, reps[i])
			}
			if direct.Assign[dr.Index] != dr.Stratum {
				t.Fatalf("trial %d: draw %d stratum %d, assignment says %d",
					trial, dr.Index, dr.Stratum, direct.Assign[dr.Index])
			}
			if st := sel.Strata[dr.Stratum]; st.Sampled != 1 {
				t.Fatalf("trial %d: medoid stratum %d sampled %d, want exactly 1", trial, dr.Stratum, st.Sampled)
			}
		}
	}
}
