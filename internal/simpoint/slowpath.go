package simpoint

import (
	"math"
	"sort"

	"looppoint/internal/bbv"
)

// This file is the naive reference implementation of the clustering
// pipeline — the exact code the fast engine replaced, kept as a test
// oracle (the same playbook the block-batched execution fast path
// followed). Only tests call it: the identity tests here and in core
// assert the two paths produce byte-identical projections and Results;
// any divergence is a bug in the fast engine, never an accepted
// behaviour change.

// ProjectRegionsSlow is the naive reference projection: per-entry
// projection-matrix hashing with no row cache and no materialized sparse
// vectors. Output is byte-identical to ProjectRegions.
func ProjectRegionsSlow(regions []*bbv.Region, nblocks, dims int, seed uint64) [][]float64 {
	out := make([][]float64, len(regions))
	for i, r := range regions {
		v := make([]float64, dims)
		// Sparse BBVs are maps; a fixed traversal order keeps the
		// floating-point accumulation reproducible run to run (map order
		// would perturb vectors by ULPs and flip k-means tie-breaks).
		keys := make([][]int, len(r.Vectors))
		total := 0.0
		for t, tv := range r.Vectors {
			keys[t] = sortedBlocks(tv)
			for _, blk := range keys[t] {
				total += tv[blk]
			}
		}
		if total == 0 {
			out[i] = v
			continue
		}
		for t, tv := range r.Vectors {
			base := t * nblocks
			for _, blk := range keys[t] {
				row := base + blk
				nw := tv[blk] / total
				for d := 0; d < dims; d++ {
					v[d] += nw * projEntry(seed, row, d)
				}
			}
		}
		out[i] = v
	}
	return out
}

// SumProjectRegionsSlow is the naive reference for the summed-BBV
// baseline projection. Output is byte-identical to SumProjectRegions.
func SumProjectRegionsSlow(regions []*bbv.Region, nblocks, dims int, seed uint64) [][]float64 {
	out := make([][]float64, len(regions))
	for i, r := range regions {
		v := make([]float64, dims)
		keys := make([][]int, len(r.Vectors))
		total := 0.0
		for t, tv := range r.Vectors {
			keys[t] = sortedBlocks(tv)
			for _, blk := range keys[t] {
				total += tv[blk]
			}
		}
		if total == 0 {
			out[i] = v
			continue
		}
		for t, tv := range r.Vectors {
			for _, blk := range keys[t] {
				nw := tv[blk] / total
				for d := 0; d < dims; d++ {
					v[d] += nw * projEntry(seed, blk, d)
				}
			}
		}
		out[i] = v
	}
	return out
}

// sortedBlocks returns a sparse BBV's block indices in increasing order.
func sortedBlocks(tv map[int]float64) []int {
	blocks := make([]int, 0, len(tv))
	for blk := range tv {
		blocks = append(blocks, blk)
	}
	sort.Ints(blocks)
	return blocks
}

// ClusterSlow is Cluster on the naive reference path: a serial BIC sweep
// over KMeansSlow with no triangle-inequality acceleration. opts.Workers
// is ignored. The Result is byte-identical to Cluster's.
func ClusterSlow(vectors [][]float64, weights []float64, opts Options) (*Result, error) {
	return cluster(vectors, weights, opts, true)
}

// KMeansSlow is the naive reference k-means: k-means++ seeding with full
// per-round distance recomputation, then plain Lloyd iterations with a
// complete argmin per point per iteration. kmeansFast reproduces its
// output bit for bit.
func KMeansSlow(vectors [][]float64, k int, seed uint64, maxIter int) ([]int, [][]float64, float64) {
	n := len(vectors)
	dims := len(vectors[0])
	rng := seed | 1

	next := func() uint64 {
		rng = splitmix64(rng)
		return rng
	}

	// k-means++ seeding.
	cents := make([][]float64, 0, k)
	first := int(next() % uint64(n))
	cents = append(cents, append([]float64(nil), vectors[first]...))
	d2 := make([]float64, n)
	for len(cents) < k {
		var sum float64
		for i, v := range vectors {
			d := sqDist(v, cents[0])
			for _, c := range cents[1:] {
				if dd := sqDist(v, c); dd < d {
					d = dd
				}
			}
			d2[i] = d
			sum += d
		}
		var pick int
		if sum == 0 {
			pick = int(next() % uint64(n))
		} else {
			target := float64(next()>>11) / float64(1<<53) * sum
			acc := 0.0
			for i, d := range d2 {
				acc += d
				if acc >= target {
					pick = i
					break
				}
			}
		}
		cents = append(cents, append([]float64(nil), vectors[pick]...))
	}

	assign := make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, v := range vectors {
			bestJ, bestD := 0, math.Inf(1)
			for j, c := range cents {
				if d := sqDist(v, c); d < bestD {
					bestJ, bestD = j, d
				}
			}
			if assign[i] != bestJ {
				assign[i] = bestJ
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, k)
		for j := range cents {
			for d := 0; d < dims; d++ {
				cents[j][d] = 0
			}
		}
		for i, v := range vectors {
			j := assign[i]
			counts[j]++
			for d, x := range v {
				cents[j][d] += x
			}
		}
		for j := range cents {
			if counts[j] == 0 {
				continue // dead centroid; stays at origin, compacted later
			}
			for d := 0; d < dims; d++ {
				cents[j][d] /= float64(counts[j])
			}
		}
	}
	var dist float64
	for i, v := range vectors {
		dist += sqDist(v, cents[assign[i]])
	}
	return assign, cents, dist
}
