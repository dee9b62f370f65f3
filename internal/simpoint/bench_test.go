package simpoint

import (
	"testing"

	"looppoint/internal/bbv"
)

// Benchmarks run the fast engine and the naive reference path at
// paper-like scale (≥1000 regions, dims=100) so a perf regression in
// either — or an erosion of the fast path's advantage — shows up in the
// CI bench smoke. BENCH_simpoint.json records the measured before/after
// numbers.

// benchRegions builds a multi-threaded sparse BBV set shaped like a real
// profile: n regions, `threads` per-thread vectors, ~blocksPerThread
// touched blocks each, drawn from nblocks static blocks.
func benchRegions(n, threads, blocksPerThread, nblocks int) []*bbv.Region {
	regions := make([]*bbv.Region, n)
	for i := range regions {
		vecs := make([]map[int]float64, threads)
		for t := range vecs {
			vecs[t] = map[int]float64{}
			for k := 0; k < blocksPerThread; k++ {
				vecs[t][(i*7+t*3+k*13)%nblocks] = float64(k + 1)
			}
		}
		regions[i] = &bbv.Region{Index: i, Vectors: vecs}
	}
	return regions
}

// BenchmarkProjectRegions measures the sparse fast-path projection:
// materialized sparse vectors dotted against cached projection rows.
func BenchmarkProjectRegions(b *testing.B) {
	regions := benchRegions(1000, 8, 40, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ProjectRegions(regions, 500, DefaultDims, 42)
	}
}

// BenchmarkProjectRegionsSlow measures the naive reference projection
// (per-entry splitmix64 hashing) on the same input.
func BenchmarkProjectRegionsSlow(b *testing.B) {
	regions := benchRegions(1000, 8, 40, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ProjectRegionsSlow(regions, 500, DefaultDims, 42)
	}
}

// BenchmarkCluster measures the full accelerated k-means + BIC sweep at
// paper-like scale: 1000 regions, 100 dimensions, maxK 20, default
// worker width.
func BenchmarkCluster(b *testing.B) {
	vecs, _ := blobs(1000, 8, DefaultDims, 3)
	w := ones(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(vecs, w, Options{MaxK: 20, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterSlow is the same sweep on the naive serial reference
// path — the pre-fast-engine cost of region selection.
func BenchmarkClusterSlow(b *testing.B) {
	vecs, _ := blobs(1000, 8, DefaultDims, 3)
	w := ones(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ClusterSlow(vecs, w, Options{MaxK: 20, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansFast isolates one accelerated k-means run (k=16).
func BenchmarkKMeansFast(b *testing.B) {
	vecs, _ := blobs(1000, 8, DefaultDims, 3)
	n, dims := len(vecs), DefaultDims
	flat := make([]float64, n*dims)
	for i, v := range vecs {
		copy(flat[i*dims:], v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kmeansFast(flat, n, dims, 16, 17, 100)
	}
}

// BenchmarkKMeansSlow isolates the matching naive run.
func BenchmarkKMeansSlow(b *testing.B) {
	vecs, _ := blobs(1000, 8, DefaultDims, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeansSlow(vecs, 16, 17, 100)
	}
}
