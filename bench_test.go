// Benchmark harness: one testing.B target per experiment table (E1..E13, see
// DESIGN.md's per-experiment index). Each bench runs the experiment in quick
// mode and reports the competitive-ratio/metric rows via b.Log on the first
// iteration, so `go test -bench=. -benchmem` both times the pipelines and
// regenerates the evaluation rows.
package sparseroute_test

import (
	"testing"

	"sparseroute/internal/experiments"
)

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	r, err := experiments.Find(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tbl, err := r.Run(experiments.Config{Seed: uint64(i + 1), Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tbl.String())
		}
	}
}

// BenchmarkE1LogSparsity regenerates the Theorem 2.3 table: R = O(log n)
// sampled paths are near-optimal on permutation demands.
func BenchmarkE1LogSparsity(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2Tradeoff regenerates the Theorem 2.5 sparsity-competitiveness
// trade-off curve.
func BenchmarkE2Tradeoff(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3Hypercube regenerates the hypercube deterministic-vs-sampled
// separation table.
func BenchmarkE3Hypercube(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4General regenerates the Lemma 2.7 (R+lambda)-sampling table.
func BenchmarkE4General(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5Completion regenerates the Lemmas 2.8/2.9 completion-time
// table.
func BenchmarkE5Completion(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6LowerBound regenerates the Section 8 lower-bound adversary
// table.
func BenchmarkE6LowerBound(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7DynamicProcess regenerates the Section 5.3 deletion-process
// concentration table.
func BenchmarkE7DynamicProcess(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8Traffic regenerates the SMORE-style traffic-engineering and
// sampler-ablation table.
func BenchmarkE8Traffic(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9Ablation regenerates the design-choice ablation table
// (Räcke tree count, sampler source).
func BenchmarkE9Ablation(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10Concentration regenerates the Main-Lemma concentration table
// (empirical failure decay vs Chernoff/bad-pattern bounds).
func BenchmarkE10Concentration(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11Robustness regenerates the link-failure robustness table.
func BenchmarkE11Robustness(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12TopologySweep regenerates the topology-sweep table
// (torus/fat-tree + mesh discipline baselines).
func BenchmarkE12TopologySweep(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13Adversary regenerates the adaptive-adversary table
// (hill-climbing demand search vs sampled systems).
func BenchmarkE13Adversary(b *testing.B) { benchExperiment(b, "E13") }
