// Adversarial-traffic study (the paper's §3.2 evaluation in miniature):
// run all five flattened-butterfly routing algorithms on the worst-case
// pattern — every node attached to router R_i sends to a random node on
// router R_{i+1} — and show that minimal routing collapses to ~1/k of
// capacity while non-minimal global adaptive routing sustains ~50%; then
// run small worst-case batches to expose the transient load imbalance of
// greedy allocation (Fig. 5).
package main

import (
	"fmt"
	"log"

	"flatnet"
)

func main() {
	ff, err := flatnet.NewFlatFly(16, 2) // 256 nodes: quick to simulate
	if err != nil {
		log.Fatal(err)
	}
	wc := flatnet.NewWorstCase(ff.K, ff.NumRouters)
	cfg := flatnet.DefaultConfig()

	fmt.Printf("%s, worst-case traffic (router i -> router i+1)\n\n", ff.Name())
	fmt.Printf("%-8s  %-22s  %-14s\n", "alg", "saturation throughput", "latency @ 0.3")
	for _, name := range []string{"min", "val", "ugal", "ugal-s", "clos"} {
		alg, err := flatnet.NewFlatFlyAlgorithm(name, ff)
		if err != nil {
			log.Fatal(err)
		}
		sat, err := flatnet.SaturationThroughput(ff.Graph(), alg, cfg, wc, 500, 1000)
		if err != nil {
			log.Fatal(err)
		}
		res, err := flatnet.RunLoadPoint(ff.Graph(), alg, cfg, flatnet.RunConfig{
			Load: 0.3, Source: flatnet.NewBernoulliSource(wc), Warmup: 500, Measure: 500, MaxCycles: 4000,
		})
		if err != nil {
			log.Fatal(err)
		}
		lat := fmt.Sprintf("%.2f cycles", res.AvgLatency)
		if res.Saturated {
			lat = "saturated"
		}
		fmt.Printf("%-8s  %-22.3f  %-14s\n", alg.Name(), sat, lat)
	}

	fmt.Println("\nbatch dynamic response (normalized completion latency, lower is better):")
	fmt.Printf("%-8s", "batch")
	algs := []string{"val", "ugal", "ugal-s", "clos"}
	for _, a := range algs {
		fmt.Printf("  %-8s", a)
	}
	fmt.Println()
	for _, batch := range []int{2, 8, 32} {
		fmt.Printf("%-8d", batch)
		for _, name := range algs {
			alg, _ := flatnet.NewFlatFlyAlgorithm(name, ff)
			r, err := flatnet.RunBatch(ff.Graph(), alg, cfg,
				flatnet.BatchConfig{Pattern: wc, BatchSize: batch})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-8.2f", r.NormalizedLatency)
		}
		fmt.Println()
	}
	fmt.Println("\ngreedy UGAL is worst on small batches: all inputs pick the short minimal queue")
	fmt.Println("before the queue state updates; CLOS AD's adaptive intermediate choice is best.")
}
