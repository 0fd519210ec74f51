// Topology comparison (the paper's §3.3 / Fig. 6 in miniature): at equal
// bisection bandwidth, compare the flattened butterfly, conventional
// butterfly, 2:1-tapered folded Clos, and hypercube on benign and
// adversarial traffic.
package main

import (
	"fmt"
	"log"

	"flatnet"
)

func main() {
	const k = 16 // 256 nodes: quick to simulate
	ff, err := flatnet.NewFlatFly(k, 2)
	if err != nil {
		log.Fatal(err)
	}
	bf, err := flatnet.NewButterfly(k, 2)
	if err != nil {
		log.Fatal(err)
	}
	fc, err := flatnet.NewFoldedClos(k, k/2, k, k/4) // 2:1 taper = equal bisection
	if err != nil {
		log.Fatal(err)
	}
	hc, err := flatnet.NewHypercube(8)
	if err != nil {
		log.Fatal(err)
	}

	type row struct {
		name string
		g    *flatnet.Graph
		alg  flatnet.Algorithm
	}
	rows := []row{
		{ff.Name() + " / CLOS AD", ff.Graph(), flatnet.NewClosAD(ff)},
		{bf.Name() + " / destination", bf.Graph(), flatnet.NewButterflyDest(bf)},
		{fc.Name() + " / adaptive", fc.Graph(), flatnet.NewFoldedClosAdaptive(fc)},
		{hc.Name() + " / e-cube", hc.Graph(), flatnet.NewECube(hc)},
	}

	n := ff.NumNodes
	cfg := flatnet.DefaultConfig()
	ur := flatnet.NewUniform(n)
	wc := flatnet.NewWorstCase(k, n/k)

	fmt.Printf("%d-node topologies at equal bisection bandwidth\n\n", n)
	fmt.Printf("%-40s  %-12s  %-12s  %-14s\n", "topology / routing", "UR sat", "WC sat", "UR lat @ 0.2")
	for _, r := range rows {
		urSat, err := flatnet.SaturationThroughput(r.g, r.alg, cfg, ur, 500, 1000)
		if err != nil {
			log.Fatal(err)
		}
		wcSat, err := flatnet.SaturationThroughput(r.g, r.alg, cfg, wc, 500, 1000)
		if err != nil {
			log.Fatal(err)
		}
		res, err := flatnet.RunLoadPoint(r.g, r.alg, cfg, flatnet.RunConfig{
			Load: 0.2, Source: flatnet.NewBernoulliSource(ur), Warmup: 500, Measure: 500,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-40s  %-12.3f  %-12.3f  %.2f cycles\n", r.name, urSat, wcSat, res.AvgLatency)
	}
	fmt.Println("\nthe flattened butterfly matches the butterfly on benign traffic (the tapered")
	fmt.Println("Clos is capped at ~50%) and matches the Clos on adversarial traffic (where the")
	fmt.Println("butterfly collapses to ~1/k); the hypercube pays its diameter in latency.")
}
