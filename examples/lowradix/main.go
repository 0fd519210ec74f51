// Low-radix versus high-radix (the paper's §1 motivation): with router
// bandwidth fixed, a k-ary n-cube torus spends it on a few wide ports and
// pays a large hop count; a flattened butterfly spends it on many narrow
// ports and reaches any router in one or two hops. Compare a 4-ary
// 3-cube, an 8-dimensional hypercube-like torus, and flattened
// butterflies at the same node counts.
package main

import (
	"fmt"
	"log"

	"flatnet"
)

func measure(name string, g *flatnet.Graph, alg flatnet.Algorithm, nodes int) {
	res, err := flatnet.RunLoadPoint(g, alg, flatnet.DefaultConfig(), flatnet.RunConfig{
		Load:    0.15,
		Source:  flatnet.NewBernoulliSource(flatnet.NewUniform(nodes)),
		Warmup:  800,
		Measure: 800,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s  %8.2f  %8.2f\n", name, res.AvgHops, res.AvgLatency)
}

func main() {
	fmt.Println("uniform random at 15% load: average hops and latency (cycles)")
	fmt.Printf("%-22s  %8s  %8s\n", "network", "hops", "latency")

	// 64 nodes.
	tor, err := flatnet.NewTorus(4, 3)
	if err != nil {
		log.Fatal(err)
	}
	measure(tor.Name(), tor.Graph(), flatnet.NewTorusDOR(tor), tor.NumNodes)

	ff64, err := flatnet.NewFlatFly(8, 2)
	if err != nil {
		log.Fatal(err)
	}
	measure(ff64.Name(), ff64.Graph(), flatnet.NewMinAD(ff64), ff64.NumNodes)

	// 256 nodes.
	tor2, err := flatnet.NewTorus(4, 4)
	if err != nil {
		log.Fatal(err)
	}
	measure(tor2.Name(), tor2.Graph(), flatnet.NewTorusDOR(tor2), tor2.NumNodes)

	ff256, err := flatnet.NewFlatFly(16, 2)
	if err != nil {
		log.Fatal(err)
	}
	measure(ff256.Name(), ff256.Graph(), flatnet.NewMinAD(ff256), ff256.NumNodes)

	fmt.Println()
	fmt.Println("the torus needs several hops per packet where the flattened butterfly")
	fmt.Println("needs (at most) one inter-router hop — the same router pin bandwidth,")
	fmt.Println("spent as many narrow ports instead of a few wide ones (§1 of the paper).")
}
