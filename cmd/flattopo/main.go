// Command flattopo inspects a topology: prints its parameters, channel
// census and hop-count profile, or emits the router graph as Graphviz DOT.
//
// Examples:
//
//	flattopo -topo ff -k 8 -n 2
//	flattopo -topo ff -k 4 -n 3 -dot > ff.dot
//	flattopo -topo hypercube -dims 6
//	flattopo -topo torus -k 4 -n 3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"flatnet"
	"flatnet/internal/spec"
	"flatnet/internal/topo"
)

func main() {
	var f spec.Flags
	flag.StringVar(&f.Topo, "topo", "ff", "topology: ff | butterfly | clos | hypercube | torus | ghc")
	flag.IntVar(&f.K, "k", 8, "ary")
	flag.IntVar(&f.N, "n", 2, "stages / dimensions+1")
	flag.IntVar(&f.Dims, "dims", 6, "hypercube dimensions")
	flag.IntVar(&f.Taper, "taper", 2, "folded-Clos taper")
	dot := flag.Bool("dot", false, "emit Graphviz DOT instead of a summary")
	flag.Parse()
	if err := run(os.Stdout, f, *dot); err != nil {
		fmt.Fprintln(os.Stderr, "flattopo:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, f spec.Flags, dot bool) error {
	net, err := f.Net()
	if err != nil {
		return err
	}
	t, err := net.Topology()
	if err != nil {
		return err
	}
	g := t.Graph()
	if dot {
		return topo.WriteDOT(w, g)
	}
	fmt.Fprintf(w, "topology:   %s\n", t.Name())
	fmt.Fprintf(w, "nodes:      %d\n", g.NumNodes)
	fmt.Fprintf(w, "routers:    %d\n", g.NumRouters())
	fmt.Fprintf(w, "channels:   %d unidirectional\n", g.CountChannels())
	maxDeg := 0
	for r := 0; r < g.NumRouters(); r++ {
		if d := g.Degree(flatnet.RouterID(r)); d > maxDeg {
			maxDeg = d
		}
	}
	fmt.Fprintf(w, "max degree: %d ports\n", maxDeg)
	if err := g.Validate(); err != nil {
		return fmt.Errorf("graph INVALID: %w", err)
	}
	fmt.Fprintln(w, "graph:      valid")
	return nil
}
