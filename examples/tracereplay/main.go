// Trace record and replay: run a bursty workload on the flattened
// butterfly while recording every packet, then replay the identical trace
// under a different routing algorithm to compare them on exactly the same
// traffic — the methodology production network simulators use for
// apples-to-apples routing studies.
package main

import (
	"bytes"
	"fmt"
	"log"

	"flatnet"
)

func main() {
	ff, err := flatnet.NewFlatFly(16, 2)
	if err != nil {
		log.Fatal(err)
	}
	wc := flatnet.NewWorstCase(ff.K, ff.NumRouters)

	// Record: UGAL-S under bursty worst-case traffic.
	rec, err := flatnet.NewNetwork(ff.Graph(), flatnet.NewUGALS(ff), flatnet.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	src, err := flatnet.NewOnOffSource(wc, 1.0, 20)
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.SetSource(src); err != nil {
		log.Fatal(err)
	}
	trace := rec.RecordTrace()
	var latRec float64
	var nRec int64
	rec.AttachHooks(&flatnet.Hooks{Deliver: func(p *flatnet.Packet, cycle int64) {
		latRec += float64(cycle - p.InjectCycle)
		nRec++
	}})
	for i := 0; i < 2000; i++ {
		if err := rec.Generate(0.25); err != nil {
			log.Fatal(err)
		}
		rec.Step()
	}
	for i := 0; i < 20000; i++ {
		rec.Step()
		if inj, del := rec.Totals(); inj == del {
			break
		}
	}
	fmt.Printf("recorded %d packets (bursty worst-case, UGAL-S): avg latency %.2f cycles\n",
		len(*trace), latRec/float64(nRec))
	var wl bytes.Buffer
	if err := flatnet.WriteWorkloadJSONL(&wl, *trace); err != nil {
		log.Fatal(err)
	}

	// Replay the identical packet sequence under CLOS AD.
	for _, alg := range []flatnet.Algorithm{flatnet.NewClosAD(ff), flatnet.NewValiant(ff)} {
		rep, err := flatnet.NewNetwork(ff.Graph(), alg, flatnet.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		var latSum float64
		var n int64
		rep.AttachHooks(&flatnet.Hooks{Deliver: func(p *flatnet.Packet, cycle int64) {
			latSum += float64(cycle - p.InjectCycle)
			n++
		}})
		sc := flatnet.NewTraceScanner(bytes.NewReader(wl.Bytes()))
		if _, err := rep.ReplayTrace(sc, 100000, nil); err != nil {
			log.Fatalf("%s: %v", alg.Name(), err)
		}
		fmt.Printf("replayed under %-8s: avg latency %.2f cycles over the identical traffic\n",
			alg.Name(), latSum/float64(n))
	}
	fmt.Println("\nCLOS AD's adaptive intermediate choice absorbs the bursts best; VAL pays")
	fmt.Println("its doubled hop count on every packet (§3.1-3.2 of the paper).")
}
