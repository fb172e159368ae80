// Leadtrace: use the observation API to watch the slipstream mechanism
// work. For each A-R synchronization policy the example runs CG, records
// session boundaries with a Leads observer, and prints how far ahead of its
// R-stream the A-stream runs — the lead that decides whether its
// prefetches are timely (Figure 7 of the paper) — with the A-R token
// consumes and their mean wait from a Metrics observer, and the adaptive
// controller's choices for comparison.
//
//	go run ./examples/leadtrace
package main

import (
	"fmt"
	"log"

	"slipstream"
)

func main() {
	const kernel = "CG"
	const cmps = 8

	fmt.Printf("%s on %d CMPs: A-stream lead over R-stream at session boundaries\n\n", kernel, cmps)
	fmt.Printf("%-10s %14s %16s %14s %12s\n", "policy", "mean lead", "token consumes", "mean token", "cycles")

	for _, ar := range slipstream.ARSyncs {
		leads, metrics := &slipstream.Leads{}, &slipstream.Metrics{}
		k, err := slipstream.NewKernel(kernel, slipstream.SizeSmall)
		if err != nil {
			log.Fatal(err)
		}
		res, err := slipstream.Run(slipstream.Options{
			CMPs: cmps, Mode: slipstream.Slipstream, ARSync: ar,
			Observers: []slipstream.Observer{leads, metrics},
		}, k)
		if err != nil {
			log.Fatal(err)
		}
		if res.VerifyErr != nil {
			log.Fatal(res.VerifyErr)
		}
		// wait.arsync holds every token consume, zero-wait ones included.
		var consumes int64
		var meanWait float64
		if h := metrics.Histogram("wait.arsync"); h != nil && h.Count > 0 {
			consumes, meanWait = h.Count, float64(h.Sum)/float64(h.Count)
		}
		fmt.Printf("%-10s %11.0f cy %16d %11.0f cy %12d\n",
			ar, leads.Mean(), consumes, meanWait, res.Cycles)
	}

	// The adaptive controller (the paper's Section 6 future work) picks a
	// policy per pair at run time from the same evidence.
	leads := &slipstream.Leads{}
	k, err := slipstream.NewKernel(kernel, slipstream.SizeSmall)
	if err != nil {
		log.Fatal(err)
	}
	res, err := slipstream.Run(slipstream.Options{
		CMPs: cmps, Mode: slipstream.Slipstream,
		ARSync: slipstream.L1, AdaptiveARSync: true,
		Observers: []slipstream.Observer{leads},
	}, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %11.0f cy %16s %14s %12d  (switches: %d, final: %v)\n",
		"adaptive", leads.Mean(), "-", "-", res.Cycles,
		res.PolicySwitches, res.FinalPolicies)

	fmt.Println("\nLooser policies (L1, G1) let the A-stream bank a larger lead, making")
	fmt.Println("more of its fetches timely — at the risk of premature migration; tighter")
	fmt.Println("policies (L0, G0) keep it just ahead. The adaptive controller tightens")
	fmt.Println("pairs whose windows show premature fetches and loosens ones running late.")
}
