// Quickstart: build a 1/10-scale synthetic I2P network, regenerate two of
// the paper's artifacts (the population timeline and the blocking-rate
// figure), and print them.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	"github.com/i2pstudy/i2pstudy"
)

func main() {
	log.SetFlags(0)

	// DefaultOptions builds a 1/10-scale network (≈3,050 daily peers, 45
	// days). Counts scale linearly; each experiment's Expectations bound
	// its shapes by the paper's. Use i2pstudy.FullScaleOptions() for the
	// 30.5K-peer network.
	study, err := i2pstudy.NewStudy(i2pstudy.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built network at scale %.2f of the paper's\n\n", study.Scale())

	// The registry has one experiment per table/figure. List it:
	fmt.Println("available experiments:")
	for _, e := range i2pstudy.Experiments() {
		fmt.Printf("  %-22s %s\n", e.ID, e.Title)
	}
	fmt.Println()

	// Regenerate Figure 5 (daily population) and Figure 13 (blocking
	// rates under different blacklist windows).
	for _, id := range []string{"figure-05", "figure-13"} {
		res, err := study.RunExperiment(id)
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Printf("=== %s\n%s\n", res.Title, res.Text)
		fmt.Println("headline metrics:")
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %s = %.2f\n", k, res.Metrics[k])
		}
		fmt.Println()
	}
}
