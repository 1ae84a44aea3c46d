// Floorplan: mixed block/cell placement — the paper's flagship claim is
// that Kraftwerk handles big blocks and small cells together "without
// treating blocks and cells differently" (§5). Four macro blocks and a sea
// of standard cells are placed by the same force-directed loop; flexible
// blocks reshape toward their connectivity, and legalization produces a
// non-overlapping floorplan.
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/visual"
)

func main() {
	log.SetFlags(0)

	nl := placement.Generate(placement.GenConfig{
		Name:   "floorplan-demo",
		Cells:  400,
		Nets:   520,
		Rows:   30,
		Blocks: 4,
		Seed:   7,
	})
	fmt.Println(placement.ComputeStats(nl))

	res, err := placement.Floorplan(nl, placement.Config{MaxIter: 120})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("floorplanned %d blocks (%d reshapes) in %d global iterations\n",
		res.Blocks, res.Reshapes, res.Place.Iterations)
	fmt.Printf("HPWL %.1f, residual overlap %.4f\n", res.HPWL, nl.OverlapArea())

	fmt.Println("\nfinal floorplan ('#' = macro blocks, digits = cell density):")
	visual.Plot(os.Stdout, nl, 100, 20)
}
