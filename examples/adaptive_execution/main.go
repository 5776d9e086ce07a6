// Adaptive execution: the strategy the paper's modality analysis motivates
// — since most samples are solvable from the major modality alone (Figure
// 5), run the cheap uni-modal network first and escalate only
// low-confidence samples to the full multi-modal network.
//
// Run with: go run ./examples/adaptive_execution
package main

import (
	"fmt"
	"log"

	"mmbench/internal/adaptive"
	"mmbench/internal/device"
	"mmbench/internal/tensor"
	"mmbench/internal/train"
	"mmbench/internal/workloads"
)

func main() {
	fmt.Println("Adaptive execution on AV-MNIST: uni-modal cascade with")
	fmt.Println("confidence-gated escalation to the multi-modal network.")
	fmt.Println()

	full, err := workloads.Build("avmnist", "concat", false, workloads.WeightSeed)
	if err != nil {
		log.Fatal(err)
	}
	major, err := workloads.Build("avmnist", "uni:image", false, workloads.WeightSeed)
	if err != nil {
		log.Fatal(err)
	}
	major.Gen = full.Gen // same data distribution for both networks

	fmt.Println("training both networks...")
	cfg := train.DefaultConfig()
	train.Fit(full, cfg)
	train.Fit(major, cfg)

	fmt.Printf("\n%10s %10s %12s %10s\n", "threshold", "accuracy", "escalated", "cost/full")
	for _, threshold := range []float64{0.5, 0.7, 0.9, 0.99} {
		c, err := adaptive.New(major, full, threshold)
		if err != nil {
			log.Fatal(err)
		}
		res, err := adaptive.Evaluate(c, device.RTX2080Ti(), tensor.NewRNG(7), 4, 64)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10.2f %10.3f %11.1f%% %10.2f\n",
			threshold, res.CascadeAccuracy, res.EscalationRate*100, res.CostRatio)
	}

	c, _ := adaptive.New(major, full, 0.9)
	res, err := adaptive.Evaluate(c, device.RTX2080Ti(), tensor.NewRNG(7), 4, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEndpoints: uni-modal %.3f, multi-modal %.3f accuracy.\n",
		res.MajorAccuracy, res.FullAccuracy)
	fmt.Println("The cascade recovers most of the fusion accuracy while skipping")
	fmt.Println("the second encoder and the fusion network for most samples —")
	fmt.Println("the performance-complexity trade-off of the paper's Section 4.2.3.")
}
