// ECG classification: compare the IPS shapelet classifier against 1NN-ED
// and the MP baseline (BASE) on an ECG200-style workload, and print the
// confusion matrix — the domain scenario the paper's introduction motivates
// (discriminative subsequences in physiological signals).
package main

import (
	"context"
	"fmt"
	"log"

	ips "ips"
	"ips/internal/baselines"
	"ips/internal/classify"
)

func main() {
	ctx := context.Background()
	train, test, err := ips.GenerateDataset("ECG200", ips.GenConfig{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ECG200-style workload: %d train / %d test, length %d\n\n",
		train.Len(), test.Len(), train.SeriesLen())

	// IPS.
	opt := ips.DefaultOptions()
	opt.IP.Seed, opt.DABF.Seed, opt.SVM.Seed = 5, 5, 5
	ipsAcc, model, err := ips.Evaluate(ctx, train, test, opt)
	if err != nil {
		log.Fatal(err)
	}

	// 1NN-ED.
	nnAcc := classify.EvaluateNN(train.Instances, test.Instances,
		classify.NNConfig{Metric: classify.Euclidean})

	// BASE (the MP baseline the paper analyses in §II-B).
	baseAcc, err := baselines.BaseEvaluateCtx(ctx, train, test,
		baselines.BaseConfig{K: 5}, classify.SVMConfig{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-12s %6.1f%%\n", "IPS", ipsAcc)
	fmt.Printf("%-12s %6.1f%%\n", "1NN-ED", nnAcc)
	fmt.Printf("%-12s %6.1f%%\n\n", "BASE", baseAcc)

	// Confusion matrix for IPS (class 0 = normal beat, 1 = ischemia-like).
	pred, err := model.Predict(ctx, test)
	if err != nil {
		log.Fatal(err)
	}
	var matrix [2][2]int
	for i, in := range test.Instances {
		matrix[in.Label][pred[i]]++
	}
	fmt.Println("IPS confusion matrix (rows = truth, cols = predicted):")
	fmt.Printf("          pred 0  pred 1\n")
	for truth := 0; truth < 2; truth++ {
		fmt.Printf("truth %d   %6d  %6d\n", truth, matrix[truth][0], matrix[truth][1])
	}

	fmt.Printf("\ndiscovery: %d candidates -> %d pruned -> %d shapelets in %.0fms\n",
		model.Discovery.PoolSize, model.Discovery.PrunedSize,
		len(model.Shapelets), model.Discovery.Timings.Total().Seconds()*1e3)
}
