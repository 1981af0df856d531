// Command mpview computes the matrix profile of a univariate series and
// prints the top motifs and discords — a standalone front-end to the
// internal/mp substrate for exploring recordings before classification.
//
// Usage:
//
//	mpview -w 50 series.txt         # one value per line
//	mpview -w 24 -dataset ItalyPowerDemand -instance 0
//
// Flags:
//
//	-w N          subsequence length (required)
//	-motifs N     number of motif pairs to report (default 3)
//	-discords N   number of discords to report (default 3)
//	-dataset S    use an instance of a generated UCR dataset instead of a file
//	-instance N   which instance of the dataset (default 0)
//	-seed N       generation seed (default 1)
//	-workers N    parallelise the self-join over diagonal tiles; the
//	              profile is identical for any value (default 1)
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	ips "ips"
	"ips/internal/mp"
	"ips/internal/ts"
)

func main() {
	w := flag.Int("w", 0, "subsequence length")
	motifs := flag.Int("motifs", 3, "motif pairs to report")
	discords := flag.Int("discords", 3, "discords to report")
	dataset := flag.String("dataset", "", "generated UCR dataset name")
	instance := flag.Int("instance", 0, "dataset instance index")
	seed := flag.Int64("seed", 1, "generation seed")
	workers := flag.Int("workers", 1, "parallelise the self-join (profile identical for any value)")
	flag.Parse()

	if *w <= 0 {
		fmt.Fprintln(os.Stderr, "mpview: -w is required and must be positive")
		os.Exit(2)
	}
	series, err := loadSeries(*dataset, *instance, *seed, flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpview:", err)
		os.Exit(1)
	}
	if len(series) < 2**w {
		fmt.Fprintf(os.Stderr, "mpview: series length %d too short for window %d\n", len(series), *w)
		os.Exit(1)
	}

	p, err := mp.SelfJoinCtx(context.Background(), series, *w, nil, mp.Options{Workers: *workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpview:", err)
		os.Exit(1)
	}
	fmt.Printf("series length %d, window %d, %d subsequences\n\n", len(series), *w, p.Len())

	fmt.Println("top motifs (position, neighbour, distance):")
	for _, pair := range p.TopMotifs(*motifs) {
		fmt.Printf("  %5d  %5d  %.4f  %s\n", pair[0], pair[1], p.P[pair[0]],
			ts.Spark(series[pair[0]:pair[0]+*w]))
	}
	fmt.Println("\ntop discords (position, distance):")
	for _, idx := range p.TopDiscords(*discords) {
		fmt.Printf("  %5d  %.4f  %s\n", idx, p.P[idx], ts.Spark(series[idx:idx+*w]))
	}
}

func loadSeries(dataset string, instance int, seed int64, path string) (ips.Series, error) {
	if dataset != "" {
		train, _, err := ips.GenerateDataset(dataset, ips.GenConfig{Seed: seed})
		if err != nil {
			return nil, err
		}
		if instance < 0 || instance >= train.Len() {
			return nil, fmt.Errorf("instance %d out of range [0,%d)", instance, train.Len())
		}
		return train.Instances[instance].Values, nil
	}
	if path == "" {
		return nil, fmt.Errorf("need a series file or -dataset")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out ips.Series
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		for _, field := range strings.Fields(line) {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q: %w", field, err)
			}
			out = append(out, v)
		}
	}
	return out, sc.Err()
}
