package bench

import (
	"context"
	"fmt"
	"sort"

	"ips/internal/core"
)

// Table3Row holds one dataset's best-fit distribution result.
type Table3Row struct {
	Dataset   string
	BestFit   string
	NMSE      float64
	PaperFit  string
	PaperNMSE float64
}

// Table3Datasets are the ten datasets of Table III.
var Table3Datasets = []string{
	"ArrowHead", "BeetleFly", "Coffee", "ECG200", "FordA",
	"GunPoint", "ItalyPowerDemand", "Meat", "Symbols", "ToeSegmentation1",
}

// Table3 reproduces Table III: the best-fit distribution of the DABF bucket
// histogram per dataset under NMSE (Formula 10).  The paper finds Norm on
// 9/10 datasets (Gamma on Meat); the measured column reports what our fitter
// selects on the generated data.  The reported NMSE is averaged over the
// dataset's classes; the fit name is the majority vote across classes.
func (h *Harness) Table3(ctx context.Context) ([]Table3Row, error) {
	ctx = benchCtx(ctx)
	var rows []Table3Row
	for _, name := range Table3Datasets {
		if err := ctxErr(ctx, "bench.table3"); err != nil {
			return nil, err
		}
		train, _, err := h.Load(name)
		if err != nil {
			return nil, err
		}
		res, err := core.Discover(ctx, train, h.ipsOptions())
		if err != nil {
			return nil, err
		}
		fits := res.DABF.PerClass
		// Average the fit errors in class order: float addition is not
		// associative, so map order would change the mean's low bits.
		classes := make([]int, 0, len(fits))
		for c := range fits {
			classes = append(classes, c)
		}
		sort.Ints(classes)
		votes := map[string]int{}
		var nmse float64
		for _, c := range classes {
			cf := fits[c]
			votes[cf.Dist.Name()]++
			nmse += cf.FitNMSE
		}
		nmse /= float64(len(fits))
		best, bestN := "", -1
		for fit, n := range votes {
			if n > bestN || (n == bestN && fit < best) {
				best, bestN = fit, n
			}
		}
		row := Table3Row{Dataset: name, BestFit: best, NMSE: nmse}
		if p, ok := PublishedTable3[name]; ok {
			row.PaperFit = p.Dist
			row.PaperNMSE = p.NMSE
		}
		rows = append(rows, row)
	}

	header := []string{"dataset", "best fit", "NMSE", "paper fit", "paper NMSE"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset, r.BestFit, fmt.Sprintf("%.3f", r.NMSE), r.PaperFit, fmt.Sprintf("%.3f", r.PaperNMSE),
		})
	}
	fmt.Fprintln(h.out(), "Table III — best-fit distribution of DABF construction under NMSE")
	table(h.out(), header, cells)
	return rows, nil
}
