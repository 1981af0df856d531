package bench

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"ips/internal/ts"
)

func quickHarness(buf *bytes.Buffer) *Harness {
	return &Harness{Quick: true, Seed: 1, Out: buf}
}

func TestPublishedDataComplete(t *testing.T) {
	names := AllDatasets()
	if len(names) != 46 {
		t.Fatalf("AllDatasets = %d, want 46", len(names))
	}
	for _, name := range names {
		acc, ok := PublishedAccuracy[name]
		if !ok {
			t.Fatalf("no published accuracy for %s", name)
		}
		if len(acc) != len(Methods) {
			t.Fatalf("%s has %d accuracy columns, want %d", name, len(acc), len(Methods))
		}
		if _, ok := PublishedRuntime[name]; !ok {
			t.Fatalf("no published runtime for %s", name)
		}
	}
	if len(Methods) != 13 {
		t.Fatalf("methods = %d, want 13", len(Methods))
	}
}

func TestHarnessLoadSyntheticAndQuickCaps(t *testing.T) {
	h := quickHarness(&bytes.Buffer{})
	train, test, err := h.Load("FordA") // real size 3601/1320/500 — must be capped
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() > 30 || test.Len() > 60 || train.SeriesLen() > 160 {
		t.Fatalf("quick caps not applied: %d/%d len %d", train.Len(), test.Len(), train.SeriesLen())
	}
}

func TestTable2Quick(t *testing.T) {
	var buf bytes.Buffer
	h := quickHarness(&buf)
	rows, err := h.Table2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.BaseAcc) != 3 { // quick ks
			t.Fatalf("%s ks = %v", r.Dataset, r.BaseAcc)
		}
		if r.ED <= 0 || r.DTW <= 0 {
			t.Fatalf("%s baselines missing", r.Dataset)
		}
	}
	if !strings.Contains(buf.String(), "Table II") {
		t.Fatal("output missing table header")
	}
}

func TestTable3Quick(t *testing.T) {
	var buf bytes.Buffer
	h := quickHarness(&buf)
	rows, err := h.Table3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	normish := 0
	for _, r := range rows {
		if r.BestFit == "" || r.NMSE < 0 {
			t.Fatalf("bad row %+v", r)
		}
		if r.BestFit == "Norm" || r.BestFit == "Gamma" {
			normish++
		}
	}
	// The paper finds Norm/Gamma on all ten; our fit should mostly agree.
	if normish < 6 {
		t.Fatalf("only %d/10 datasets fit Norm/Gamma", normish)
	}
}

func TestTable4Quick(t *testing.T) {
	var buf bytes.Buffer
	h := quickHarness(&buf)
	rows, err := h.Table4(context.Background(), []string{"ItalyPowerDemand", "ECG200", "GunPoint"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	fasterThanBSP := 0
	for _, r := range rows {
		if r.IPS <= 0 || r.Base <= 0 || r.BSP <= 0 {
			t.Fatalf("missing timings: %+v", r)
		}
		if r.SpeedupIPSvsBSP > 1 {
			fasterThanBSP++
		}
	}
	// The headline claim, at reduced scale: IPS beats BSPCOVER on most.
	if fasterThanBSP < 2 {
		t.Fatalf("IPS faster than BSPCOVER on only %d/3 datasets", fasterThanBSP)
	}
}

func TestTable5Quick(t *testing.T) {
	var buf bytes.Buffer
	h := quickHarness(&buf)
	rows, err := h.Table5(context.Background(), []string{"ArrowHead", "ShapeletSim"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CandidateGen <= 0 {
			t.Fatalf("no candidate generation time for %s", r.Dataset)
		}
		if r.PruneDABF <= 0 || r.PruneNaive <= 0 || r.SelectRaw <= 0 || r.SelectOptimised <= 0 {
			t.Fatalf("missing step timings: %+v", r)
		}
		requirePrintedTimes(t, buf.String(), r.Dataset, r.CandidateGen, r.PruneNaive, r.PruneDABF, r.SelectRaw, r.SelectOptimised)
	}
}

// requirePrintedTimes fails when a positive duration prints as zero in
// dataset's row of a printed table, whose cells after the dataset name are
// durs in order.
func requirePrintedTimes(t *testing.T, out, dataset string, durs ...time.Duration) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		cells := strings.Fields(line)
		if len(cells) <= len(durs) || cells[0] != dataset {
			continue
		}
		for c, d := range durs {
			v, err := strconv.ParseFloat(cells[1+c], 64)
			if err != nil || d > 0 && v == 0 {
				t.Errorf("%s: column %d prints %v as %q", dataset, 1+c, d, cells[1+c])
			}
		}
		return
	}
	t.Fatalf("no %s row in\n%s", dataset, out)
}

func TestTable6Quick(t *testing.T) {
	var buf bytes.Buffer
	h := quickHarness(&buf)
	h.Runs = 3 // the paper averages 5 runs; 3 keeps CI noise down
	datasets := []string{"ItalyPowerDemand", "GunPoint", "Coffee", "TwoLeadECG", "ECG200", "ArrowHead"}
	rows, err := h.Table6(context.Background(), datasets)
	if err != nil {
		t.Fatal(err)
	}
	ipsBeatsBase := 0
	for _, r := range rows {
		if r.IPS <= 0 || r.Base <= 0 || r.ED <= 0 {
			t.Fatalf("missing accuracies: %+v", r)
		}
		if r.IPS >= r.Base {
			ipsBeatsBase++
		}
	}
	// Paper: IPS above BASE on 41/46; demand a majority at quick scale.
	if ipsBeatsBase < 4 {
		t.Fatalf("IPS >= BASE on only %d/%d datasets", ipsBeatsBase, len(datasets))
	}
}

func TestTable7Quick(t *testing.T) {
	var buf bytes.Buffer
	h := quickHarness(&buf)
	rows, err := h.Table7(context.Background(), []string{"ItalyPowerDemand", "GunPoint"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Acc) != 3 {
			t.Fatalf("families = %d", len(r.Acc))
		}
	}
}

func TestFig9Quick(t *testing.T) {
	var buf bytes.Buffer
	h := quickHarness(&buf)
	res, err := h.Fig9(context.Background(), []string{"BeetleFly"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].IPS) != 3 {
		t.Fatalf("unexpected sweep shape: %+v", res)
	}
}

func TestFig10Quick(t *testing.T) {
	var buf bytes.Buffer
	h := quickHarness(&buf)
	rowsA, err := h.Fig10a(context.Background(), []string{"ItalyPowerDemand", "ECG200"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rowsA {
		if r.WithDABF <= 0 || r.WithoutDAB <= 0 {
			t.Fatalf("missing prune timings: %+v", r)
		}
		requirePrintedTimes(t, buf.String(), r.Dataset, r.WithDABF, r.WithoutDAB)
	}
	buf.Reset()
	rowsBC, err := h.Fig10bc(context.Background(), []string{"ItalyPowerDemand"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsBC) != 1 || rowsBC[0].TimeRaw <= 0 {
		t.Fatalf("missing selection timings: %+v", rowsBC)
	}
	requirePrintedTimes(t, buf.String(), "ItalyPowerDemand", rowsBC[0].TimeDTCR, rowsBC[0].TimeRaw)
}

func TestFig11OnPublishedMatrix(t *testing.T) {
	var buf bytes.Buffer
	h := quickHarness(&buf)
	res, err := h.Fig11(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports p = 0.00: overwhelmingly significant.
	if res.Friedman.PValue > 1e-6 {
		t.Fatalf("Friedman p = %v", res.Friedman.PValue)
	}
	// IPS is ranked 4th among the 13 methods in the paper.
	pos := -1
	for i, r := range res.Ranked {
		if r.Method == "IPS" {
			pos = i + 1
		}
	}
	if pos < 3 || pos > 5 {
		t.Fatalf("IPS ranked %d on the published matrix, paper says 4th", pos)
	}
	// COTE-IPS is ranked 1st.
	if res.Ranked[0].Method != "COTE-IPS" {
		t.Fatalf("top method = %s, paper says COTE-IPS", res.Ranked[0].Method)
	}
	// BASE and FS/SD near the bottom.
	bottom := map[string]bool{}
	for _, r := range res.Ranked[len(res.Ranked)-4:] {
		bottom[r.Method] = true
	}
	if !bottom["BASE"] {
		t.Fatalf("BASE not in the bottom four: %+v", res.Ranked)
	}
	if len(res.Wilcoxon) != 12 {
		t.Fatalf("wilcoxon pairs = %d", len(res.Wilcoxon))
	}
	if !strings.Contains(buf.String(), "CD") {
		t.Fatal("no CD diagram in output")
	}
}

func TestFig12Quick(t *testing.T) {
	var buf bytes.Buffer
	h := quickHarness(&buf)
	rows, err := h.Fig12(context.Background(), []string{"ArrowHead", "MoteStrain"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Acc) != 3 {
			t.Fatalf("%s sweep = %v", r.Dataset, r.Acc)
		}
	}
}

func TestFig13Quick(t *testing.T) {
	var buf bytes.Buffer
	h := quickHarness(&buf)
	res, err := h.Fig13(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPSShapelet.Values) == 0 || len(res.BSPShapelet.Values) == 0 {
		t.Fatal("missing case-study shapelets")
	}
	if len(res.ClassMeans) != 2 {
		t.Fatalf("class means = %d", len(res.ClassMeans))
	}
	out := buf.String()
	if !strings.Contains(out, "IPS shapelet") || !strings.Contains(out, "BSPCOVER shapelet") {
		t.Fatal("case study output incomplete")
	}
}

func TestParamsQuick(t *testing.T) {
	var buf bytes.Buffer
	h := quickHarness(&buf)
	res, err := h.Params(context.Background(), []string{"ItalyPowerDemand"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Rows) != 6 { // 2 QN × 3 QS in quick mode
		t.Fatalf("sweep shape = %+v", res)
	}
	for _, r := range res[0].Rows {
		if r.Accuracy <= 0 || r.Runtime <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
	if !strings.Contains(buf.String(), "Parameter sensitivity") {
		t.Fatal("missing output header")
	}
}

func TestTable6ExtendedQuick(t *testing.T) {
	var buf bytes.Buffer
	h := quickHarness(&buf)
	rows, err := h.Table6Extended(context.Background(), []string{"ItalyPowerDemand", "GunPoint"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RotF <= 0 || r.LTS <= 0 || r.FS <= 0 || r.ST <= 0 || r.SDTree <= 0 || r.FCN <= 0 {
			t.Fatalf("missing extended measurements: %+v", r)
		}
	}
}

func TestAblationQuick(t *testing.T) {
	var buf bytes.Buffer
	h := quickHarness(&buf)
	res, err := h.Ablation(context.Background(), []string{"ItalyPowerDemand"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Rows) != 5 {
		t.Fatalf("ablation shape = %+v", res)
	}
	for _, r := range res[0].Rows {
		if r.Accuracy <= 0 || r.Runtime <= 0 {
			t.Fatalf("bad variant row %+v", r)
		}
	}
	if !strings.Contains(buf.String(), "Design-choice ablation") {
		t.Fatal("missing output header")
	}
}

func TestCOTEQuick(t *testing.T) {
	var buf bytes.Buffer
	h := quickHarness(&buf)
	rows, err := h.COTE(context.Background(), []string{"ItalyPowerDemand"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if len(r.Members) < 10 {
		t.Fatalf("ensemble members = %d", len(r.Members))
	}
	// The weighted ensemble should be within a few points of its best
	// member (the paper's COTE-IPS property).
	if r.Ensemble < r.BestMember-10 {
		t.Fatalf("ensemble %v far below best member %v (%s)", r.Ensemble, r.BestMember, r.BestName)
	}
}

// TestCOTEBestMemberTie pins COTE's choice among tied members: the name
// that sorts first wins, whatever the map's iteration order.
func TestCOTEBestMemberTie(t *testing.T) {
	members := map[string]float64{"LTS": 100, "FS": 100, "ST": 100, "IPS": 95, "BASE": 90}
	for i := 0; i < 50; i++ {
		if name, acc := bestMember(members); name != "FS" || acc < 100 {
			t.Fatalf("bestMember = %s %v, want FS 100", name, acc)
		}
	}
	if name, _ := bestMember(nil); name != "" {
		t.Fatalf("bestMember(nil) = %q, want none", name)
	}
}

// TestSparkline checks the sparklines fig13 draws with ts.Spark: one rune per
// value, none for an empty series, and all ▁ for a flat one.
func TestSparkline(t *testing.T) {
	s := ts.Spark([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline runes = %q", s)
	}
	if ts.Spark(nil) != "" {
		t.Fatal("empty sparkline should be empty")
	}
	flat := ts.Spark([]float64{5, 5, 5})
	for _, r := range flat {
		if r != '▁' {
			t.Fatalf("flat sparkline = %q", flat)
		}
	}
}

func TestRenderCDEmpty(t *testing.T) {
	if renderCD(nil, 1) != "" {
		t.Fatal("empty CD diagram should be empty")
	}
}

func TestTableFormatting(t *testing.T) {
	var buf bytes.Buffer
	table(&buf, []string{"a", "bb"}, [][]string{{"111", "2"}})
	out := buf.String()
	if !strings.Contains(out, "a    bb") && !strings.Contains(out, "a  ") {
		t.Fatalf("table output = %q", out)
	}
	if !strings.Contains(out, "---") {
		t.Fatalf("missing separator: %q", out)
	}
}
