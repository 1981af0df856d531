package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test reads.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// smallArgs are the command's own flags (the classify rates), in small mode
// with a short measured time.
func smallArgs(t *testing.T, b benchmarkFile, workload, trace string) []string {
	args := []string{"-small", "-seconds", "1", "-seed", "3", "-trace", trace, "-workload", workload, "-out", t.TempDir()}
	for i, a := range b.Command {
		if strings.HasSuffix(a, "-rps") && i+1 < len(b.Command) {
			args = append(args, a, b.Command[i+1])
		}
	}
	return args
}

// lastLine decodes the JSON result line that ends standard output.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return r
}

// TestEveryMetricPrinted runs every workload of BENCHMARK.json in small
// mode, untraced and traced, and checks that the result line carries
// exactly the declared metrics with their declared units, and that the
// human-readable report prints each of them with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads")
	}
	for _, w := range b.Workloads {
		for _, mode := range []struct {
			trace string
			defs  []metricDef
		}{{"0", b.EndToEnd}, {"1", b.PerLayer}} {
			var stdout, stderr bytes.Buffer
			if code := run(smallArgs(t, b, w.Name, mode.trace), &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w.Name, mode.trace, code, stdout.String(), stderr.String())
			}
			r := lastLine(t, stdout.String())
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%t attempted=%d failed=%d", w.Name, mode.trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(mode.defs) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json declares %d", w.Name, mode.trace, len(r.Metrics), len(mode.defs))
			}
			for _, d := range mode.defs {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.Name, mode.trace, d.Name, m, d.Unit)
				}
				if !strings.Contains(stdout.String(), "  "+d.Name+" ") {
					t.Errorf("%s trace=%s: report has no line for %s", w.Name, mode.trace, d.Name)
				}
			}
		}
	}
}

// TestPlantedWrongPredictionFails corrupts one expected prediction and
// checks that the run reports it as a failed operation and exits non-zero.
func TestPlantedWrongPredictionFails(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, workload := range []string{"classify", "stream"} {
		var stdout, stderr bytes.Buffer
		cfg, err := parseFlags(smallArgs(t, b, workload, "0"), &stderr)
		if err != nil {
			t.Fatal(err)
		}
		cfg.plantWrong = true
		if code := execute(cfg, &stdout, &stderr); code == 0 {
			t.Errorf("%s: planted wrong prediction, exit 0\n%s", workload, stdout.String())
		}
		r := lastLine(t, stdout.String())
		if r.Correct || r.Failed < 1 {
			t.Errorf("%s: planted wrong prediction reported correct=%t failed=%d", workload, r.Correct, r.Failed)
		}
		if !strings.Contains(stderr.String(), "output mismatch") {
			t.Errorf("%s: stderr does not name the mismatch:\n%s", workload, stderr.String())
		}
	}
}
