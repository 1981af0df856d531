package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ips/internal/errs"
	"ips/internal/faulty"
)

// trainedModel fits a small model on planted data for serialization tests.
func trainedModel(t *testing.T) *Model {
	t.Helper()
	m, err := Fit(context.Background(), plantedDataset(10, 60, 2, 90), smallOptions(92))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	train := plantedDataset(10, 60, 2, 90)
	test := plantedDataset(10, 60, 2, 91)
	model, err := Fit(context.Background(), train, smallOptions(92))
	if err != nil {
		t.Fatal(err)
	}
	wantPred, err := model.Predict(context.Background(), test)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gotPred, err := loaded.Predict(context.Background(), test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantPred {
		if gotPred[i] != wantPred[i] {
			t.Fatalf("prediction %d differs after round trip", i)
		}
	}
	if len(loaded.Shapelets) != len(model.Shapelets) {
		t.Fatalf("shapelet count %d, want %d", len(loaded.Shapelets), len(model.Shapelets))
	}
}

func TestModelSaveLoadFile(t *testing.T) {
	train := plantedDataset(8, 50, 2, 93)
	model, err := Fit(context.Background(), train, smallOptions(94))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Shapelets) == 0 {
		t.Fatal("loaded model has no shapelets")
	}
	if _, err := LoadModelFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestModelSaveFileAtomic pins that a failed save leaves the previous model
// file byte-identical and loadable, with no temporary left behind.
func TestModelSaveFileAtomic(t *testing.T) {
	train := plantedDataset(8, 50, 2, 95)
	model, err := Fit(context.Background(), train, smallOptions(96))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Model{}).SaveFile(path); err == nil {
		t.Fatal("untrained model should not save")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("failed save changed the file: %d bytes, want %d", len(after), len(before))
	}
	if _, err := LoadModelFile(path); err != nil {
		t.Fatalf("previous model no longer loads: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only model.json", names)
	}
}

func TestModelSaveErrors(t *testing.T) {
	var m Model
	var buf bytes.Buffer
	if err := m.Save(&buf); err == nil {
		t.Fatal("untrained model should not save")
	}
}

func TestLoadModelErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":       "not json",
		"wrong format":  `{"format":99}`,
		"incomplete":    `{"format":1}`,
		"bad svm shape": `{"format":1,"shapelets":[{"class":0,"values":[1]}],"scaler":{"Mean":[0],"Std":[1]},"svm":{"classes":[0,1],"w":[[1]],"b":[0]}}`,
		"scaler mismatch": `{"format":1,"shapelets":[{"class":0,"values":[1]},{"class":1,"values":[2]}],` +
			`"scaler":{"Mean":[0],"Std":[1]},"svm":{"classes":[0,1],"w":[[1],[2]],"b":[0,0]}}`,
	}
	for name, payload := range cases {
		if _, err := LoadModel(strings.NewReader(payload)); err == nil {
			t.Fatalf("%s: should error", name)
		}
	}
}

// TestLoadModelCorruptFilesTyped pins the serving-path contract: every way a
// model file can be damaged — truncated JSON, garbage bytes, inconsistent
// dimensions, degenerate weights — must come back as errs.ErrBadInput, so
// ipsd admin loads fail typed (HTTP 400) instead of crashing the daemon or,
// worse, loading a model that panics at predict time.
func TestLoadModelCorruptFilesTyped(t *testing.T) {
	valid := `{"format":1,"shapelets":[{"class":0,"values":[1,2]},{"class":1,"values":[3,4]}],` +
		`"scaler":{"Mean":[0,0],"Std":[1,1]},"svm":{"classes":[0,1],"w":[[1,1],[2,2]],"b":[0,0]}}`
	if _, err := LoadModel(strings.NewReader(valid)); err != nil {
		t.Fatalf("valid fixture rejected: %v", err)
	}
	cases := map[string]string{
		"truncated json":    valid[:len(valid)/2],
		"empty file":        "",
		"garbage bytes":     "\x00\x01ips\xff",
		"one class":         `{"format":1,"shapelets":[{"class":0,"values":[1]}],"scaler":{"Mean":[0],"Std":[1]},"svm":{"classes":[0],"w":[[1]],"b":[0]}}`,
		"short weight row":  strings.Replace(valid, `"w":[[1,1],[2,2]]`, `"w":[[1],[2,2]]`, 1),
		"long weight row":   strings.Replace(valid, `"w":[[1,1],[2,2]]`, `"w":[[1,1,1],[2,2]]`, 1),
		"short scaler std":  strings.Replace(valid, `"Std":[1,1]`, `"Std":[1]`, 1),
		"zero scaler std":   strings.Replace(valid, `"Std":[1,1]`, `"Std":[1,0]`, 1),
		"empty shapelet":    strings.Replace(valid, `{"class":0,"values":[1,2]}`, `{"class":0,"values":[]}`, 1),
		"nonfinite weights": strings.Replace(valid, `"w":[[1,1],[2,2]]`, `"w":[[1,1],[2,2e999]]`, 1),
	}
	for name, payload := range cases {
		_, err := LoadModel(strings.NewReader(payload))
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if !errors.Is(err, errs.ErrBadInput) {
			t.Fatalf("%s: not ErrBadInput: %v", name, err)
		}
		if diag := faulty.CheckTyped(err); diag != "" {
			t.Fatalf("%s: %s", name, diag)
		}
	}
}

// TestLoadModelDamagedFileOnDisk damages a genuinely saved model file the way
// an interrupted copy would and asserts the typed-load contract end to end.
func TestLoadModelDamagedFileOnDisk(t *testing.T) {
	m := trainedModel(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()*2/3); err != nil {
		t.Fatal(err)
	}
	_, err = LoadModelFile(path)
	if err == nil {
		t.Fatal("truncated model file accepted")
	}
	if !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("truncated model file: not ErrBadInput: %v", err)
	}
}
