package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"ips/internal/classify"
	"ips/internal/errs"
	"ips/internal/ts"
)

// modelFile is the on-disk JSON representation of a trained model.  Only
// what prediction needs is persisted: shapelets, scaler, and SVM weights;
// discovery diagnostics are not.
type modelFile struct {
	Format    int              `json:"format"`
	Shapelets []shapeletFile   `json:"shapelets"`
	Scaler    *classify.Scaler `json:"scaler"`
	SVM       *svmFile         `json:"svm"`
	Workers   int              `json:"workers,omitempty"`
}

type shapeletFile struct {
	Class  int       `json:"class"`
	Score  float64   `json:"score"`
	Values []float64 `json:"values"`
}

type svmFile struct {
	Classes []int       `json:"classes"`
	W       [][]float64 `json:"w"`
	B       []float64   `json:"b"`
}

// currentFormat is bumped on incompatible changes to the file layout.
const currentFormat = 1

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	if m.SVM == nil || m.Scaler == nil {
		return errs.BadInput(errs.StageData, "model.save", "", "model is not trained")
	}
	mf := modelFile{Format: currentFormat, Scaler: m.Scaler, Workers: m.workers}
	for _, s := range m.Shapelets {
		mf.Shapelets = append(mf.Shapelets, shapeletFile{Class: s.Class, Score: s.Score, Values: s.Values})
	}
	mf.SVM = &svmFile{Classes: m.SVM.Classes, W: m.SVM.W, B: m.SVM.B}
	enc := json.NewEncoder(w)
	return enc.Encode(&mf)
}

// SaveFile writes the model to path atomically: it encodes into a temporary
// file in the same directory, syncs and closes it, then renames it over
// path.  A failed save leaves any existing file at path byte-identical and
// removes the temporary, so a reader never sees a torn or truncated model.
func (m *Model) SaveFile(path string) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // already closed on the rename path; the error is moot
			os.Remove(f.Name())
		}
	}()
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = m.Save(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// LoadModel reads a model previously written by Save.
//
// Every failure mode of a damaged file — truncated or corrupt JSON, a wrong
// format number, missing sections, inconsistent dimensions, non-finite
// weights — returns an error matching errs.ErrBadInput, never a raw decode
// error and never a model that panics later: the scaler and SVM shapes are
// fully cross-checked against the shapelet count here, because Predict
// indexes them without bounds checks on its hot path.
func LoadModel(r io.Reader) (*Model, error) {
	bad := func(format string, args ...any) (*Model, error) {
		return nil, errs.BadInput(errs.StageData, "model.load", "", format, args...)
	}
	var mf modelFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return nil, errs.BadInputErr(errs.StageData, "model.load",
			"", fmt.Errorf("corrupt model file: %w", err))
	}
	if mf.Format != currentFormat {
		return bad("unsupported model format %d", mf.Format)
	}
	if mf.SVM == nil || mf.Scaler == nil || len(mf.Shapelets) == 0 {
		return bad("model file incomplete")
	}
	if len(mf.SVM.W) != len(mf.SVM.Classes) || len(mf.SVM.B) != len(mf.SVM.Classes) {
		return bad("model file SVM shape inconsistent")
	}
	if len(mf.SVM.Classes) < 2 {
		return bad("model file has %d classes, need at least 2", len(mf.SVM.Classes))
	}
	m := &Model{
		Scaler:  mf.Scaler,
		SVM:     &classify.SVM{Classes: mf.SVM.Classes, W: mf.SVM.W, B: mf.SVM.B},
		workers: mf.Workers,
	}
	for i, s := range mf.Shapelets {
		if len(s.Values) == 0 {
			return bad("model file shapelet %d is empty", i)
		}
		for _, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return bad("model file shapelet %d has non-finite values", i)
			}
		}
		m.Shapelets = append(m.Shapelets, classify.Shapelet{
			Class:  s.Class,
			Score:  s.Score,
			Values: ts.Series(s.Values),
		})
	}
	k := len(m.Shapelets)
	if len(m.Scaler.Mean) != k || len(m.Scaler.Std) != k {
		return bad("model file scaler/shapelet dimensions disagree")
	}
	for i := range m.Scaler.Mean {
		if !finite(m.Scaler.Mean[i]) || !finite(m.Scaler.Std[i]) || m.Scaler.Std[i] <= 0 {
			return bad("model file scaler feature %d is degenerate", i)
		}
	}
	for ci, w := range m.SVM.W {
		if len(w) != k {
			return bad("model file SVM weight row %d has %d features, want %d", ci, len(w), k)
		}
		for _, v := range w {
			if !finite(v) {
				return bad("model file SVM weight row %d has non-finite values", ci)
			}
		}
		if !finite(m.SVM.B[ci]) {
			return bad("model file SVM bias %d is non-finite", ci)
		}
	}
	return m, nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// LoadModelFile reads a model from a file.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadModel(f)
}
