package classify

import (
	"math"
	"math/rand"
	"testing"
)

func TestTreeSeparable(t *testing.T) {
	X, y := separableData(40, 1)
	tree, err := TrainTree(X, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if a := Accuracy(tree.PredictAll(X), y); a != 100 {
		t.Fatalf("separable tree accuracy = %v", a)
	}
	if tree.Depth() < 1 {
		t.Fatal("tree should split at least once")
	}
}

func TestTreeXOR(t *testing.T) {
	// XOR needs depth >= 2; a linear model cannot solve it, a tree can.
	rng := rand.New(rand.NewSource(2))
	var X [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		a := rng.Float64()*2 - 1
		b := rng.Float64()*2 - 1
		label := 0
		if (a > 0) != (b > 0) {
			label = 1
		}
		X = append(X, []float64{a, b})
		y = append(y, label)
	}
	tree, err := TrainTree(X, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if a := Accuracy(tree.PredictAll(X), y); a < 95 {
		t.Fatalf("XOR tree accuracy = %v", a)
	}
}

func TestTreeDepthLimit(t *testing.T) {
	X, y := separableData(40, 3)
	tree, err := TrainTree(X, y, TreeConfig{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d > 1 {
		t.Fatalf("depth = %d, want <= 1", d)
	}
}

func TestTreeMinLeaf(t *testing.T) {
	// With MinLeaf equal to the class size, the single allowed split still
	// respects the minimum.
	X := [][]float64{{0}, {0.1}, {0.9}, {1}}
	y := []int{0, 0, 1, 1}
	tree, err := TrainTree(X, y, TreeConfig{MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a := Accuracy(tree.PredictAll(X), y); a != 100 {
		t.Fatalf("minleaf accuracy = %v", a)
	}
}

func TestTreePureLeafAndErrors(t *testing.T) {
	// Single-class data produces a leaf-only tree.
	X := [][]float64{{1}, {2}}
	y := []int{7, 7}
	tree, err := TrainTree(X, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() != 0 || tree.Predict([]float64{99}) != 7 {
		t.Fatal("pure data should give a single leaf")
	}
	if _, err := TrainTree(nil, nil, TreeConfig{}); err == nil {
		t.Fatal("empty training should error")
	}
}

func TestTreeConstantFeatures(t *testing.T) {
	// Identical feature vectors with mixed labels: no valid split exists,
	// so the tree must fall back to a majority leaf without looping.
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	y := []int{0, 1, 0}
	tree, err := TrainTree(X, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Predict([]float64{1, 1}) != 0 {
		t.Fatal("majority leaf should predict class 0")
	}
}

// treeSignature flattens a tree into its split features, threshold bits
// and leaf labels in preorder.
func treeSignature(n *treeNode, out []uint64) []uint64 {
	if n.left == nil {
		return append(out, 1, uint64(n.label))
	}
	out = append(out, 0, uint64(n.feature), math.Float64bits(n.threshold))
	return treeSignature(n.right, treeSignature(n.left, out))
}

// TestTreeDeterministicManyClasses trains the same tree 200 times on twelve
// classes whose two feature columns are identical, so every split on one
// column ties exactly with the same split on the other and only the Gini
// impurity's rounding decides between them.  Summing the impurity in
// class order makes that rounding, and so every tree, the same.
func TestTreeDeterministicManyClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var X [][]float64
	var y []int
	for i := 0; i < 240; i++ {
		v := rng.Float64()
		label := int(v*12) + rng.Intn(3) // neighbouring classes overlap
		X = append(X, []float64{v, v})
		y = append(y, 100-7*label)
	}
	var want []uint64
	for call := 0; call < 200; call++ {
		tree, err := TrainTree(X, y, TreeConfig{MaxDepth: 6})
		if err != nil {
			t.Fatal(err)
		}
		got := treeSignature(tree.root, nil)
		if call == 0 {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("call %d: tree shape differs from call 0", call)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("call %d: tree differs from call 0 at preorder word %d", call, i)
			}
		}
	}
}
