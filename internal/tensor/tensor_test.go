package tensor

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/avfi/avfi/internal/rng"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Len() != 6 || x.Dims() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("shape wrong: %v", x.Shape())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if x.At(i, j) != 0 {
				t.Fatal("not zero filled")
			}
		}
	}
}

func TestAtSetRowMajor(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if x.Data()[5] != 7 {
		t.Errorf("Set(1,2) did not write offset 5: %v", x.Data())
	}
	if x.At(1, 2) != 7 {
		t.Error("At(1,2) readback failed")
	}
}

func TestFromSliceValidation(t *testing.T) {
	if _, err := FromSlice([]float64{1, 2, 3}, 2, 2); !errors.Is(err, ErrShape) {
		t.Errorf("expected ErrShape, got %v", err)
	}
	x, err := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if x.At(1, 0) != 3 {
		t.Error("FromSlice layout wrong")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y, err := x.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	y.Set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Error("Reshape did not share storage")
	}
	if _, err := x.Reshape(4, 2); !errors.Is(err, ErrShape) {
		t.Error("bad reshape did not error")
	}
}

func TestCloneIndependent(t *testing.T) {
	x := MustFromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestApplyAndScale(t *testing.T) {
	x := MustFromSlice([]float64{1, -2, 3}, 3)
	x.Apply(math.Abs)
	if x.At(1) != 2 {
		t.Error("Apply failed")
	}
	x.ScaleInPlace(2)
	if x.At(2) != 6 {
		t.Error("ScaleInPlace failed")
	}
}

func TestAddMul(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := MustFromSlice([]float64{10, 20, 30, 40}, 2, 2)
	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.At(1, 1) != 44 {
		t.Errorf("Add = %v", sum)
	}
	prod, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if prod.At(1, 0) != 90 {
		t.Errorf("Mul = %v", prod)
	}
	if _, err := Add(a, New(3)); !errors.Is(err, ErrShape) {
		t.Error("shape-mismatched Add did not error")
	}
	if _, err := Mul(a, New(3)); !errors.Is(err, ErrShape) {
		t.Error("shape-mismatched Mul did not error")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data(), want)
		}
	}
}

func TestMatMulShapeError(t *testing.T) {
	if _, err := MatMul(New(2, 3), New(2, 3)); !errors.Is(err, ErrShape) {
		t.Error("incompatible MatMul did not error")
	}
	if _, err := MatMul(New(6), New(2, 3)); !errors.Is(err, ErrShape) {
		t.Error("1-d MatMul did not error")
	}
}

func TestMatMulTransBMatchesExplicit(t *testing.T) {
	r := rng.New(1)
	a := randTensor(r, 4, 5)
	b := randTensor(r, 3, 5) // b^T is 5x3
	got, err := MatMulTransB(a, b)
	if err != nil {
		t.Fatal(err)
	}
	bt := transpose(b)
	want, err := MatMul(a, bt)
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, got, want, 1e-12)
}

func TestMatMulTransAMatchesExplicit(t *testing.T) {
	r := rng.New(2)
	a := randTensor(r, 5, 4) // a^T is 4x5
	b := randTensor(r, 5, 3)
	got, err := MatMulTransA(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MatMul(transpose(a), b)
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, got, want, 1e-12)
}

func TestAddRowVec(t *testing.T) {
	x := MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	bias := MustFromSlice([]float64{10, 20}, 2)
	if err := x.AddRowVec(bias); err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 13, 24}
	for i, w := range want {
		if x.Data()[i] != w {
			t.Fatalf("AddRowVec = %v", x.Data())
		}
	}
	if err := x.AddRowVec(New(3)); !errors.Is(err, ErrShape) {
		t.Error("bad AddRowVec did not error")
	}
}

func TestSumRows(t *testing.T) {
	x := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	s, err := SumRows(x)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0) != 9 || s.At(1) != 12 {
		t.Errorf("SumRows = %v", s.Data())
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		a := randTensor(r, 3, 4)
		b := randTensor(r, 4, 2)
		c := randTensor(r, 2, 5)
		ab, _ := MatMul(a, b)
		abc1, _ := MatMul(ab, c)
		bc, _ := MatMul(b, c)
		abc2, _ := MatMul(a, bc)
		return maxDiff(abc1, abc2) < 1e-9
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestGobRoundTrip(t *testing.T) {
	x := randTensor(rng.New(3), 4, 7)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(x); err != nil {
		t.Fatal(err)
	}
	var y Tensor
	if err := gob.NewDecoder(&buf).Decode(&y); err != nil {
		t.Fatal(err)
	}
	if !x.SameShape(&y) {
		t.Fatalf("shape after round trip: %v vs %v", x.Shape(), y.Shape())
	}
	assertClose(t, x, &y, 0)
}

func TestGobRoundTripProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		rows, cols := 1+r.Intn(6), 1+r.Intn(6)
		x := randTensor(r, rows, cols)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(x); err != nil {
			return false
		}
		var y Tensor
		if err := gob.NewDecoder(&buf).Decode(&y); err != nil {
			return false
		}
		return x.SameShape(&y) && maxDiff(x, &y) == 0
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

// --- helpers ---

func randTensor(r *rng.Stream, shape ...int) *Tensor {
	x := New(shape...)
	for i := range x.Data() {
		x.Data()[i] = r.Range(-2, 2)
	}
	return x
}

func transpose(x *Tensor) *Tensor {
	m, n := x.Dim(0), x.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Set(x.At(i, j), j, i)
		}
	}
	return out
}

func maxDiff(a, b *Tensor) float64 {
	var m float64
	for i := range a.Data() {
		if d := math.Abs(a.Data()[i] - b.Data()[i]); d > m {
			m = d
		}
	}
	return m
}

func assertClose(t *testing.T, got, want *Tensor, eps float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape %v vs %v", got.Shape(), want.Shape())
	}
	if d := maxDiff(got, want); d > eps {
		t.Fatalf("max diff %v > %v", d, eps)
	}
}
