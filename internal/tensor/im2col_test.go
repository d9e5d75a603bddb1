package tensor

import (
	"testing"

	"repro/internal/rng"
)

func TestIm2ColKnownValues(t *testing.T) {
	// 1 channel, 3x3 image, 2x2 kernel, stride 1, no padding → 4 columns.
	img := []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	dst := NewMat(4, 4)
	Im2Col(img, 1, 3, 3, 2, 2, 1, 0, dst)
	// Column order is (oy, ox) row-major; row order is (ky, kx).
	want := [][]float64{
		{1, 2, 4, 5}, // kernel position (0,0)
		{2, 3, 5, 6}, // (0,1)
		{4, 5, 7, 8}, // (1,0)
		{5, 6, 8, 9}, // (1,1)
	}
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if dst.At(r, c) != want[r][c] {
				t.Fatalf("Im2Col[%d][%d] = %v, want %v", r, c, dst.At(r, c), want[r][c])
			}
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	img := []float64{1, 2, 3, 4} // 2x2
	outH := ConvOutSize(2, 3, 1, 1)
	dst := NewMat(9, outH*outH)
	Im2Col(img, 1, 2, 2, 3, 3, 1, 1, dst)
	// Center kernel tap row (ky=1,kx=1) should reproduce the image.
	center := dst.Row(4)
	for i, v := range img {
		if center[i] != v {
			t.Fatalf("center tap mismatch: %v", center)
		}
	}
	// Top-left tap at output (0,0) looks at (-1,-1): must be zero.
	if dst.At(0, 0) != 0 {
		t.Fatal("padding position not zero")
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// Adjoint identity: <Im2Col(x), y> == <x, Col2Im(y)> for all x, y.
	// This is exactly the property backprop relies on.
	r := rng.New(6)
	channels, h, w, kh, kw, stride, pad := 2, 5, 4, 3, 2, 1, 1
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	rows, cols := channels*kh*kw, outH*outW

	x := make([]float64, channels*h*w)
	for i := range x {
		x[i] = r.Norm()
	}
	y := NewMat(rows, cols)
	for i := range y.Data {
		y.Data[i] = r.Norm()
	}

	ax := NewMat(rows, cols)
	Im2Col(x, channels, h, w, kh, kw, stride, pad, ax)
	lhs := Dot(ax.Data, y.Data)

	aty := make([]float64, channels*h*w)
	Col2Im(y, channels, h, w, kh, kw, stride, pad, aty)
	rhs := Dot(x, aty)

	if !almostEq(lhs, rhs, 1e-9) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestConvOutSize(t *testing.T) {
	if ConvOutSize(32, 3, 1, 1) != 32 {
		t.Fatal("same-padding conv size wrong")
	}
	if ConvOutSize(32, 2, 2, 0) != 16 {
		t.Fatal("stride-2 pool size wrong")
	}
}

func TestIm2ColShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Im2Col did not panic on bad dst shape")
		}
	}()
	Im2Col(make([]float64, 9), 1, 3, 3, 2, 2, 1, 0, NewMat(3, 3))
}
