package tensor

import (
	"math"
	"testing"
)

// im2colNaive is the obviously-correct reference: a freshly allocated output
// matrix filled by directly indexing the padded input, one (row, col) cell
// at a time. The production Im2Col must bit-match it even when writing into
// a dirty, reused scratch matrix.
func im2colNaive(img []float64, channels, h, w, kh, kw, stride, pad int) *Mat {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	dst := NewMat(channels*kh*kw, outH*outW)
	for c := 0; c < channels; c++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := (c*kh+ky)*kw + kx
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						iy := oy*stride + ky - pad
						ix := ox*stride + kx - pad
						v := 0.0
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							v = img[(c*h+iy)*w+ix]
						}
						dst.Row(row)[oy*outW+ox] = v
					}
				}
			}
		}
	}
	return dst
}

// col2imNaive is the adjoint reference: scatter-accumulate each column cell
// back to its source pixel, skipping padding.
func col2imNaive(cols *Mat, channels, h, w, kh, kw, stride, pad int) []float64 {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	img := make([]float64, channels*h*w)
	for c := 0; c < channels; c++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := (c*kh+ky)*kw + kx
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						iy := oy*stride + ky - pad
						ix := ox*stride + kx - pad
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							img[(c*h+iy)*w+ix] += cols.Row(row)[oy*outW+ox]
						}
					}
				}
			}
		}
	}
	return img
}

// FuzzIm2colScratch drives Im2Col into a DIRTY reused scratch matrix (the
// conv layer's per-sample colCache) across fuzzer-chosen geometries and
// checks it bit-matches the naive fresh-allocation reference — i.e. the
// in-place path fully overwrites the scratch, padding zeros included, and
// never leaks a stale value from the previous sample. Col2Im is checked as
// the adjoint on the same geometry.
func FuzzIm2colScratch(f *testing.F) {
	f.Add(uint64(1), 1, 5, 5, 3, 3, 1, 1, math.NaN())
	f.Add(uint64(2), 3, 8, 6, 2, 4, 2, 0, 1e300)
	f.Add(uint64(3), 2, 4, 4, 4, 4, 3, 2, -0.0)
	// Stride 1 takes the range-copy path; these pin its range arithmetic
	// where the in-image run of a kernel column is empty or the whole line.
	f.Add(uint64(4), 1, 3, 2, 3, 6, 1, 3, math.NaN())  // kw > w+pad: the last taps never touch the image
	f.Add(uint64(5), 2, 5, 1, 2, 3, 1, 3, math.Inf(1)) // pad >= kw: the first taps start right of every output
	f.Add(uint64(6), 1, 6, 7, 3, 2, 1, 0, -0.0)        // pad = 0: every line is all image
	f.Add(uint64(7), 3, 10, 10, 3, 3, 1, 1, 1e300)     // the CNN's own geometry
	f.Fuzz(func(t *testing.T, seed uint64, channels, h, w, kh, kw, stride, pad int, dirt float64) {
		if channels < 1 || channels > 4 || h < 1 || h > 12 || w < 1 || w > 12 {
			t.Skip()
		}
		if kh < 1 || kh > h+2*pad || kw < 1 || kw > w+2*pad {
			t.Skip()
		}
		if stride < 1 || stride > 4 || pad < 0 || pad > 3 {
			t.Skip()
		}
		img := fillVec(seed, channels*h*w)
		want := im2colNaive(img, channels, h, w, kh, kw, stride, pad)

		// The scratch arrives dirty: pre-fill with the fuzzer's dirt value
		// (NaN, huge, -0, ...) to catch any cell Im2Col fails to overwrite.
		got := NewMat(want.R, want.C)
		Fill(got.Data, dirt)
		Im2Col(img, channels, h, w, kh, kw, stride, pad, got)
		for i := range want.Data {
			if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("Im2Col[%d] = %x, naive = %x (geom c=%d h=%d w=%d k=%dx%d s=%d p=%d)",
					i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]),
					channels, h, w, kh, kw, stride, pad)
			}
		}
		// Second use of the same scratch, different image: reuse must be
		// invisible.
		img2 := fillVec(seed^0x9e3779b97f4a7c15, channels*h*w)
		want2 := im2colNaive(img2, channels, h, w, kh, kw, stride, pad)
		Im2Col(img2, channels, h, w, kh, kw, stride, pad, got)
		for i := range want2.Data {
			if math.Float64bits(want2.Data[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("reused-scratch Im2Col[%d] = %x, naive = %x",
					i, math.Float64bits(got.Data[i]), math.Float64bits(want2.Data[i]))
			}
		}

		// Adjoint: Col2Im accumulates into a caller-zeroed image; both paths
		// add the same terms in the same row-major column order, so they
		// must agree bitwise too.
		wantImg := col2imNaive(want2, channels, h, w, kh, kw, stride, pad)
		gotImg := make([]float64, channels*h*w)
		Col2Im(got, channels, h, w, kh, kw, stride, pad, gotImg)
		for i := range wantImg {
			if math.Float64bits(wantImg[i]) != math.Float64bits(gotImg[i]) {
				t.Fatalf("Col2Im[%d] = %x, naive = %x", i,
					math.Float64bits(gotImg[i]), math.Float64bits(wantImg[i]))
			}
		}
	})
}

// im2colBenches: the benchmark CNN's first convolution (the shape bench/'s
// tensor.im2col_us probe times) and the 3×32×32 image BenchmarkIm2Col has
// always used.
var im2colBenches = []struct {
	name           string
	channels, h, w int
}{
	{"1x10x10", 1, 10, 10},
	{"3x32x32", 3, 32, 32},
}

// benchIm2col runs one lowering (3×3 kernel, stride 1, pad 1, so outH = h
// and outW = w) over im2colBenches with a prepared image and column matrix.
func benchIm2col(b *testing.B, op func(img []float64, channels, h, w int, cols *Mat)) {
	for _, s := range im2colBenches {
		b.Run(s.name, func(b *testing.B) {
			img := fillVec(1, s.channels*s.h*s.w)
			cols := MatFrom(s.channels*9, s.h*s.w, fillVec(2, s.channels*9*s.h*s.w))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(img, s.channels, s.h, s.w, cols)
			}
		})
	}
}

// The …Reference benchmarks run the per-pixel loops (what stride 1 ran
// before the range-copy paths, and what strided geometries still run) in
// the same process: the denominators of the speed-ups.

func BenchmarkIm2Col(b *testing.B) {
	benchIm2col(b, func(img []float64, c, h, w int, cols *Mat) { Im2Col(img, c, h, w, 3, 3, 1, 1, cols) })
}

func BenchmarkIm2ColReference(b *testing.B) {
	benchIm2col(b, func(img []float64, c, h, w int, cols *Mat) {
		im2colStrided(img, c, h, w, 3, 3, 1, 1, h, w, cols)
	})
}

func BenchmarkCol2Im(b *testing.B) {
	benchIm2col(b, func(img []float64, c, h, w int, cols *Mat) { Col2Im(cols, c, h, w, 3, 3, 1, 1, img) })
}

func BenchmarkCol2ImReference(b *testing.B) {
	benchIm2col(b, func(img []float64, c, h, w int, cols *Mat) {
		col2imStrided(cols, c, h, w, 3, 3, 1, 1, h, w, img)
	})
}
