package tensor

// Im2Col lowers a CHW image into a matrix of receptive-field columns so a
// convolution becomes one matrix multiply (the standard im2col transform).
//
// Input img has channels*h*w elements, laid out channel-major (CHW).
// Output is a (channels*kh*kw) × (outH*outW) matrix written into dst, where
// outH = (h+2*pad-kh)/stride + 1 and likewise for outW. Out-of-bounds
// (padding) positions contribute zeros.
func Im2Col(img []float64, channels, h, w, kh, kw, stride, pad int, dst *Mat) {
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	if dst.R != channels*kh*kw || dst.C != outH*outW {
		panic("tensor: Im2Col dst shape mismatch")
	}
	if len(img) != channels*h*w {
		panic("tensor: Im2Col img length mismatch")
	}
	if stride == 1 {
		im2colUnit(img, channels, h, w, kh, kw, pad, outH, outW, dst)
		return
	}
	im2colStrided(img, channels, h, w, kh, kw, stride, pad, outH, outW, dst)
}

// unitRange returns the [lo, hi) output range of one stride-1 kernel tap k
// whose source index o + k - pad falls inside an image axis of length size;
// everything below lo and from hi up reads padding. The range is empty
// (lo == hi) when the tap hangs entirely off the image; a non-empty one
// satisfies 0 <= lo+k-pad < hi+k-pad <= size.
func unitRange(size, k, pad, outSize int) (lo, hi int) {
	lo = min(max(pad-k, 0), outSize)
	hi = min(max(size+pad-k, lo), outSize)
	return lo, hi
}

// im2colUnit is Im2Col at stride 1, where every output line is a
// contiguous run of one image row: the in-image ranges are found once per
// kernel tap and each line becomes zeros, a copy, zeros — the same cells
// written with the same values as im2colStrided, without a bounds branch
// per pixel. When the output is as wide as the image ("same" padding, the
// geometry nn's models use) consecutive lines are also consecutive image
// rows, so a tap's whole in-image block is one shifted copy; the pixels
// that copy drags across the line ends land on padding cells, which are
// zeroed after it.
func im2colUnit(img []float64, channels, h, w, kh, kw, pad, outH, outW int, dst *Mat) {
	row := 0
	for c := 0; c < channels; c++ {
		chn := img[c*h*w : (c+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			oyLo, oyHi := unitRange(h, ky, pad, outH)
			for kx := 0; kx < kw; kx++ {
				out := dst.Row(row)
				row++
				lo, hi := unitRange(w, kx, pad, outW)
				if lo == hi || oyLo == oyHi {
					Zero(out)
					continue
				}
				Zero(out[:oyLo*outW])
				Zero(out[oyHi*outW:])
				shift := (ky-pad)*w + kx - pad
				if outW == w {
					first, end := oyLo*w+lo, (oyHi-1)*w+hi
					copy(out[first:end], chn[first+shift:])
				}
				for oy := oyLo; oy < oyHi; oy++ {
					line := out[oy*outW : (oy+1)*outW]
					// The padding runs are at most pad long: plain stores,
					// not a memclr call each.
					for j := 0; j < lo; j++ {
						line[j] = 0
					}
					if outW != w {
						copy(line[lo:hi], chn[oy*w+lo+shift:])
					}
					for j := hi; j < len(line); j++ {
						line[j] = 0
					}
				}
			}
		}
	}
}

// im2colStrided is the general per-pixel loop, any stride.
func im2colStrided(img []float64, channels, h, w, kh, kw, stride, pad, outH, outW int, dst *Mat) {
	row := 0
	for c := 0; c < channels; c++ {
		chn := img[c*h*w : (c+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				out := dst.Row(row)
				row++
				col := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						for ox := 0; ox < outW; ox++ {
							out[col] = 0
							col++
						}
						continue
					}
					base := iy * w
					for ox := 0; ox < outW; ox++ {
						ix := ox*stride + kx - pad
						if ix < 0 || ix >= w {
							out[col] = 0
						} else {
							out[col] = chn[base+ix]
						}
						col++
					}
				}
			}
		}
	}
}

// Col2Im scatters gradient columns back into image space; it is the adjoint
// of Im2Col and accumulates (+=) into img, which the caller should zero
// first. Shapes mirror Im2Col.
func Col2Im(cols *Mat, channels, h, w, kh, kw, stride, pad int, img []float64) {
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	if cols.R != channels*kh*kw || cols.C != outH*outW {
		panic("tensor: Col2Im cols shape mismatch")
	}
	if len(img) != channels*h*w {
		panic("tensor: Col2Im img length mismatch")
	}
	if stride == 1 {
		col2imUnit(cols, channels, h, w, kh, kw, pad, outH, outW, img)
		return
	}
	col2imStrided(cols, channels, h, w, kh, kw, stride, pad, outH, outW, img)
}

// col2imUnit is Col2Im at stride 1: each line's in-image range (unitRange)
// is added to its image row as one contiguous AddTo, taps and lines visited
// in col2imStrided's order, so every pixel receives the same terms in the
// same sequence.
func col2imUnit(cols *Mat, channels, h, w, kh, kw, pad, outH, outW int, img []float64) {
	row := 0
	for c := 0; c < channels; c++ {
		chn := img[c*h*w : (c+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			oyLo, oyHi := unitRange(h, ky, pad, outH)
			for kx := 0; kx < kw; kx++ {
				in := cols.Row(row)
				row++
				lo, hi := unitRange(w, kx, pad, outW)
				if lo == hi {
					continue
				}
				for oy := oyLo; oy < oyHi; oy++ {
					base := (oy+ky-pad)*w + kx - pad
					AddTo(chn[base+lo:base+hi], in[oy*outW+lo:oy*outW+hi])
				}
			}
		}
	}
}

// col2imStrided is the general per-pixel loop, any stride.
func col2imStrided(cols *Mat, channels, h, w, kh, kw, stride, pad, outH, outW int, img []float64) {
	row := 0
	for c := 0; c < channels; c++ {
		chn := img[c*h*w : (c+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				in := cols.Row(row)
				row++
				col := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						col += outW
						continue
					}
					base := iy * w
					for ox := 0; ox < outW; ox++ {
						ix := ox*stride + kx - pad
						if ix >= 0 && ix < w {
							chn[base+ix] += in[col]
						}
						col++
					}
				}
			}
		}
	}
}

// ConvOutSize returns the spatial output size of a convolution/pool with the
// given input size, kernel, stride and padding.
func ConvOutSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}
