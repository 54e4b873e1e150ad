package codec

import "dive/internal/imgx"

// In-loop deblocking filter, modeled on H.264's: after a frame is
// reconstructed, block boundaries are smoothed when the discontinuity
// across them looks like a quantization artifact (small relative to the
// QP-dependent thresholds) and preserved when it looks like real image
// structure. Encoder and decoder run the identical filter on the identical
// reconstruction, so references stay bit-exact.

// alphaTable/betaTable precompute the QP-dependent thresholds (the filter
// reads them per edge pixel, so the old per-call float multiply was hot).
// Values are identical to the historical formulas.
var alphaTable, betaTable = func() (a, b [52]int) {
	for qp := range a {
		// Roughly exponential in QP like H.264's alpha table.
		av := int(0.8 * qstepTable[qp])
		if av < 2 {
			av = 2
		}
		if av > 60 {
			av = 60
		}
		a[qp] = av
		bv := int(0.4 * qstepTable[qp])
		if bv < 1 {
			bv = 1
		}
		if bv > 24 {
			bv = 24
		}
		b[qp] = bv
	}
	return
}()

// deblockAlpha is the edge-detection threshold: discontinuities larger than
// alpha are treated as true edges and left alone.
func deblockAlpha(qp int) int { return alphaTable[clampQP(qp)] }

// deblockBeta is the local-activity threshold on each side of the edge.
func deblockBeta(qp int) int { return betaTable[clampQP(qp)] }

// deblockFrame filters all 8×8 transform-block boundaries of recon in
// place: first every vertical edge (smoothing across columns), then every
// horizontal edge (across rows). qps holds the per-macroblock QP map; an
// edge inside a macroblock uses its QP, an edge between two macroblocks
// their rounded-up average. Thresholds are looked up once per 16-pixel
// macroblock span of an edge, and filterSpan walks Pix directly. Within one
// direction the four pixels an edge position touches are disjoint from
// every other position's, so the walk order is free; the two directions
// are not independent, hence the two whole-frame passes.
func deblockFrame(recon *imgx.Plane, qps []int, mbw int) {
	w, h := recon.W, recon.H
	pix := recon.Pix
	for by := 0; by < h/MBSize; by++ {
		for bx := 0; bx < mbw; bx++ {
			q := qps[by*mbw+bx]
			o := by*MBSize*w + bx*MBSize
			if bx > 0 {
				filterSpan(pix, o, 1, w, (qps[by*mbw+bx-1]+q+1)/2)
			}
			filterSpan(pix, o+blockSize, 1, w, q)
		}
	}
	for by := 0; by < h/MBSize; by++ {
		for bx := 0; bx < mbw; bx++ {
			q := qps[by*mbw+bx]
			o := by*MBSize*w + bx*MBSize
			if by > 0 {
				filterSpan(pix, o, w, 1, (qps[(by-1)*mbw+bx]+q+1)/2)
			}
			filterSpan(pix, o+blockSize*w, w, 1, q)
		}
	}
}

// filterSpan conditionally smooths one macroblock's 16 positions of an
// edge. q0 of the first position is pix[o]; across is the index step over
// the edge (p1 p0 | q0 q1 sit at o-2·across .. o+across) and along the step
// to the next position.
func filterSpan(pix []uint8, o, across, along, qp int) {
	alpha, beta := deblockAlpha(qp), deblockBeta(qp)
	for k := 0; k < MBSize; k, o = k+1, o+along {
		p0, q0 := int(pix[o-across]), int(pix[o])
		if diff := absInt(q0 - p0); diff == 0 || diff >= alpha {
			continue // flat already, or a real edge
		}
		p1, q1 := int(pix[o-2*across]), int(pix[o+across])
		if absInt(p1-p0) >= beta || absInt(q1-q0) >= beta {
			continue // too much structure next to the edge
		}
		// 4-tap smoothing of the two boundary pixels (H.263-style strength).
		d := ((q0-p0)*3 + (p1 - q1)) / 8
		if d > beta {
			d = beta
		}
		if d < -beta {
			d = -beta
		}
		pix[o-across] = clampPixI(int32(p0 + d))
		pix[o] = clampPixI(int32(q0 - d))
	}
}
