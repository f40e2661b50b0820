package main

// Output checks. Each compares the program's outputs with a computation
// made here, apart from the program, or with a property the method must
// have. None calls the package whose output it checks.

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"

	"cbs/internal/core"
	"cbs/internal/operator"
)

// checkResiduals recomputes every pair's QEP residual
// ||P(lambda) psi|| / ||psi|| from the backend's single-vector applies,
// P(lambda) = -lambda^{-1} H- + (E - H0) - lambda H+, and requires it to be
// at most tol.
func checkResiduals(b operator.Backend, e float64, pairs []core.Eigenpair, tol float64) error {
	n := b.N()
	h0 := make([]complex128, n)
	hp := make([]complex128, n)
	hm := make([]complex128, n)
	for i, p := range pairs {
		if len(p.Psi) != n {
			return fmt.Errorf("E=%.6f pair %d: eigenvector has %d entries, want %d", e, i, len(p.Psi), n)
		}
		b.ApplyH0(p.Psi, h0)
		b.ApplyHp(p.Psi, hp)
		b.ApplyHm(p.Psi, hm)
		var num, den float64
		for j, v := range p.Psi {
			r := complex(e, 0)*v - h0[j] - p.Lambda*hp[j] - hm[j]/p.Lambda
			num += real(r)*real(r) + imag(r)*imag(r)
			den += real(v)*real(v) + imag(v)*imag(v)
		}
		if den == 0 {
			return fmt.Errorf("E=%.6f pair %d: zero eigenvector", e, i)
		}
		if res := math.Sqrt(num / den); !(res <= tol) {
			return fmt.Errorf("E=%.6f lambda=%.6g: QEP residual %.3g exceeds %.3g", e, p.Lambda, res, tol)
		}
	}
	return nil
}

// Pairing tolerances. The contour filter resolves eigenvalues near the
// annulus circles less sharply, so only |lambda| inside the annulus shrunk
// by pairEdgeMargin must find its partners. Eigenvalues passing the 1e-5
// residual filter are accurate to about 1e-5, so a partner must lie within
// pairTol (relative) of the exact image.
const (
	pairEdgeMargin = 0.1
	pairTol        = 1e-4
)

// checkPairing verifies that the annulus spectrum is closed under
// lambda -> 1/conj(lambda) (P(z)^dagger = P(1/conj z)) and lambda -> 1/lambda
// (time reversal of a real Hamiltonian, k -> -k), each as a one-to-one
// matching of the eigenvalues, degenerate copies included.
func checkPairing(lams []complex128, lambdaMin float64) error {
	lo := lambdaMin * (1 + pairEdgeMargin)
	inner := func(l complex128) bool { r := cmplx.Abs(l); return r >= lo && r <= 1/lo }
	maps := []struct {
		name string
		f    func(complex128) complex128
	}{
		{"1/conj(lambda)", func(l complex128) complex128 { return 1 / cmplx.Conj(l) }},
		{"1/lambda", func(l complex128) complex128 { return 1 / l }},
	}
	for _, m := range maps {
		used := make([]bool, len(lams))
		for i, l := range lams {
			if used[i] || !inner(l) {
				continue
			}
			want := m.f(l)
			best, bestD := -1, math.Inf(1)
			for j, c := range lams {
				if used[j] {
					continue
				}
				if d := cmplx.Abs(c-want) / math.Max(1, cmplx.Abs(want)); d < bestD {
					best, bestD = j, d
				}
			}
			if best < 0 || bestD > pairTol {
				return fmt.Errorf("lambda=%.8g has no %s partner (nearest off by %.3g, tolerance %.0e)", l, m.name, bestD, pairTol)
			}
			used[i], used[best] = true, true
		}
	}
	return nil
}

// matchLambdas requires got and want to agree as multisets within tol
// (relative).
func matchLambdas(got, want []complex128, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d eigenvalues where the reference has %d (got %.6g, want %.6g)", len(got), len(want), got, want)
	}
	used := make([]bool, len(want))
	for _, l := range got {
		best, bestD := -1, math.Inf(1)
		for j, c := range want {
			if !used[j] {
				if d := cmplx.Abs(c-l) / math.Max(1, cmplx.Abs(c)); d < bestD {
					best, bestD = j, d
				}
			}
		}
		if bestD > tol {
			return fmt.Errorf("lambda=%.8g matches no reference eigenvalue (nearest off by %.3g, tolerance %.0e)", l, bestD, tol)
		}
		used[best] = true
	}
	return nil
}

// checkOBM compares the contour eigenvalues with the OBM
// transfer-matrix baseline at one energy: every baseline eigenvalue in the
// shrunk annulus whose own QEP residual is within resTol must lie within
// tol (relative) of a contour eigenvalue. Baseline eigenvalues with a
// larger residual are not eigenvalues and are skipped. The comparison is
// one way and not one to one, because on the Al grids the baseline's dense
// pencil solve drops degenerate pairs, repeats eigenvalues and at some
// energies converges none (see CHANGES.md); contour eigenvalues the
// baseline lacks are counted for the run's workload line. Fewer than
// minMatched compared eigenvalues fail the check, so it cannot pass by
// comparing nothing.
func checkOBM(ss []complex128, obm []core.Eigenpair, lambdaMin, resTol, tol float64, minMatched int) (matched, skipped, missing int, err error) {
	lo := lambdaMin * (1 + pairEdgeMargin)
	inner := func(l complex128) bool { r := cmplx.Abs(l); return r >= lo && r <= 1/lo }
	near := func(a, b complex128) bool { return cmplx.Abs(a-b)/math.Max(1, cmplx.Abs(b)) <= tol }
	var ref []complex128
	for _, p := range obm {
		if !inner(p.Lambda) {
			continue
		}
		if !(p.Residual <= resTol) {
			skipped++
			continue
		}
		ref = append(ref, p.Lambda)
		found := false
		for _, l := range ss {
			found = found || near(l, p.Lambda)
		}
		if !found {
			return matched, skipped, 0, fmt.Errorf("OBM eigenvalue %.8g (residual %.2g) is no contour eigenvalue (tolerance %.0e)", p.Lambda, p.Residual, tol)
		}
		matched++
	}
	for _, l := range ss {
		found := false
		for _, r := range ref {
			found = found || near(l, r)
		}
		if inner(l) && !found {
			missing++
		}
	}
	if matched < minMatched {
		return matched, skipped, missing, fmt.Errorf("only %d OBM eigenvalues within the residual bound to compare, %d required", matched, minMatched)
	}
	return matched, skipped, missing, nil
}

// --- Fermi level: inertia of H(k) - E_F ---

// blochMatrix assembles H(k) = H0 + lambda H+ + lambda^{-1} H-, lambda =
// e^{ika}, densely (row-major) from the backend's single-vector applies.
func blochMatrix(b operator.Backend, k float64) []complex128 {
	n := b.N()
	lam := cmplx.Exp(complex(0, k*b.CellLength()))
	h := make([]complex128, n*n)
	v := make([]complex128, n)
	h0 := make([]complex128, n)
	hp := make([]complex128, n)
	hm := make([]complex128, n)
	for j := 0; j < n; j++ {
		v[j] = 1
		b.ApplyH0(v, h0)
		b.ApplyHp(v, hp)
		b.ApplyHm(v, hm)
		for i := 0; i < n; i++ {
			h[i*n+j] = h0[i] + lam*hp[i] + hm[i]/lam
		}
		v[j] = 0
	}
	return h
}

// tridiagonalize reduces a dense Hermitian matrix (row-major, n x n,
// overwritten) to real symmetric tridiagonal form by Householder
// reflections: it returns the diagonal and the moduli of the
// off-diagonal, which have the same eigenvalues.
func tridiagonalize(a []complex128, n int) (d, e []float64) {
	d = make([]float64, n)
	e = make([]float64, max(n-1, 0))
	v := make([]complex128, n)
	w := make([]complex128, n)
	for k := 0; k+2 < n; k++ {
		// Reflect x = A[k+1:, k] onto alpha e1.
		var xn float64
		for i := k + 1; i < n; i++ {
			x := a[i*n+k]
			xn += real(x)*real(x) + imag(x)*imag(x)
		}
		xn = math.Sqrt(xn)
		e[k] = xn
		if xn == 0 {
			continue
		}
		x0 := a[(k+1)*n+k]
		phase := complex(1, 0)
		if ax := cmplx.Abs(x0); ax > 0 {
			phase = x0 / complex(ax, 0)
		}
		alpha := -phase * complex(xn, 0)
		var vn float64
		for i := k + 1; i < n; i++ {
			v[i] = a[i*n+k]
		}
		v[k+1] -= alpha
		for i := k + 1; i < n; i++ {
			vn += real(v[i])*real(v[i]) + imag(v[i])*imag(v[i])
		}
		if vn == 0 {
			continue
		}
		beta := 2 / vn
		// w = beta A v, K = beta/2 v^H w, q = w - K v; A -= v q^H + q v^H.
		var kk complex128
		for i := k + 1; i < n; i++ {
			var s complex128
			row := a[i*n : i*n+n]
			for j := k + 1; j < n; j++ {
				s += row[j] * v[j]
			}
			w[i] = complex(beta, 0) * s
			kk += cmplx.Conj(v[i]) * w[i]
		}
		kk *= complex(beta/2, 0)
		for i := k + 1; i < n; i++ {
			w[i] -= kk * v[i]
		}
		for i := k + 1; i < n; i++ {
			row := a[i*n : i*n+n]
			vi, wi := v[i], w[i]
			for j := k + 1; j < n; j++ {
				row[j] -= vi*cmplx.Conj(w[j]) + wi*cmplx.Conj(v[j])
			}
		}
	}
	for i := 0; i < n; i++ {
		d[i] = real(a[i*n+i])
	}
	if n >= 2 {
		e[n-2] = cmplx.Abs(a[(n-1)*n+n-2])
	}
	return d, e
}

// countBelow is the Sturm count of eigenvalues of the symmetric
// tridiagonal (d, e) below sigma: the number of negative pivots of the
// LDL^T factorization of T - sigma I.
func countBelow(d, e []float64, sigma float64) int {
	count := 0
	q := 1.0
	for i := range d {
		off := 0.0
		if i > 0 {
			off = e[i-1] * e[i-1] / q
		}
		q = d[i] - sigma - off
		if q == 0 {
			q = -1e-300
		}
		if q < 0 {
			count++
		}
	}
	return count
}

// fermiDelta brackets E_F for the inertia count (hartree): far above the
// eigenvalue accuracy of a Householder reduction, far below level
// spacing errors a wrong E_F would show.
const fermiDelta = 1e-8

// checkFermiLevel verifies that ef fills nElec electrons (two per level)
// over the nk-point k sample k_i = (pi/a) i/(nk-1) the setup used: the
// Sturm counts of H(k_i) - (E_F -+ delta) must put the level that
// completes the filling at E_F.
func checkFermiLevel(b operator.Backend, ef, nElec float64, nk int) error {
	a := b.CellLength()
	n := b.N()
	below, atOrBelow := 0, 0
	for i := 0; i < nk; i++ {
		k := 0.0
		if nk > 1 {
			k = math.Pi / a * float64(i) / float64(nk-1)
		}
		d, e := tridiagonalize(blochMatrix(b, k), n)
		below += countBelow(d, e, ef-fermiDelta)
		atOrBelow += countBelow(d, e, ef+fermiDelta)
	}
	levels := int(math.Ceil(nElec*float64(nk)/2 - 1e-9))
	if below > levels-1 || atOrBelow < levels {
		return fmt.Errorf("E_F=%.8f holds %d levels below and %d at or below it over %d k-points; filling %g electrons needs level %d at E_F",
			ef, below, atOrBelow, nk, nElec, levels)
	}
	return nil
}

// --- tight-binding slab: analytic modes ---

// slabModel is the hard-wall simple-cubic slab the cbsd workload serves.
type slabModel struct {
	nx, ny      int
	onsite, hop float64
}

// modes returns eps_pq = eps + 2t[cos(p pi/(Nx+1)) + cos(q pi/(Ny+1))].
func (s slabModel) modes() []float64 {
	var out []float64
	for p := 1; p <= s.nx; p++ {
		for q := 1; q <= s.ny; q++ {
			out = append(out, s.onsite+2*s.hop*(math.Cos(float64(p)*math.Pi/float64(s.nx+1))+math.Cos(float64(q)*math.Pi/float64(s.ny+1))))
		}
	}
	return out
}

// openModes counts the transverse modes propagating at e: |e - eps_pq| < 2|t|.
func (s slabModel) openModes(e float64) int {
	n := 0
	for _, m := range s.modes() {
		if math.Abs(e-m) < 2*math.Abs(s.hop) {
			n++
		}
	}
	return n
}

// edgeDistance is the distance (hartree) from e to the nearest band edge
// eps_pq +- 2|t|.
func (s slabModel) edgeDistance(e float64) float64 {
	d := math.Inf(1)
	for _, m := range s.modes() {
		d = math.Min(d, math.Abs(math.Abs(e-m)-2*math.Abs(s.hop)))
	}
	return d
}

// modesWithin counts the modes with |e - eps_pq| < reach.
func (s slabModel) modesWithin(e, reach float64) int {
	n := 0
	for _, m := range s.modes() {
		if math.Abs(e-m) < reach {
			n++
		}
	}
	return n
}

// circleDistance is the distance (hartree) from e to the nearest energy
// where a mode's Bloch-factor pair crosses the annulus circles
// |lambda| = lambdaMin, 1/lambdaMin. The smaller root has
// |lambda| = |s| - sqrt(s^2 - 1), s = (e - eps)/2t, which passes lambdaMin
// at |s| = (lambdaMin + 1/lambdaMin)/2.
func (s slabModel) circleDistance(e, lambdaMin float64) float64 {
	reach := math.Abs(s.hop) * (lambdaMin + 1/lambdaMin)
	d := math.Inf(1)
	for _, m := range s.modes() {
		d = math.Min(d, math.Abs(math.Abs(e-m)-reach))
	}
	return d
}

// unitLambdas returns e^{+-ika} for every open mode, cos ka = (e - eps_pq)/2t.
func (s slabModel) unitLambdas(e float64) []complex128 {
	var out []complex128
	for _, m := range s.modes() {
		c := (e - m) / (2 * s.hop)
		if math.Abs(c) < 1 {
			sn := math.Sqrt(1 - c*c)
			out = append(out, complex(c, sn), complex(c, -sn))
		}
	}
	return out
}

// Tight-binding tolerances. Away from band edges the propagating Bloch
// factors come out within about 1e-6 of e^{+-ika} (the residual filter
// admits 1e-5), and no evanescent |lambda| lies within 0.2 of 1, so a
// pair counts as propagating when ||lambda| - 1| <= unitBand.
const (
	tbTol     = 1e-5
	unitBand  = 1e-3
	quantizeT = 1e-6
)

// checkUnitLambdas requires the propagating pairs of a TB result at e to be
// the analytic e^{+-ika}, one to one.
func (s slabModel) checkUnitLambdas(e float64, lams []complex128) error {
	var got []complex128
	for _, l := range lams {
		if math.Abs(cmplx.Abs(l)-1) <= unitBand {
			got = append(got, l)
		}
	}
	want := s.unitLambdas(e)
	if len(got) != len(want) {
		return fmt.Errorf("E=%.6f: %d propagating lambdas, %d open modes give %d", e, len(got), s.openModes(e), len(want))
	}
	return matchLambdas(got, want, tbTol)
}

// checkTransmission requires T(E) to equal the analytic open-mode count
// at each energy of a clean device.
func (s slabModel) checkTransmission(es, ts []float64, nOpen []int) error {
	if len(es) != len(ts) || len(ts) != len(nOpen) {
		return fmt.Errorf("transmission has %d points for %d energies", len(ts), len(es))
	}
	for i, e := range es {
		want := s.openModes(e)
		if nOpen[i] != want || math.Abs(ts[i]-float64(want)) > quantizeT {
			return fmt.Errorf("E=%.6f: T=%.9f with %d open channels, analytic %d open modes", e, ts[i], nOpen[i], want)
		}
	}
	return nil
}

// checkCacheHit requires a cache-hit response to carry byte for byte the
// result the miss computed for the same fingerprint.
func checkCacheHit(fp string, hit, miss []byte) error {
	if !bytes.Equal(hit, miss) {
		return fmt.Errorf("fingerprint %s: cache hit result differs from the miss that filled it", fp)
	}
	return nil
}
