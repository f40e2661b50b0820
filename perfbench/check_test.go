package main

import (
	"context"
	"encoding/json"
	"math"
	"math/cmplx"
	"os"
	"testing"

	"cbs"
	"cbs/internal/core"
)

// TestBenchmarkFileMatchesTables pins BENCHMARK.json to the metric tables
// the harness prints from.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the harness %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
	for _, w := range f.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness drives %d", len(f.Workloads), len(workloads))
	}
}

// slabSolve solves the served slab at e in-process.
func slabSolve(t *testing.T, e float64) (*cbs.Model, *core.Result) {
	t.Helper()
	s := servedSlab
	m, err := cbs.NewTBSlab(cbs.TBSlabConfig{Nx: s.nx, Ny: s.ny, Onsite: s.onsite, Hopping: s.hop, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.SolveCBSContext(context.Background(), e, mixOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

// slabEnergy is an energy the mix could draw: two open modes, nothing on a
// band edge or a contour circle.
const slabEnergy = -3.72

func TestResidualCheckCatchesPerturbedVector(t *testing.T) {
	m, res := slabSolve(t, slabEnergy)
	tol := mixOptions().ResidualTol
	if err := checkResiduals(m.B, res.Energy, res.Pairs, tol); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	bad := append([]core.Eigenpair(nil), res.Pairs...)
	psi := append([]complex128(nil), bad[0].Psi...)
	psi[0] += 0.05
	bad[0].Psi = psi
	if err := checkResiduals(m.B, res.Energy, bad, tol); err == nil {
		t.Fatal("a perturbed eigenvector passed the residual check")
	}
}

func TestPairingCheckCatchesDroppedPartner(t *testing.T) {
	_, res := slabSolve(t, slabEnergy)
	ls := lambdas(res.Pairs)
	if err := checkPairing(ls, 0.5); err != nil {
		t.Fatalf("clean spectrum rejected: %v", err)
	}
	// Drop the partner of an evanescent lambda: 1/conj(lambda) goes missing.
	for i, l := range ls {
		if math.Abs(cmplx.Abs(l)-1) > 0.1 {
			dropped := append(append([]complex128(nil), ls[:i]...), ls[i+1:]...)
			if err := checkPairing(dropped, 0.5); err == nil {
				t.Fatalf("spectrum without %v passed the pairing check", l)
			}
			return
		}
	}
	t.Fatal("test energy has no evanescent pair")
}

func TestPairingCheckCatchesLostTimeReversalPartner(t *testing.T) {
	th := 0.7
	ls := []complex128{cmplx.Exp(complex(0, th)), cmplx.Exp(complex(0, -th)), 0.7, 1 / 0.7}
	if err := checkPairing(ls, 0.5); err != nil {
		t.Fatalf("clean spectrum rejected: %v", err)
	}
	// A propagating lambda is its own 1/conj partner; only k -> -k sees it.
	if err := checkPairing(ls[1:], 0.5); err == nil {
		t.Fatal("spectrum without e^{+ika} passed the pairing check")
	}
}

func TestFermiLevelCheckCatchesShiftedEF(t *testing.T) {
	st, err := cbs.AlBulk100(1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cbs.NewModel(st, cbs.GridConfig{Nx: 4, Ny: 4, Nz: 6, Nf: 4})
	if err != nil {
		t.Fatal(err)
	}
	ef, err := m.FermiLevel(3)
	if err != nil {
		t.Fatal(err)
	}
	nElec := 3 * float64(len(st.Atoms))
	if err := checkFermiLevel(m.B, ef, nElec, 3); err != nil {
		t.Fatalf("program's E_F rejected: %v", err)
	}
	for _, shift := range []float64{-0.02, 0.02} {
		if err := checkFermiLevel(m.B, ef+shift, nElec, 3); err == nil {
			t.Errorf("E_F shifted by %+g Ha passed the inertia check", shift)
		}
	}
}

func TestSturmCountMatchesDiagonal(t *testing.T) {
	// A Hermitian matrix with known spectrum: U diag(ev) U^H for a unitary
	// U built from one Householder reflection.
	ev := []float64{-2, -0.5, 0.25, 1, 3}
	n := len(ev)
	v := []complex128{1, complex(0.5, -0.25), complex(0, 1), -0.75, complex(0.3, 0.2)}
	var vn float64
	for _, x := range v {
		vn += real(x)*real(x) + imag(x)*imag(x)
	}
	u := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			u[i*n+j] = -complex(2/vn, 0) * v[i] * cmplx.Conj(v[j])
			if i == j {
				u[i*n+j]++
			}
		}
	}
	a := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				a[i*n+j] += u[i*n+k] * complex(ev[k], 0) * cmplx.Conj(u[j*n+k])
			}
		}
	}
	d, e := tridiagonalize(a, n)
	for i, sigma := range []float64{-3, -1, 0, 0.5, 2, 4} {
		want := []int{0, 1, 2, 3, 4, 5}[i]
		if got := countBelow(d, e, sigma); got != want {
			t.Errorf("count below %g = %d, want %d", sigma, got, want)
		}
	}
}

func TestOBMMatchCatchesShiftedLambda(t *testing.T) {
	// The al-sweep model at the run's OBM energy; OBM needs a cell longer
	// than its interface blocks, so the test cannot go smaller.
	st, err := cbs.AlBulk100(1)
	if err != nil {
		t.Fatal(err)
	}
	spec := alSweepSpec
	m, err := cbs.NewModel(st, cbs.GridConfig{Nx: spec.nxy, Ny: spec.nxy, Nz: spec.nz, Nf: 4})
	if err != nil {
		t.Fatal(err)
	}
	const e = obmEnergy
	res, err := m.SolveCBSContext(context.Background(), e, spec.opts)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := m.SolveOBM(e, cbs.DefaultOBMOptions())
	if err != nil {
		t.Fatal(err)
	}
	obPairs := make([]core.Eigenpair, len(ob.Pairs))
	for i, p := range ob.Pairs {
		obPairs[i] = core.Eigenpair{Lambda: p.Lambda, Residual: p.Residual}
	}
	got := lambdas(res.Pairs)
	tol := spec.opts.ResidualTol
	if _, _, _, err := checkOBM(got, obPairs, spec.opts.LambdaMin, tol, obmTol, obmMinMatched); err != nil {
		t.Fatalf("contour and OBM disagree on a clean solve: %v", err)
	}
	shifted := append([]complex128(nil), got...)
	for i := range shifted {
		shifted[i] *= 1 + 1e-3
	}
	if _, _, _, err := checkOBM(shifted, obPairs, spec.opts.LambdaMin, tol, obmTol, obmMinMatched); err == nil {
		t.Fatal("shifted eigenvalues matched the OBM baseline")
	}
	// A baseline that converged nothing compares nothing and must fail.
	unconverged := append([]core.Eigenpair(nil), obPairs...)
	for i := range unconverged {
		unconverged[i].Residual = 1e-2
	}
	if _, _, _, err := checkOBM(got, unconverged, spec.opts.LambdaMin, tol, obmTol, obmMinMatched); err == nil {
		t.Fatal("a baseline with no converged eigenvalue passed the OBM check")
	}
}

func TestTransmissionCheckCatchesWrongChannelCount(t *testing.T) {
	s := servedSlab
	es := []float64{-4.5, slabEnergy, 4.1}
	var ts []float64
	var open []int
	for _, e := range es {
		open = append(open, s.openModes(e))
		ts = append(ts, float64(s.openModes(e)))
	}
	if err := s.checkTransmission(es, ts, open); err != nil {
		t.Fatalf("quantized curve rejected: %v", err)
	}
	open[1]++
	ts[1]++
	if err := s.checkTransmission(es, ts, open); err == nil {
		t.Fatal("an extra open channel passed the transmission check")
	}
	open[1]--
	ts[1] -= 1 + 1e-3
	if err := s.checkTransmission(es, ts, open); err == nil {
		t.Fatal("a non-integer transmission passed the check")
	}
}

func TestUnitLambdaCheckAgainstSolver(t *testing.T) {
	_, res := slabSolve(t, slabEnergy)
	ls := lambdas(res.Pairs)
	if err := servedSlab.checkUnitLambdas(slabEnergy, ls); err != nil {
		t.Fatalf("solver's propagating lambdas rejected: %v", err)
	}
	for i, l := range ls {
		if math.Abs(cmplx.Abs(l)-1) < unitBand {
			bad := append([]complex128(nil), ls...)
			bad[i] *= cmplx.Exp(complex(0, 1e-3))
			if err := servedSlab.checkUnitLambdas(slabEnergy, bad); err == nil {
				t.Fatal("a rotated Bloch factor passed the analytic check")
			}
			return
		}
	}
	t.Fatal("test energy has no propagating pair")
}

func TestCacheHitCheck(t *testing.T) {
	miss := []byte(`{"energy": -3.72, "pairs": [{"lambda": [0.5, 0.8]}]}`)
	if err := checkCacheHit("fp", append([]byte(nil), miss...), miss); err != nil {
		t.Fatal(err)
	}
	if err := checkCacheHit("fp", []byte(`{"energy": -3.72, "pairs": []}`), miss); err == nil {
		t.Fatal("a differing hit passed the cache check")
	}
}

func TestMixEnergiesAreServable(t *testing.T) {
	g := newMixGen(11)
	for i := 0; i < 3*roundLen; i++ {
		j := g.next(i)
		for _, e := range j.es {
			if servedSlab.openModes(e) < 1 || servedSlab.edgeDistance(e) < edgeMargin {
				t.Fatalf("job %d draws E=%g on or outside a band edge", i, e)
			}
		}
	}
	if a, b := newMixGen(5).next(0), newMixGen(5).next(0); a.kind != b.kind || a.es[0] != b.es[0] {
		t.Fatal("the same seed gave different jobs")
	}
}

func TestProbeEnergyIsSharp(t *testing.T) {
	s := servedSlab
	e := float64(probeEnergy)
	if s.openModes(e) < 1 || s.edgeDistance(e) < edgeMargin || s.circleDistance(e, mixOptions().LambdaMin) < edgeMargin {
		t.Fatalf("probe energy %g is not a sharp in-band energy", e)
	}
	if s.modesWithin(e, leakReach*math.Abs(s.hop)) <= maxLeakModes {
		t.Fatalf("probe energy %g is one the mix could draw; it should lie where modes crowd", e)
	}
	g, n := newMixGen(3), 0
	for i := 0; i < 2*roundLen; i++ {
		if j := g.next(i); j.kind == "probe" {
			n++
			if j.es[0] != e || j.path() != "/v1/solve" {
				t.Fatalf("probe job %+v is not the fixed solve at %g", j, e)
			}
		}
	}
	if n != 2*roundProbe {
		t.Fatalf("%d probes in two rounds, want %d", n, 2*roundProbe)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max = %g, want 4", q)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}
