package main

// The FD-grid workloads: Al(100) models driven in-process through the
// public cbs API.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cbs"
	"cbs/internal/core"
	"cbs/internal/dist"
	"cbs/internal/qep"
	"cbs/internal/soa"
	"cbs/internal/sweep"
	"cbs/internal/units"
)

// fdSpec is one FD workload's make-up.
type fdSpec struct {
	nxy, nz   int // Al(100) grid; N = nxy^2 nz
	nk        int // FermiLevel k-points
	setupReps int // setups per run; setup_s is their median
	opts      core.Options
}

// alSweepSpec sits below the 1200-point dense Fermi-level cutoff
// (N = 432), so setup takes the dense path.
var alSweepSpec = fdSpec{nxy: 6, nz: 12, nk: 3, setupReps: 3, opts: fdOptions(16, 4, 8, 1)}

// alDDSpec sits above the cutoff (N = 1331), so setup takes the sparse
// path, and splits each solve over two z-slab domains.
var alDDSpec = fdSpec{nxy: 11, nz: 11, nk: 3, setupReps: 3, opts: fdOptions(12, 4, 4, 2)}

func fdOptions(nint, nmm, nrh, ndm int) core.Options {
	o := cbs.DefaultOptions()
	o.Nint, o.Nmm, o.Nrh = nint, nmm, nrh
	o.Parallel = cbs.Parallel{Top: 1, Mid: 1, Ndm: ndm}
	return o
}

// Energy layouts (eV relative to E_F). Energies lie on fixed lattices
// around E_F, and the seed picks which lattice points a run solves, so
// every run solves energies from one finite set: the small eigenproblem of
// a contour solve fails at isolated energies (see CHANGES.md), and a
// failure that only some seeds meet would make runs incomparable.
const (
	sweepEnergies = 8    // al-sweep: energies per sweep, consecutive lattice points
	sweepStepEV   = 0.02 // al-sweep: lattice spacing
	sweepHalf     = 8    // al-sweep: lattice points -8..8
	ddEnergies    = 5    // al-dd-solve: distinct lattice points per round
	ddStepEV      = 0.05 // al-dd-solve: lattice spacing
	ddHalf        = 10   // al-dd-solve: lattice points -10..10
)

// window decides whether another whole round starts: always the first,
// then only while the next is expected to end mostly inside the window,
// so a run measures about --seconds of whole rounds.
type window struct {
	t0      time.Time
	seconds float64
}

func newWindow(seconds float64) *window { return &window{t0: time.Now(), seconds: seconds} }

func (w *window) another(rounds int) bool {
	if rounds == 0 {
		return true
	}
	el := time.Since(w.t0).Seconds()
	return el+0.5*el/float64(rounds) < w.seconds
}

// fdSetup is the model the workload solves on plus the setup timings.
type fdSetup struct {
	model        *cbs.Model
	ef           float64
	nElec        float64
	total, build []float64 // per repetition (s)
	fermi        []float64
}

// setupModel builds the model and its Fermi level spec.setupReps times
// (NewModel + FermiLevel is the set-up a user pays) and keeps the last.
func setupModel(spec fdSpec, tr *tracer) (*fdSetup, error) {
	st, err := cbs.AlBulk100(1)
	if err != nil {
		return nil, err
	}
	out := &fdSetup{}
	for _, a := range st.Atoms {
		if a.Species != "Al" {
			return nil, fmt.Errorf("unexpected species %q in the Al(100) cell", a.Species)
		}
		out.nElec += 3
	}
	for r := 0; r < spec.setupReps; r++ {
		root := tr.start("setup", 0, fmt.Sprintf("setup-%d", r))
		t0 := time.Now()
		sp := tr.start("hamiltonian.build", root, "")
		m, err := cbs.NewModel(st, cbs.GridConfig{Nx: spec.nxy, Ny: spec.nxy, Nz: spec.nz, Nf: 4})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		sp = tr.start("bandstructure.fermi", root, "")
		ef, err := m.FermiLevel(spec.nk)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		tr.end(root)
		out.model, out.ef = m, ef
		out.total = append(out.total, t2.Sub(t0).Seconds())
		out.build = append(out.build, t1.Sub(t0).Seconds())
		out.fermi = append(out.fermi, t2.Sub(t1).Seconds())
	}
	return out, nil
}

// roundStats accumulates what every FD workload reports about its solves.
type roundStats struct {
	first      []*core.Result // the first round's results, in energy order
	solveLin   []float64      // per solve (s), all rounds
	extract    []float64
	solveWall  []float64 // per solve call (s), all rounds
	matvecList []float64
	iterations int // first round
	matvecs    int
	restarts   int
	fallbacks  int
	dropped    int
	commBytes  int64
}

func (rs *roundStats) add(res *core.Result, first bool) {
	rs.solveLin = append(rs.solveLin, res.Timings.SolveLinear.Seconds())
	rs.extract = append(rs.extract, res.Timings.Extract.Seconds())
	rs.matvecList = append(rs.matvecList, float64(res.MatVecs))
	if !first {
		return
	}
	rs.first = append(rs.first, res)
	for _, p := range res.Points {
		rs.iterations += p.Iterations
	}
	rs.matvecs += res.MatVecs
	rs.restarts += res.Diagnostics.Restarts
	rs.fallbacks += res.Diagnostics.Fallbacks
	rs.dropped += len(res.Diagnostics.DroppedPairs)
	rs.commBytes += res.CommBytes
}

// values fills the solver-layer figures shared by the FD workloads.
func (rs *roundStats) values(v map[string]float64, s *fdSetup) {
	v["hamiltonian.build_s"] = median(s.build)
	v["bandstructure.fermi_s"] = median(s.fermi)
	v["core.solve_linear_s"] = median(rs.solveLin)
	v["core.extract_s"] = median(rs.extract)
	v["solve_s"] = median(rs.solveWall)
	v["linsolve.iterations"] = float64(rs.iterations)
	v["qep.matvecs"] = float64(rs.matvecs)
	v["core.ladder_restarts"] = float64(rs.restarts)
	v["core.ladder_fallbacks"] = float64(rs.fallbacks)
	v["core.dropped"] = float64(rs.dropped)
	v["dist.comm_bytes"] = float64(rs.commBytes)
	v["setup_s"] = median(s.total)
}

// memWindow measures the Go heap activity of a window, per round.
type memWindow struct{ before runtime.MemStats }

func startMemWindow() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

func (w *memWindow) values(v map[string]float64, rounds int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	v["go.alloc_mb"] = float64(after.TotalAlloc-w.before.TotalAlloc) / float64(rounds) / (1 << 20)
	v["go.gc_pause_ms"] = float64(after.PauseTotalNs-w.before.PauseTotalNs) / float64(rounds) / 1e6
}

// probeApplies times the operator applies the solves spend most of their
// time in, at the workload's N and block width: one blocked SoA apply
// (the Ndm = 1 path) and, with Ndm > 1, one distributed single-vector
// apply with its halo exchange and allreduce.
func probeApplies(v map[string]float64, s *fdSetup, rs *roundStats, opts core.Options, tr *tracer) error {
	const reps = 15
	m := s.model
	n, nb := m.N(), opts.Nrh
	p := qep.NewBackend(m.B, s.ef)
	z := complex(0.6, 0.5)
	tab := m.Op.SoA64()
	rng := rand.New(rand.NewPCG(7, 7))
	vals := make([]complex128, n*nb)
	for i := range vals {
		vals[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	vb, ob := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
	soa.Pack(vb, vals)
	var ts []float64
	for r := 0; r < reps; r++ {
		sp := tr.start("qep.apply_block", 0, "probe")
		t0 := time.Now()
		qep.ApplyBlockSoA(p, tab, z, vb, ob)
		ts = append(ts, time.Since(t0).Seconds())
		tr.end(sp)
	}
	block := median(ts)
	v["qep.apply_block_us"] = block * 1e6
	v["hamiltonian.apply_gflops"] = m.Op.FlopsPerApply() * float64(nb) / block / 1e9
	perColumn := block / float64(nb)
	if nd := opts.Parallel.Ndm; nd > 1 {
		ds, err := dist.NewSolver(p, nd)
		if err != nil {
			return err
		}
		vec := make([]complex128, n)
		for i := range vec {
			vec[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		ts = ts[:0]
		for r := 0; r < reps; r++ {
			sp := tr.start("dist.apply_once", 0, "probe")
			t0 := time.Now()
			if _, err := ds.ApplyOnce(z, vec); err != nil {
				return err
			}
			ts = append(ts, time.Since(t0).Seconds())
			tr.end(sp)
		}
		v["dist.apply_once_ms"] = median(ts) * 1e3
		perColumn = median(ts)
	}
	// Krylov vector work is what the linear solves spend beyond their
	// operator applies: the median linear-solve time minus the median
	// matvec count of a solve times the per-column apply the solves ran.
	v["linsolve.vector_s_est"] = median(rs.solveLin) - median(rs.matvecList)*perColumn
	return nil
}

// sweepRound is one al-sweep round: a checkpointed sweep.Run over the
// seed's energies whose solve is Model.SolveCBSContext wrapped in a timer
// and a span (Model.SweepCBS is the same sweep.Run over the same solve).
// The sweep engine's own time (scheduling, journal appends) is the sweep
// span's self time. It returns the report, the per-energy latencies, the
// per-call solve times and the sweep's wall time.
func sweepRound(ctx context.Context, s *fdSetup, es []float64, opts core.Options, journal string, tr *tracer, req string) (*sweep.Report, []float64, []float64, float64, error) {
	var mu sync.Mutex
	var lat, solves []float64
	t0 := time.Now()
	last := t0
	cfg := cbs.SweepConfig{
		Workers:        1,
		CheckpointPath: journal,
		OperatorDesc:   s.model.OperatorDesc(),
		OnEnergy: func(sweep.EnergyResult) {
			mu.Lock()
			now := time.Now()
			lat = append(lat, now.Sub(last).Seconds())
			last = now
			mu.Unlock()
		},
	}
	root := tr.start("sweep", 0, req)
	solve := func(ctx context.Context, e float64, o core.Options) (*core.Result, error) {
		sp := tr.start("core.solve", root, req)
		t := time.Now()
		res, err := s.model.SolveCBSContext(ctx, e, o)
		d := time.Since(t).Seconds()
		tr.end(sp)
		mu.Lock()
		solves = append(solves, d)
		mu.Unlock()
		return res, err
	}
	rep, err := sweep.Run(ctx, solve, es, opts, cfg)
	tr.end(root)
	return rep, lat, solves, time.Since(t0).Seconds(), err
}

// runALSweep: setup, then whole checkpointed sweeps over sweepEnergies
// energies sweepStepEV apart around E_F until the window closes.
func runALSweep(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	spec := alSweepSpec
	s, err := setupModel(spec, tr)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x5eed))
	first := -sweepHalf + rng.IntN(2*sweepHalf+2-sweepEnergies)
	off := sweepStepEV * float64(first)
	es := make([]float64, sweepEnergies)
	for i := range es {
		es[i] = s.ef + units.EVToHartree(sweepStepEV*float64(first+i))
	}

	out := &outcome{values: map[string]float64{}, ops: newOpTally()}
	rs := &roundStats{}
	var lat, walls []float64
	var journalBytes int64
	attempts, degraded := 0, 0
	mem := startMemWindow()
	w := newWindow(cfg.seconds)
	rounds := 0
	var rss float64 // VmHWM after the first round: a fixed amount of work
	for w.another(rounds) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		journal := filepath.Join(cfg.dir, fmt.Sprintf("sweep-%d.journal", rounds))
		rep, l, solves, wall, err := sweepRound(ctx, s, es, spec.opts, journal, tr, fmt.Sprintf("round-%d", rounds))
		if err != nil {
			return nil, err
		}
		lat = append(lat, l...)
		walls = append(walls, wall)
		rs.solveWall = append(rs.solveWall, solves...)
		failed := 0
		for _, er := range rep.Results {
			if er.Result == nil {
				failed++
				fmt.Fprintf(os.Stderr, "sweep energy %.6f Ha ended %s after %d attempts: %v\n", er.Energy, er.Status, er.Attempts, er.Err)
				continue
			}
			rs.add(er.Result, rounds == 0)
		}
		out.ops.add("sweep.energy", len(es), failed)
		degraded += rep.Degraded
		if rounds == 0 {
			attempts = rep.Attempts
			if fi, err := os.Stat(journal); err == nil {
				journalBytes = fi.Size()
			}
		}
		os.Remove(journal)
		if rounds == 0 {
			if rss, err = peakRSSMB("self"); err != nil {
				return nil, err
			}
		}
		rounds++
	}
	out.ops.note("sweep.energy", fmt.Sprintf("degraded=%d", degraded))
	v := out.values
	v["peak_rss_mb"] = rss
	mem.values(v, rounds)
	rs.values(v, s)
	if tr.on {
		v["sweep.self_s"] = median(tr.selfTimes("sweep"))
		if err := probeApplies(v, s, rs, spec.opts, tr); err != nil {
			return nil, err
		}
	}
	total := 0.0
	for _, w := range walls {
		total += w
	}
	v["job_ms_p50"] = median(lat) * 1e3
	v["jobs_per_s"] = float64(len(lat)) / total
	v["sweep_s"] = median(walls)
	v["sweep.attempts"] = float64(attempts)
	v["journal.bytes"] = float64(journalBytes)

	out.facts = fdFacts("al-sweep", spec, s, rounds, fmt.Sprintf("%d energies E_F%+.3f..%+.3f eV", len(es), off, off+sweepStepEV*float64(len(es)-1)))
	out.checks = checkFD(ctx, s, rs.first, spec.opts, true, &out.facts)
	return out, nil
}

// runALDDSolve: setup, then rounds of ddEnergies independent solves at
// scattered energies on Ndm = 2 domains until the window closes.
func runALDDSolve(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	spec := alDDSpec
	s, err := setupModel(spec, tr)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0xdd))
	es := make([]float64, ddEnergies)
	evs := make([]float64, ddEnergies)
	for i, k := range rng.Perm(2*ddHalf + 1)[:ddEnergies] {
		evs[i] = ddStepEV * float64(k-ddHalf)
		es[i] = s.ef + units.EVToHartree(evs[i])
	}

	out := &outcome{values: map[string]float64{}, ops: newOpTally()}
	rs := &roundStats{}
	mem := startMemWindow()
	w := newWindow(cfg.seconds)
	rounds := 0
	var rss float64 // VmHWM after the first round: a fixed amount of work
	var window float64
	for w.another(rounds) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		failed := 0
		for i, e := range es {
			req := fmt.Sprintf("round-%d/e%d", rounds, i)
			sp := tr.start("core.solve", 0, req)
			t0 := time.Now()
			res, err := s.model.SolveCBSContext(ctx, e, spec.opts)
			wall := time.Since(t0).Seconds()
			tr.end(sp)
			window += wall
			if err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "solve at E_F%+.4f eV failed: %v\n", evs[i], err)
				continue
			}
			rs.solveWall = append(rs.solveWall, wall)
			rs.add(res, rounds == 0)
		}
		out.ops.add("solve", len(es), failed)
		if rounds == 0 {
			if rss, err = peakRSSMB("self"); err != nil {
				return nil, err
			}
		}
		rounds++
	}
	v := out.values
	v["peak_rss_mb"] = rss
	mem.values(v, rounds)
	rs.values(v, s)
	if tr.on {
		if err := probeApplies(v, s, rs, spec.opts, tr); err != nil {
			return nil, err
		}
	}
	v["job_ms_p50"] = median(rs.solveWall) * 1e3
	v["jobs_per_s"] = float64(len(rs.solveWall)) / window

	out.facts = fdFacts("al-dd-solve", spec, s, rounds, fmt.Sprintf("energies E_F%+.3f eV", evs))
	out.checks = checkFD(ctx, s, rs.first, spec.opts, false, &out.facts)
	return out, nil
}

// checkFD runs the FD output checks on the first round's results: the
// recomputed QEP residual and the lambda pairings of every result and,
// for the dense-setup workload, the Fermi-level inertia and the OBM
// transfer-matrix baseline at the fixed energy obmEnergy.
func checkFD(ctx context.Context, s *fdSetup, results []*core.Result, opts core.Options, full bool, notes *[]string) []error {
	var errs []error
	for _, res := range results {
		if err := checkResiduals(s.model.B, res.Energy, res.Pairs, opts.ResidualTol); err != nil {
			errs = append(errs, err)
		}
		if err := checkPairing(lambdas(res.Pairs), opts.LambdaMin); err != nil {
			errs = append(errs, fmt.Errorf("E=%.6f: %w", res.Energy, err))
		}
	}
	if !full {
		return errs
	}
	if err := checkFermiLevel(s.model.B, s.ef, s.nElec, alSweepSpec.nk); err != nil {
		errs = append(errs, err)
	}
	m, skip, miss, err := compareOBM(ctx, s.model, obmEnergy, opts)
	if err != nil {
		errs = append(errs, fmt.Errorf("E=%g against OBM: %w", obmEnergy, err))
	}
	*notes = append(*notes, fmt.Sprintf("OBM at E=%g Ha (E_F%+.4f eV): %d eigenvalues agree (at least %d required), %d OBM eigenvalues above the residual bound skipped, %d contour eigenvalues absent from OBM",
		obmEnergy, units.HartreeToEV(obmEnergy-s.ef), m, obmMinMatched, skip, miss))
	return errs
}

// The OBM comparison runs at one fixed energy, whatever the seed and E_F:
// the transfer-matrix baseline's output jumps with the energy (at 0.166 Ha
// it returns no eigenvalue, at 0.166 +- 1e-9 Ha four or five; see
// CHANGES.md), and at many lattice energies it converges none within the
// residual bound, so a comparison there would check nothing. At 0.1654 Ha
// (E_F - 0.041 eV on the al-sweep grid) it converges four annulus
// eigenvalues, and three or four at +-1e-9 and +1e-7 Ha.
const (
	obmEnergy     = 0.1654 // Ha
	obmMinMatched = 3
	// obmTol is the relative agreement required between the contour and
	// the transfer-matrix eigenvalues, both filtered at a 1e-5 residual.
	obmTol = 1e-4
)

// compareOBM solves at e with the contour method and with the OBM
// transfer-matrix baseline and compares the two (checkOBM).
func compareOBM(ctx context.Context, m *cbs.Model, e float64, opts core.Options) (matched, skipped, missing int, err error) {
	res, err := m.SolveCBSContext(ctx, e, opts)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("contour solve: %w", err)
	}
	ob, err := m.SolveOBM(e, cbs.DefaultOBMOptions())
	if err != nil {
		return 0, 0, 0, fmt.Errorf("OBM baseline: %w", err)
	}
	obPairs := make([]core.Eigenpair, len(ob.Pairs))
	for i, p := range ob.Pairs {
		obPairs[i] = core.Eigenpair{Lambda: p.Lambda, Residual: p.Residual}
	}
	return checkOBM(lambdas(res.Pairs), obPairs, opts.LambdaMin, opts.ResidualTol, obmTol, obmMinMatched)
}

func lambdas(ps []core.Eigenpair) []complex128 {
	out := make([]complex128, len(ps))
	for i, p := range ps {
		out[i] = p.Lambda
	}
	return out
}

func fdFacts(name string, spec fdSpec, s *fdSetup, rounds int, energies string) []string {
	o := spec.opts
	return []string{
		fmt.Sprintf("%s: Al(100) grid %dx%dx%d N=%d E_F=%.6f Ha (%.4f eV), FermiLevel nk=%d, %d setups",
			name, spec.nxy, spec.nxy, spec.nz, s.model.N(), s.ef, units.HartreeToEV(s.ef), spec.nk, spec.setupReps),
		fmt.Sprintf("options: Nint=%d Nmm=%d Nrh=%d Top=%d Mid=%d Ndm=%d; %s; %d rounds",
			o.Nint, o.Nmm, o.Nrh, o.Parallel.Top, o.Parallel.Mid, o.Parallel.Ndm, energies, rounds),
	}
}
