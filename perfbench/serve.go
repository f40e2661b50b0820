package main

// The cbsd-tb-mix workload: a real cmd/cbsd process serving a
// tight-binding slab over a loopback listener to two closed-loop clients.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cbs"
	"cbs/internal/core"
	"cbs/internal/negf"
	"cbs/internal/sweep"
	"cbs/internal/units"
)

// The served model and the mix.
var servedSlab = slabModel{nx: 4, ny: 3, onsite: 0, hop: -1}

const (
	serverSetups = 9 // server starts per run; setup_s is their median
	mixClients   = 2 // closed-loop clients, one keep-alive connection each

	// One round of the mix: 20 jobs plus one mode-loss probe in a seeded
	// order. The shares are assumed, not measured; README.md gives the
	// reasons.
	roundTransport = 9 // fresh energy windows: cache misses, NEGF, journal
	roundSolve     = 5 // a few repeated fingerprints: cache reads
	roundSweep     = 6 // fresh energies: fsynced journal appends
	roundProbe     = 1 // the fixed mode-loss probe (probeEnergy)
	roundLen       = roundTransport + roundSolve + roundSweep + roundProbe

	// rssJobs is the job count after which the server's VmHWM is read:
	// cbsd keeps every finished job in memory, so its RSS grows with the
	// jobs served, and reading it at a fixed count keeps peak_rss_mb apart
	// from throughput. A run dispatches at least this many jobs.
	rssJobs = 50 * roundLen

	mixEnergies  = 3   // energies per transport window and per sweep
	solvePool    = 4   // distinct solve fingerprints
	edgeMargin   = 0.1 // hartree kept between any energy and a band edge
	negfReplayed = 6   // transport jobs replayed in-process when traced
)

// mixOptions is the solver overlay every job sends; the server's defaults
// (cbs.DefaultOptions) fill the rest. The moment subspace Nrh*Nmm may not
// exceed the slab's N = 12, and at Nint = 64 the contour filter still lets
// the Bloch-factor pair of every mode within leakReach of E into the
// Hankel rank, so energies are drawn where at most maxLeakModes modes are
// that close (10 of the 12 subspace columns).
const mixOptionsJSON = `{"nint": 64, "nrh": 4, "nmm": 3}`

const (
	leakReach    = 3.3 // in units of |t|
	maxLeakModes = 5
)

func mixOptions() core.Options {
	o := cbs.DefaultOptions()
	o.Nint, o.Nrh, o.Nmm = 64, 4, 3
	return o
}

// The mode-loss probe: a solve job at a fixed in-band energy that the
// mix's energy filter would refuse (six modes within leakReach), sent
// with the server's default Nint = 32 and only the moment subspace cut to
// fit N = 12 (the defaults, Nrh*Nmm = 128, are refused as too large). The
// contour solve returns no propagating pair there although three modes
// are open (see CHANGES.md), so every probe fails the e^{+-ika} check and
// counts as a failed operation of its own kind; it does not fail the run.
// It is the same job in every round and every run, so the failed share
// is exactly 1/roundLen until the solver keeps these modes.
const (
	probeEnergy      = -3.45 // Ha; 0.15 Ha from the nearest band edge and contour-circle crossing
	probeOptionsJSON = `{"nrh": 4, "nmm": 3}`
)

// serverArgs are the cbsd flags of the served slab.
func serverArgs(addr, ckDir string) []string {
	s := servedSlab
	return []string{
		"-addr", addr, "-system", "tb-slab",
		"-tb-nx", strconv.Itoa(s.nx), "-tb-ny", strconv.Itoa(s.ny),
		"-tb-onsite", fmt.Sprint(s.onsite), "-tb-hop", fmt.Sprint(s.hop), "-tb-a", "1",
		"-workers", "2", "-queue-depth", "16", "-checkpoint-dir", ckDir, "-drain-grace", "5s",
	}
}

// server is one running cbsd process.
type server struct {
	cmd  *exec.Cmd
	base string
	ck   string
	done chan error
}

// startServer launches cbsd on a free loopback port and waits until
// /healthz answers; it returns the server and the time that took.
func startServer(ctx context.Context, bin, dir string, idx int) (*server, float64, error) {
	ck := filepath.Join(dir, fmt.Sprintf("ck-%d", idx))
	if err := os.MkdirAll(ck, 0o755); err != nil {
		return nil, 0, err
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("cbsd-%d-%d.log", idx, attempt)))
		if err != nil {
			return nil, 0, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		cmd := exec.Command(bin, serverArgs(addr, ck)...)
		cmd.Stdout, cmd.Stderr = logf, logf
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
		}
		s := &server{cmd: cmd, base: "http://" + addr, ck: ck, done: make(chan error, 1)}
		go func() { s.done <- cmd.Wait(); logf.Close() }()
		if err := s.waitHealthy(ctx, 30*time.Second); err != nil {
			lastErr = err
			s.stop()
			continue
		}
		return s, time.Since(t0).Seconds(), nil
	}
	return nil, 0, fmt.Errorf("cbsd did not come up: %w", lastErr)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *server) waitHealthy(ctx context.Context, limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("cbsd exited before answering /healthz: %v", err)
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // probe body
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("cbsd /healthz timed out")
}

// stop sends SIGTERM (cbsd drains and flushes its journals), kills after a
// grace period, and waits until the process has ended.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited process is already stopped
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // best effort; Wait below reaps it
		<-s.done
	}
}

// --- the job mix ---

type mixJob struct {
	idx    int
	kind   string // transport | solve | sweep | probe
	es     []float64
	cells  int
	poolIx int
}

// path is the endpoint the job is posted to; a probe is a solve job.
func (j mixJob) path() string {
	if j.kind == "probe" {
		return "/v1/solve"
	}
	return "/v1/" + j.kind
}

// cacheKey names the server-side fingerprint of a solve or probe job.
func (j mixJob) cacheKey() string {
	if j.kind == "probe" {
		return "probe"
	}
	return fmt.Sprintf("pool[%d]", j.poolIx)
}

func (j mixJob) body() string {
	evs := make([]string, len(j.es))
	for i, e := range j.es {
		evs[i] = strconv.FormatFloat(units.HartreeToEV(e-servedSlab.onsite), 'g', -1, 64)
	}
	list := "[" + strings.Join(evs, ", ") + "]"
	switch j.kind {
	case "transport":
		return fmt.Sprintf(`{"energies_ev": %s, "cells": %d, "options": %s}`, list, j.cells, mixOptionsJSON)
	case "sweep":
		return fmt.Sprintf(`{"energies_ev": %s, "options": %s}`, list, mixOptionsJSON)
	case "probe":
		return fmt.Sprintf(`{"energy_ev": %s, "options": %s}`, evs[0], probeOptionsJSON)
	default:
		return fmt.Sprintf(`{"energy_ev": %s, "options": %s}`, evs[0], mixOptionsJSON)
	}
}

// mixGen produces the seeded job sequence: the same seed gives the same
// jobs in the same order, whichever client takes each.
type mixGen struct {
	rng   *rand.Rand
	pool  []float64
	kinds []string
}

func newMixGen(seed uint64) *mixGen {
	g := &mixGen{rng: rand.New(rand.NewPCG(seed, 0x7b))}
	for i := 0; i < solvePool; i++ {
		g.pool = append(g.pool, g.energy())
	}
	return g
}

// energy draws an in-band energy at least edgeMargin from every band
// edge and from every Bloch-factor pair crossing the contour circles, where
// quantization and the analytic Bloch factors are sharp, with at most
// maxLeakModes modes within leakReach.
func (g *mixGen) energy() float64 {
	sl := servedSlab
	span := 6 * math.Abs(sl.hop)
	for {
		e := sl.onsite + span*(2*g.rng.Float64()-1)
		if sl.openModes(e) > 0 && sl.modesWithin(e, leakReach*math.Abs(sl.hop)) <= maxLeakModes &&
			sl.circleDistance(e, mixOptions().LambdaMin) >= edgeMargin && sl.edgeDistance(e) >= edgeMargin {
			return e
		}
	}
}

func (g *mixGen) next(idx int) mixJob {
	if idx%roundLen == 0 {
		g.kinds = g.kinds[:0]
		for i := 0; i < roundTransport; i++ {
			g.kinds = append(g.kinds, "transport")
		}
		for i := 0; i < roundSolve; i++ {
			g.kinds = append(g.kinds, "solve")
		}
		for i := 0; i < roundSweep; i++ {
			g.kinds = append(g.kinds, "sweep")
		}
		for i := 0; i < roundProbe; i++ {
			g.kinds = append(g.kinds, "probe")
		}
		g.rng.Shuffle(len(g.kinds), func(a, b int) { g.kinds[a], g.kinds[b] = g.kinds[b], g.kinds[a] })
	}
	j := mixJob{idx: idx, kind: g.kinds[idx%roundLen]}
	switch j.kind {
	case "solve":
		j.poolIx = g.rng.IntN(solvePool)
		j.es = []float64{g.pool[j.poolIx]}
	case "probe":
		j.es = []float64{probeEnergy}
	default:
		for i := 0; i < mixEnergies; i++ {
			j.es = append(j.es, g.energy())
		}
		// A window lists its energies in order, as T(E) comes back.
		sort.Float64s(j.es)
		j.cells = 2 + g.rng.IntN(3)
	}
	return j
}

// dispatcher hands jobs to the clients until the window closes and at
// least rssJobs jobs went out, then finishes the round in progress, so
// every run attempts whole rounds.
type dispatcher struct {
	mu       sync.Mutex
	gen      *mixGen
	next     int
	stopAt   int
	deadline time.Time
}

func (d *dispatcher) take() (mixJob, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopAt < 0 && !time.Now().Before(d.deadline) {
		d.stopAt = max((d.next+roundLen-1)/roundLen*roundLen, rssJobs)
	}
	if d.stopAt >= 0 && d.next >= d.stopAt {
		return mixJob{}, false
	}
	j := d.gen.next(d.next)
	d.next++
	return j, true
}

// jobRecord is one job's measured life.
type jobRecord struct {
	job       mixJob
	outcome   string // done | failed | canceled | rejected | error
	latency   float64
	submit    float64
	deliver   float64
	queueWait float64
	run       float64
	view      *jobView
	raw       json.RawMessage // the result field of a solve job
	err       error
}

// jobView is the client's reading of GET /v1/jobs/{id}.
type jobView struct {
	State     string          `json:"state"`
	Submitted string          `json:"submitted"`
	Started   string          `json:"started"`
	Finished  string          `json:"finished"`
	Error     string          `json:"error"`
	Result    json.RawMessage `json:"result"`
	Sweep     *struct {
		Energies []struct {
			Status string      `json:"status"`
			Result *resultView `json:"result"`
		} `json:"energies"`
	} `json:"sweep"`
	Transport *struct {
		Points []struct {
			EnergyEV float64 `json:"energy_ev"`
			T        float64 `json:"t"`
			NOpen    int     `json:"n_open"`
			Status   string  `json:"status"`
			Error    string  `json:"error"`
		} `json:"points"`
	} `json:"transport"`
}

type resultView struct {
	Pairs []struct {
		Lambda [2]float64 `json:"lambda"`
	} `json:"pairs"`
}

func (r *resultView) lambdas() []complex128 {
	out := make([]complex128, len(r.Pairs))
	for i, p := range r.Pairs {
		out[i] = complex(p.Lambda[0], p.Lambda[1])
	}
	return out
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	name string
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(name, base string, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{name: name, hc: &http.Client{Transport: t}, base: base, tr: tr}
}

// do submits one job, follows its SSE stream to the terminal event, then
// reads the job's final state.
func (c *client) do(ctx context.Context, j mixJob) jobRecord {
	rec := jobRecord{job: j}
	req := fmt.Sprintf("job-%d", j.idx)
	root := c.tr.start("job."+j.kind, 0, req)
	defer c.tr.end(root)

	t0 := time.Now()
	sp := c.tr.start("http.submit", root, req)
	status, body, err := c.call(ctx, http.MethodPost, j.path(), j.body())
	c.tr.end(sp)
	rec.submit = time.Since(t0).Seconds()
	if err != nil {
		rec.outcome, rec.err = "error", err
		return rec
	}
	if status == http.StatusTooManyRequests {
		rec.outcome = "rejected"
		return rec
	}
	var sub struct {
		ID string `json:"id"`
	}
	if status != http.StatusAccepted || json.Unmarshal(body, &sub) != nil || sub.ID == "" {
		rec.outcome, rec.err = "error", fmt.Errorf("submit answered %d: %s", status, bytes.TrimSpace(body))
		return rec
	}

	sp = c.tr.start("sse.wait", root, req)
	err = c.awaitFinal(ctx, sub.ID)
	c.tr.end(sp)
	tFinal := time.Now()
	rec.latency = tFinal.Sub(t0).Seconds()
	if err != nil {
		rec.outcome, rec.err = "error", err
		return rec
	}

	sp = c.tr.start("http.get", root, req)
	status, body, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+sub.ID, "")
	c.tr.end(sp)
	var v jobView
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET job answered %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &v)
	}
	if err != nil {
		rec.outcome, rec.err = "error", err
		return rec
	}
	rec.view, rec.raw, rec.outcome = &v, v.Result, v.State
	if v.Error != "" {
		rec.err = errors.New(v.Error)
	}
	sub0, e1 := time.Parse(time.RFC3339Nano, v.Submitted)
	st, e2 := time.Parse(time.RFC3339Nano, v.Started)
	fin, e3 := time.Parse(time.RFC3339Nano, v.Finished)
	if e1 == nil && e2 == nil && e3 == nil {
		rec.queueWait = st.Sub(sub0).Seconds()
		rec.run = fin.Sub(st).Seconds()
		rec.deliver = tFinal.Sub(fin).Seconds()
	}
	return rec
}

func (c *client) call(ctx context.Context, method, path, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-CBS-Client", c.name)
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// awaitFinal reads the job's SSE stream until the event marked final and
// then to the end of the response, so the connection is reused.
func (c *client) awaitFinal(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-CBS-Client", c.name)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events answered %d", resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadString('\n')
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev struct {
				Final bool `json:"final"`
			}
			if json.Unmarshal([]byte(data), &ev) == nil && ev.Final {
				_, err := io.Copy(io.Discard, rd)
				return err
			}
		}
		if err != nil {
			return fmt.Errorf("event stream ended before the final event: %w", err)
		}
	}
}

// --- server-side counters ---

type serverStats struct {
	hits, misses, deduped  float64
	allocBytes, gcPauseNs  float64
	logBytes, journalBytes float64
}

func (s *server) stats(ctx context.Context, hc *http.Client) (serverStats, error) {
	var st serverStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return st, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	var m struct {
		CBSD struct {
			Cache struct {
				Hits    float64 `json:"hits"`
				Misses  float64 `json:"misses"`
				Deduped float64 `json:"deduped"`
			} `json:"cache"`
		} `json:"cbsd"`
		Mem struct {
			TotalAlloc   float64 `json:"TotalAlloc"`
			PauseTotalNs float64 `json:"PauseTotalNs"`
		} `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return st, fmt.Errorf("reading /metrics: %w", err)
	}
	st.hits, st.misses, st.deduped = m.CBSD.Cache.Hits, m.CBSD.Cache.Misses, m.CBSD.Cache.Deduped
	st.allocBytes, st.gcPauseNs = m.Mem.TotalAlloc, m.Mem.PauseTotalNs
	entries, err := os.ReadDir(s.ck)
	if err != nil {
		return st, err
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return st, err
		}
		switch {
		case e.Name() == "jobs.log":
			st.logBytes += float64(fi.Size())
		case strings.HasSuffix(e.Name(), ".journal"):
			st.journalBytes += float64(fi.Size())
		}
	}
	return st, nil
}

// --- the workload ---

func runCBSDMix(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	// A job that never finishes fails the run instead of hanging it.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(cfg.seconds*float64(time.Second))+90*time.Second)
	defer cancel()
	var setups []float64
	var srv *server
	for i := 0; i < serverSetups; i++ {
		sp := tr.start("setup", 0, fmt.Sprintf("setup-%d", i))
		s, d, err := startServer(ctx, cfg.cbsd, cfg.dir, i)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		if i < serverSetups-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()

	out := &outcome{values: map[string]float64{}, ops: newOpTally()}
	gen := newMixGen(cfg.seed)
	clients := make([]*client, mixClients)
	for i := range clients {
		clients[i] = newClient(fmt.Sprintf("client-%d", i), srv.base, tr)
	}
	defer func() {
		for _, c := range clients {
			c.hc.CloseIdleConnections()
		}
	}()

	// Warm-up: each pooled solve fingerprint and the probe are computed
	// once (a miss); every later solve or probe job must read back exactly
	// this result. Warm-up jobs are set-up, not counted operations.
	var checks []error
	warm := make([]mixJob, solvePool)
	for i, e := range gen.pool {
		warm[i] = mixJob{idx: -1 - i, kind: "solve", es: []float64{e}, poolIx: i}
	}
	warm = append(warm, mixJob{idx: -1 - solvePool, kind: "probe", es: []float64{probeEnergy}})
	missResult := map[string][]byte{}
	for _, j := range warm {
		rec := clients[0].do(ctx, j)
		if rec.outcome != "done" {
			checks = append(checks, fmt.Errorf("warm-up %s at E=%.6f: %s %v", j.kind, j.es[0], rec.outcome, rec.err))
			continue
		}
		missResult[j.cacheKey()] = rec.raw
		if j.kind == "solve" {
			checks = append(checks, checkJob(rec)...)
		}
	}

	before, err := srv.stats(ctx, clients[0].hc)
	if err != nil {
		return nil, err
	}
	d := &dispatcher{gen: gen, stopAt: -1, deadline: time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))}
	var mu sync.Mutex
	var recs []jobRecord
	var rss float64
	var rssErr error
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for ctx.Err() == nil {
				j, ok := d.take()
				if !ok {
					return
				}
				rec := c.do(ctx, j)
				mu.Lock()
				recs = append(recs, rec)
				if len(recs) == rssJobs {
					rss, rssErr = peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	window := time.Since(t0).Seconds()
	if rssErr != nil {
		return nil, rssErr
	}
	after, err := srv.stats(ctx, clients[0].hc)
	if err != nil {
		return nil, err
	}

	// Tally and check. Latencies cover the mix's jobs; the probe is a
	// correctness probe and stays out of them.
	byKind := map[string][]float64{}
	var lat, submit, deliver, wait []float64
	runs := map[string][]float64{}
	failed, canceled, rejected := map[string]int{}, map[string]int{}, map[string]int{}
	modesLost := 0
	var transports []mixJob
	for _, r := range recs {
		k := r.job.kind
		switch r.outcome {
		case "done":
		case "canceled":
			canceled[k]++
			failed[k]++
			continue
		case "rejected":
			rejected[k]++
			failed[k]++
			continue
		default:
			failed[k]++
			checks = append(checks, fmt.Errorf("job %d (%s): %s %v", r.job.idx, k, r.outcome, r.err))
			continue
		}
		if k == "solve" || k == "probe" {
			if err := checkCacheHit(r.job.cacheKey(), r.raw, missResult[r.job.cacheKey()]); err != nil {
				checks = append(checks, err)
			}
		}
		if k == "probe" {
			if len(checkJob(r)) > 0 {
				failed[k]++
				modesLost++
			}
			continue
		}
		lat = append(lat, r.latency)
		byKind[k] = append(byKind[k], r.latency)
		submit = append(submit, r.submit)
		deliver = append(deliver, r.deliver)
		wait = append(wait, r.queueWait)
		runs[k] = append(runs[k], r.run)
		checks = append(checks, checkJob(r)...)
		if k == "transport" && len(transports) < negfReplayed {
			transports = append(transports, r.job)
		}
	}
	counts := map[string]int{}
	for _, r := range recs {
		counts[r.job.kind]++
	}
	for _, k := range []string{"transport", "solve", "sweep", "probe"} {
		out.ops.add("job."+k, counts[k], failed[k])
		note := fmt.Sprintf("canceled=%d rejected429=%d", canceled[k], rejected[k])
		if k == "probe" {
			note += fmt.Sprintf(" modes_lost=%d", modesLost)
		}
		out.ops.note("job."+k, note)
	}
	if len(checks) > 20 {
		checks = append(checks[:20], fmt.Errorf("... and %d more failed checks", len(checks)-20))
	}
	out.checks = checks

	rounds := float64(len(recs)) / roundLen
	v := out.values
	v["setup_s"] = median(setups)
	v["peak_rss_mb"] = rss // after rssJobs jobs
	v["jobs_per_s"] = float64(len(lat)) / window
	v["job_ms_p50"] = median(lat) * 1e3
	v["job_ms_p99"] = quantile(lat, 0.99) * 1e3
	v["transport_job_ms_p50"] = median(byKind["transport"]) * 1e3
	v["cached_job_ms_p50"] = median(byKind["solve"]) * 1e3
	v["sweep_job_ms_p50"] = median(byKind["sweep"]) * 1e3
	v["http.submit_ms_p50"] = median(submit) * 1e3
	v["sse.deliver_ms_p50"] = median(deliver) * 1e3
	v["jobs.queue_wait_ms_p50"] = median(wait) * 1e3
	v["jobs.queue_wait_ms_p99"] = quantile(wait, 0.99) * 1e3
	for _, k := range []string{"transport", "solve", "sweep"} {
		v["jobs.run_ms_p50."+k] = median(runs[k]) * 1e3
	}
	hits, misses, dedup := after.hits-before.hits, after.misses-before.misses, after.deduped-before.deduped
	v["rescache.hits"] = hits / rounds
	v["rescache.misses"] = misses / rounds
	v["rescache.deduped"] = dedup / rounds
	if n := hits + misses + dedup; n > 0 {
		v["rescache.hit_ratio"] = hits / n
	}
	v["jobs.log_bytes"] = (after.logBytes - before.logBytes) / rounds
	v["journal.bytes"] = (after.journalBytes - before.journalBytes) / rounds
	v["go.alloc_mb"] = (after.allocBytes - before.allocBytes) / rounds / (1 << 20)
	v["go.gc_pause_ms"] = (after.gcPauseNs - before.gcPauseNs) / rounds / 1e6
	if tr.on {
		ms, err := replayNEGF(ctx, transports, tr)
		if err != nil {
			return nil, err
		}
		v["negf.self_ms"] = ms
	}
	out.facts = []string{
		fmt.Sprintf("cbsd-tb-mix: tb-slab %dx%d eps=%g t=%g a=1 (N=%d), cbsd %s",
			servedSlab.nx, servedSlab.ny, servedSlab.onsite, servedSlab.hop, servedSlab.nx*servedSlab.ny, strings.Join(serverArgs("<addr>", "<dir>")[2:], " ")),
		fmt.Sprintf("mix: %d closed-loop clients; per round of %d jobs: %d transport (fresh windows of %d energies, 2-4 cells), %d solve (pool of %d fingerprints), %d sweep (%d fresh energies); options %s; %d jobs in %.1f s",
			mixClients, roundLen, roundTransport, mixEnergies, roundSolve, solvePool, roundSweep, mixEnergies, mixOptionsJSON, len(recs), window),
		fmt.Sprintf("probe: %d solve job per round at E=%g Ha with options %s; warm-up: %d pool solves and 1 probe solve; peak_rss_mb read after %d jobs",
			roundProbe, probeEnergy, probeOptionsJSON, solvePool, rssJobs),
	}
	return out, nil
}

// checkJob checks one finished job against the analytic slab: clean
// devices transmit exactly their open modes, and the propagating Bloch
// factors of solve and sweep results are e^{+-ika}.
func checkJob(r jobRecord) []error {
	v := r.view
	var errs []error
	wrap := func(err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("job %d (%s): %w", r.job.idx, r.job.kind, err))
		}
	}
	switch r.job.kind {
	case "transport":
		if v.Transport == nil {
			wrap(errors.New("no transport curve"))
			break
		}
		var ts []float64
		var nOpen []int
		for i, p := range v.Transport.Points {
			if p.Status != string(negf.PointOK) {
				wrap(fmt.Errorf("point status %s: %s", p.Status, p.Error))
			}
			if i < len(r.job.es) && math.Abs(units.EVToHartree(p.EnergyEV)-r.job.es[i]) > 1e-9 {
				wrap(fmt.Errorf("point %d is at %.9f eV, requested %.9f eV", i, p.EnergyEV, units.HartreeToEV(r.job.es[i])))
			}
			ts = append(ts, p.T)
			nOpen = append(nOpen, p.NOpen)
		}
		wrap(servedSlab.checkTransmission(r.job.es, ts, nOpen))
	case "sweep":
		if v.Sweep == nil || len(v.Sweep.Energies) != len(r.job.es) {
			wrap(errors.New("sweep report does not cover the requested energies"))
			break
		}
		for i, en := range v.Sweep.Energies {
			if en.Result == nil || (en.Status != string(sweep.StatusOK)) {
				wrap(fmt.Errorf("energy %d ended %s", i, en.Status))
				continue
			}
			wrap(servedSlab.checkUnitLambdas(r.job.es[i], en.Result.lambdas()))
		}
	case "solve", "probe":
		var res resultView
		if err := json.Unmarshal(r.raw, &res); err != nil {
			wrap(fmt.Errorf("unreadable result: %w", err))
			break
		}
		wrap(servedSlab.checkUnitLambdas(r.job.es[0], res.lambdas()))
	}
	return errs
}

// replayNEGF reruns transport jobs in-process through
// negf.TransmissionSweep with a timed solve and returns the median NEGF
// self time (ms): the sweep's wall time minus its solves.
func replayNEGF(ctx context.Context, jobs []mixJob, tr *tracer) (float64, error) {
	m, err := cbs.NewTBSlab(cbs.TBSlabConfig{Nx: servedSlab.nx, Ny: servedSlab.ny, Onsite: servedSlab.onsite, Hopping: servedSlab.hop, A: 1})
	if err != nil {
		return 0, err
	}
	opts := mixOptions()
	for i, j := range jobs {
		req := fmt.Sprintf("negf-replay-%d", i)
		root := tr.start("negf.transmission_sweep", 0, req)
		solve := func(ctx context.Context, e float64, o core.Options) (*core.Result, error) {
			sp := tr.start("core.solve", root, req)
			defer tr.end(sp)
			return m.SolveCBSContext(ctx, e, o)
		}
		spec := negf.Spec{Energies: j.es, Device: negf.Device{Cells: j.cells}}
		_, err := negf.TransmissionSweep(ctx, m.Backend(), solve, spec, opts, sweep.Config{OperatorDesc: m.OperatorDesc()})
		tr.end(root)
		if err != nil {
			return 0, err
		}
	}
	return median(tr.selfTimes("negf.transmission_sweep")) * 1e3, nil
}
