package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"dedupsim/internal/cluster"
	"dedupsim/internal/farm"
	"dedupsim/internal/tenant"
)

// window is the closed loop's client count: the generator keeps this many
// jobs outstanding and submits the next only when one is observed done.
const window = 8

// served is what the generator saw of one pass of a job list through a
// tier, plus the tier's own public snapshots taken before it was closed.
type served struct {
	tier     string // "farm" or "cluster"
	views    []farm.JobView
	errs     []error
	latMs    []float64 // submit call -> observed done, per job
	submitUs []float64 // the Submit call alone
	makespan time.Duration
	farm     farm.Stats          // farm tier
	fleet    cluster.FleetStats  // cluster tier
	shares   map[string]float64  // tenant -> share of cycles over the middle half (farm tier)
	promMs   float64             // Farm.WriteProm, farm tier
	statsMs  float64             // Farm.WriteStats
	recovery *farm.RecoveryStats // after Kill and reopen, when asked for
}

// sweepKhz is total simulated kilocycles over the makespan.
func (s *served) sweepKhz() float64 {
	var cycles int64
	for _, v := range s.views {
		if v.Stats != nil {
			cycles += v.Stats.Cycles
		}
	}
	return float64(cycles) / 1e3 / s.makespan.Seconds()
}

func tenantRegistry() *tenant.Registry {
	return tenant.NewRegistry(tenant.Config{Tenants: map[string]tenant.Limits{
		"t1": {Weight: 1}, "t2": {Weight: 2}, "t3": {Weight: 1},
	}})
}

func farmConfig(dir string, workers int) farm.Config {
	return farm.Config{
		Workers: workers, MaxLanes: 8, CheckpointEvery: 2048,
		DataDir: dir, Fsync: "interval",
		DefaultTimeout: time.Minute, Tenants: tenantRegistry(),
	}
}

// closedLoop drives jobs through submit with `window` outstanding. submit
// returns a wait function that blocks until the job is terminal; one
// goroutine per outstanding job runs it and reports back, so every
// goroutine has ended when closedLoop returns. progress is called on the
// generator goroutine after each completion.
func closedLoop(tr *tracer, tier string, jobs []farm.JobSpec,
	submit func(farm.JobSpec) (id string, wait func() (farm.JobView, error), err error),
	progress func(done int)) *served {

	type finished struct {
		idx, slot int
		view      farm.JobView
		err       error
		at        time.Time
	}
	n := len(jobs)
	out := &served{tier: tier, views: make([]farm.JobView, n), errs: make([]error, n), latMs: make([]float64, n)}
	done := make(chan finished, window) // one send per outstanding job
	free := make([]int, window)
	for i := range free {
		free[i] = i + 1
	}
	parent := tr.top()
	t0 := make([]time.Time, n)
	ids := make([]string, n)
	start := time.Now()
	next, outstanding, completed := 0, 0, 0
	for completed < n {
		for outstanding < window && next < n {
			idx := next
			next++
			t0[idx] = time.Now()
			id, wait, err := submit(jobs[idx])
			dur := time.Since(t0[idx])
			out.submitUs = append(out.submitUs, float64(dur)/1e3)
			if err != nil {
				out.errs[idx] = err
				completed++
				continue
			}
			ids[idx] = id
			slot := free[len(free)-1]
			free = free[:len(free)-1]
			outstanding++
			go func() {
				v, err := wait()
				done <- finished{idx: idx, slot: slot, view: v, err: err, at: time.Now()}
			}()
		}
		if outstanding == 0 {
			continue
		}
		f := <-done
		outstanding--
		completed++
		free = append(free, f.slot)
		out.views[f.idx], out.errs[f.idx] = f.view, f.err
		lat := f.at.Sub(t0[f.idx])
		out.latMs[f.idx] = float64(lat) / 1e6
		js := tr.add(tier+".job", ids[f.idx], parent, f.slot, t0[f.idx], lat)
		tr.add(tier+".submit", ids[f.idx], js, f.slot, t0[f.idx], time.Duration(out.submitUs[f.idx]*1e3))
		if progress != nil {
			progress(completed)
		}
	}
	out.makespan = time.Since(start)
	return out
}

// serveFarm runs the jobs through one in-process durable farm of two
// workers. With recover set it then kills the farm as a crash would and
// reopens it on the same directory for the recovery number.
func serveFarm(tr *tracer, jobs []farm.JobSpec, parent string, recover bool) (*served, error) {
	dir, err := os.MkdirTemp(parent, "farm-")
	if err != nil {
		return nil, err
	}
	cfg := farmConfig(dir, 2)
	sp := tr.begin("farm.open", "")
	f, err := farm.Open(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	closeFarm := func() {
		sp := tr.begin("farm.close", "")
		f.Close()
		tr.end(sp)
	}
	// Tenant shares over the middle half of the run, where the window is
	// full and every tenant has work queued.
	var lo, hi map[string]tenant.View
	out := closedLoop(tr, "farm", jobs,
		func(spec farm.JobSpec) (string, func() (farm.JobView, error), error) {
			j, err := f.Submit(spec)
			if err != nil {
				return "", nil, err
			}
			return j.ID, func() (farm.JobView, error) { <-j.Done(); return j.View(), nil }, nil
		},
		func(done int) {
			switch done {
			case len(jobs) / 4:
				lo = f.Stats().Tenants
			case 3 * len(jobs) / 4:
				hi = f.Stats().Tenants
			}
		})
	out.farm = f.Stats()
	out.shares = map[string]float64{}
	total := 0.0
	for name := range hi {
		out.shares[name] = float64(hi[name].Cycles - lo[name].Cycles)
		total += out.shares[name]
	}
	for name := range out.shares {
		out.shares[name] /= total
	}
	if tr != nil {
		sp := tr.begin("obs.render", "")
		t0 := time.Now()
		err = f.WriteProm(io.Discard)
		out.promMs = float64(time.Since(t0)) / 1e6
		t0 = time.Now()
		f.WriteStats(io.Discard)
		out.statsMs = float64(time.Since(t0)) / 1e6
		tr.end(sp)
		if err != nil {
			closeFarm()
			return nil, fmt.Errorf("WriteProm: %w", err)
		}
	}
	if !recover {
		closeFarm()
		return out, nil
	}
	sp = tr.begin("farm.recover", "")
	f.Kill()
	f, err = farm.Open(cfg)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("reopen after Kill: %w", err)
	}
	out.recovery = f.RecoveryStats()
	closeFarm()
	return out, nil
}

// shareError is the largest distance, in percent of the whole, between a
// tenant's observed share of cycles and its 1:2:1 weight.
func shareError(shares map[string]float64) float64 {
	worst := 0.0
	for name, want := range map[string]float64{"t1": 0.25, "t2": 0.5, "t3": 0.25} {
		worst = math.Max(worst, 100*math.Abs(shares[name]-want))
	}
	return worst
}

// serveFleet runs the jobs through an in-process router fronting two
// loopback farm nodes of one worker each: the same farm configuration,
// the same total of two workers, plus the router.
func serveFleet(tr *tracer, jobs []farm.JobSpec, parent string) (*served, error) {
	dir, err := os.MkdirTemp(parent, "fleet-")
	if err != nil {
		return nil, err
	}
	sp := tr.begin("cluster.open", "")
	r := cluster.NewRouter(cluster.RouterConfig{HeartbeatEvery: 20 * time.Millisecond, Tenants: tenantRegistry()})
	rsrv := httptest.NewServer(cluster.Handler(r))
	// Shut down front to back: the router stops probing before the nodes
	// it probes go away.
	closers := []func(){r.Close, rsrv.Close}
	defer func() {
		sp := tr.begin("cluster.close", "")
		for _, c := range closers {
			c()
		}
		tr.end(sp)
	}()
	for _, id := range []string{"n1", "n2"} {
		cfg := farmConfig(filepath.Join(dir, id), 1)
		cfg.FetchArtifact = cluster.RouterArtifactFetcher(nil, rsrv.URL)
		f, err := farm.Open(cfg)
		if err != nil {
			tr.end(sp)
			return nil, err
		}
		srv := httptest.NewServer(farm.Handler(f))
		closers = append(closers, srv.Close, f.Close)
		if err := r.Register(id, srv.URL); err != nil {
			tr.end(sp)
			return nil, err
		}
	}
	tr.end(sp)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out := closedLoop(tr, "cluster", jobs,
		func(spec farm.JobSpec) (string, func() (farm.JobView, error), error) {
			v, err := r.Submit(ctx, spec)
			if err != nil {
				return "", nil, err
			}
			return v.ID, func() (farm.JobView, error) {
				fv, err := r.WaitDone(ctx, v.ID)
				return fv.JobView, err
			}, nil
		}, nil)
	out.fleet = r.Stats()
	return out, nil
}
