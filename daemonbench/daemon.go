package main

// The daemon under test lives in this process, wired the way
// cmd/counterpointd wires it: one engine behind a persistent verdict
// store, a jobs manager journaling to a jobstore file (recovered at
// boot), and server.New with the full catalogue and the daemon's default
// flags, served over loopback TCP. No child process is ever started.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/haswell"
	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/perfdb"
	"repro/internal/server"
	"repro/internal/stats"
)

// shutdownGrace matches counterpointd's graceful-shutdown bound.
const shutdownGrace = 10 * time.Second

// daemon is one booted service instance.
type daemon struct {
	dir    string
	vs     *perfdb.VerdictStore
	eng    *engine.Engine
	jst    *jobstore.Store
	jm     *jobs.Manager
	srv    *server.Server
	hs     *http.Server
	ln     net.Listener
	url    string
	served chan error

	closeOnce sync.Once
	closeErr  error
}

// seams lets the traced run wrap the two injectable persistence seams and
// the HTTP handler; the zero value wires the daemon exactly as
// counterpointd does.
type seams struct {
	store   func(engine.VerdictStore) engine.VerdictStore
	journal func(jobs.Journal) jobs.Journal
	handler func(http.Handler) http.Handler
}

// bootDaemon constructs and starts a daemon whose stores live in a fresh
// directory under tmpRoot. On error everything already opened is closed.
func bootDaemon(tmpRoot string, sm seams) (_ *daemon, err error) {
	d := &daemon{served: make(chan error, 1)}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if d.dir, err = os.MkdirTemp(tmpRoot, "daemon-"); err != nil {
		return nil, err
	}
	if d.vs, err = perfdb.OpenVerdictStore(filepath.Join(d.dir, "verdicts.db")); err != nil {
		return nil, err
	}
	var store engine.VerdictStore = d.vs
	if sm.store != nil {
		store = sm.store(store)
	}
	workers := runtime.GOMAXPROCS(0)
	d.eng = engine.New(engine.WithWorkers(workers), engine.WithVerdictStore(store))
	if d.jst, err = jobstore.Open(filepath.Join(d.dir, "jobs.db"), jobstore.Options{}); err != nil {
		return nil, fmt.Errorf("job journal: %w", err)
	}
	var journal jobs.Journal = d.jst
	if sm.journal != nil {
		journal = sm.journal(journal)
	}
	d.jm = jobs.NewManager(jobs.Options{
		MaxConcurrent: jobs.DefaultMaxConcurrent,
		MaxRetained:   jobs.DefaultMaxRetained,
		RetainFor:     jobs.DefaultRetainFor,
		Journal:       journal,
	})
	if _, err = jobstore.Recover(d.jm, d.jst, map[string]jobstore.Rebuilder{
		"sweep":   jobs.RebuildSweep(d.eng),
		"explore": jobs.RebuildExplore(),
	}); err != nil {
		return nil, fmt.Errorf("job journal recovery: %w", err)
	}
	var catalog []server.Model
	for _, cm := range haswell.Catalog() {
		catalog = append(catalog, server.Model{Name: cm.Name, Source: cm.Source})
	}
	d.srv = server.New(server.Options{
		Engine:        d.eng,
		Defaults:      engine.Config{Confidence: core.DefaultConfidence, Mode: stats.Correlated, IdentifyViolations: true},
		MaxConcurrent: workers,
		Catalog:       catalog,
		Jobs:          d.jm,
		JobStore:      d.jst,
		MaxSweepCells: server.DefaultMaxSweepCells,
		MaxStreams:    server.DefaultMaxStreams,
		StreamBuffer:  server.DefaultStreamBuffer,
		StreamIdleTTL: server.DefaultStreamIdleTTL,
	})
	if d.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	d.url = "http://" + d.ln.Addr().String()
	hygieneAddrs.add(d.ln.Addr().String())
	var h http.Handler = d.srv
	if sm.handler != nil {
		h = sm.handler(h)
	}
	d.hs = &http.Server{Handler: h}
	go func() { d.served <- d.hs.Serve(d.ln) }()
	liveDaemons.add(d)
	return d, nil
}

// close tears the daemon down in counterpointd's order: listener and
// in-flight requests, streams, jobs, journal, engine, verdict store, then
// the store directory. Safe to call more than once and on a partially
// booted daemon.
func (d *daemon) close() error {
	d.closeOnce.Do(func() {
		var errs []error
		if d.hs != nil {
			ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
			if err := d.hs.Shutdown(ctx); err != nil {
				d.hs.Close()
			}
			cancel()
			if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
				errs = append(errs, err)
			}
		} else if d.ln != nil {
			d.ln.Close()
		}
		if d.srv != nil {
			d.srv.Close()
		}
		if d.jm != nil {
			d.jm.Close()
		}
		if d.jst != nil {
			errs = append(errs, d.jst.Close())
		}
		if d.eng != nil {
			d.eng.Close()
		}
		if d.vs != nil {
			errs = append(errs, d.vs.Close())
		}
		if d.dir != "" {
			errs = append(errs, os.RemoveAll(d.dir))
		}
		liveDaemons.remove(d)
		d.closeErr = errors.Join(errs...)
	})
	return d.closeErr
}

// daemonSet tracks booted daemons so every exit path can close them.
type daemonSet struct {
	mu sync.Mutex
	m  map[*daemon]bool
}

var liveDaemons = &daemonSet{m: map[*daemon]bool{}}

func (s *daemonSet) add(d *daemon) {
	s.mu.Lock()
	s.m[d] = true
	s.mu.Unlock()
}

func (s *daemonSet) remove(d *daemon) {
	s.mu.Lock()
	delete(s.m, d)
	s.mu.Unlock()
}

func (s *daemonSet) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// closeAll closes every daemon still running.
func (s *daemonSet) closeAll() {
	s.mu.Lock()
	ds := make([]*daemon, 0, len(s.m))
	for d := range s.m {
		ds = append(ds, d)
	}
	s.mu.Unlock()
	for _, d := range ds {
		d.close()
	}
}
