package codeserver

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/lang/sema"
	"safetsa/internal/obs"
	"safetsa/internal/opt"
	"safetsa/internal/wire"
)

// Pool is the parallel producer: a bounded worker pool running the
// parse → sema → ssabuild → verify → optimize → wire-encode pipeline for
// many requests concurrently, with per-stage timeouts and context
// cancellation. The store's singleflight sits in front of it, so the
// pool only ever sees distinct keys.
//
// Each worker compiles in a driver.Arena, which it takes from the
// process's stock (compileArenas) and gives back once the compile is
// encoded and copied out, so one compile's memory is the next one's.
type Pool struct {
	sem          chan struct{}
	stageTimeout time.Duration
	m            *Metrics
}

// NewPool creates a pool with the given concurrency (<=0 means
// GOMAXPROCS) and per-stage timeout (<=0 disables stage deadlines;
// request contexts still cancel).
func NewPool(workers int, stageTimeout time.Duration, m *Metrics) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		sem:          make(chan struct{}, workers),
		stageTimeout: stageTimeout,
		m:            m,
	}
}

// Compile runs the full producer pipeline for one source set, blocking
// until a worker slot is free (or ctx is cancelled while waiting). What it
// hands back is admitted on the producer's evidence — the driver verified
// the module after ssabuild and again after the optimizer — and is its
// encoding alone, copied out of the arena at its exact length: nothing
// else of the compile outlives the call.
func (p *Pool) Compile(ctx context.Context, files map[string]string, opts Options) (admitted, error) {
	select {
	case p.sem <- struct{}{}:
		defer func() { <-p.sem }()
	case <-ctx.Done():
		return admitted{}, ctx.Err()
	}
	p.m.n[mCompilesInFlight].Add(1)
	defer p.m.n[mCompilesInFlight].Add(-1)
	start := time.Now()

	a := compileArenas.Take()
	out, err := p.compile(ctx, a, files, opts)
	if err != nil {
		// After an error the arena goes to the collector, not to the
		// next compile: a stage abandoned at its deadline may still be
		// running in it.
		return admitted{}, err
	}
	compileArenas.Give(a)
	p.m.n[mCompiles].Add(1)
	p.m.stages[stageCompile].Observe(time.Since(start))
	return out, nil
}

// compileArenas is the stock of the arenas compiles run in. It keeps no
// arena over driver.MaxArenaBytes, and never more idle than the compiles
// that ran at once, which the pools' workers bound (DESIGN.md §9).
var compileArenas = core.NewStock("codeserver.compile_arenas", driver.MaxArenaBytes, driver.NewArena)

// compile runs the stages in a; the bytes it returns are a copy. The
// stages run one after another on one goroutine of the compile's own, so
// the stack the front end grows serves every later stage; compile waits
// on each under its own deadline.
func (p *Pool) compile(ctx context.Context, a *driver.Arena, files map[string]string, opts Options) (admitted, error) {
	w := stageWorker{run: make(chan func() error), done: make(chan error, 1)}
	go w.serve()
	defer close(w.run)
	var prog *sema.Program
	err := p.stage(ctx, w, "frontend", func(ctx context.Context) (err error) {
		prog, err = a.Frontend(ctx, files)
		return err
	})
	if err != nil {
		return admitted{}, err
	}
	var mod *core.Module
	err = p.stage(ctx, w, "ssabuild", func(ctx context.Context) (err error) {
		mod, err = a.CompileTSA(ctx, prog)
		return err
	})
	if err != nil {
		return admitted{}, err
	}
	if opts.Optimize || opts.ModuleOpt {
		err = p.stage(ctx, w, "optimize", func(ctx context.Context) error {
			_, err := a.Optimize(ctx, mod, opt.Options{ModuleLevel: opts.ModuleOpt})
			return err
		})
		if err != nil {
			return admitted{}, err
		}
	}
	var out admitted
	err = p.stage(ctx, w, "encode", func(context.Context) error {
		if opts.WireV2 {
			data := a.EncodeV2(mod)
			out.wire = make([]byte, len(data))
			copy(out.wire, data)
		} else {
			out.wire = wire.EncodeModule(mod)
		}
		out.instrs = mod.NumInstrs()
		return nil
	})
	return out, err
}

// stageWorker is the goroutine one compile's stages run on: it runs each
// stage it is handed and answers on done, whose one slot holds the answer
// of a stage the compile abandoned, so the worker never blocks on it. It
// ends once run is closed, which the compile does on return: a stage
// abandoned at its deadline finishes in the background, and its worker
// stops at the next stage boundary.
type stageWorker struct {
	run  chan func() error
	done chan error
}

func (w stageWorker) serve() {
	for fn := range w.run {
		w.done <- fn()
	}
}

// stage runs one pipeline stage on w under the stage deadline. A stage
// that overruns its deadline is abandoned (it finishes in the background
// and the result is dropped) and reported as an internal pipeline failure,
// and no later stage of the compile runs; the worker slot stays held until
// the whole Compile returns, so abandoned stages cannot multiply past the
// pool bound per key thanks to the store's singleflight.
func (p *Pool) stage(ctx context.Context, w stageWorker, name string, fn func(context.Context) error) error {
	sctx := ctx
	if p.stageTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(ctx, p.stageTimeout)
		defer cancel()
	}
	sctx, span := obs.Start(sctx, name)
	defer span.End()
	// The worker is idle: the compile hands it a stage only after the
	// last one answered.
	w.run <- func() error { return fn(sctx) }
	select {
	case err := <-w.done:
		if err != nil {
			return fmt.Errorf("stage %s: %w", name, err)
		}
		return nil
	case <-sctx.Done():
		return &driver.Error{
			Kind: driver.KindInternal,
			Err:  fmt.Errorf("stage %s: %w", name, sctx.Err()),
		}
	}
}
