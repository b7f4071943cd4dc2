// Command i2pdistribd is the resident bridge distributor: the batch
// pipeline's distrib.Backend held live behind an HTTP API. It draws one
// distribution day's pool from a simulated study network, partitions it
// across the rdsys-style frontends on the stable hashring, and serves
// per-identity deterministic handouts (moat-style JSON and signed
// i2pseeds.su3 bundles) while a reachability prober retires dead bridges
// and /metrics exports the serving instruments.
//
// Usage:
//
//	i2pdistribd [-addr :8472] [-scale 0.1] [-seed 2018] [-day 10]
//	i2pdistribd -loadgen 1000000   # in-process load run, no listener, one worker per CPU
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/cli"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/service"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// Server timeouts: a client that never finishes its headers, stalls its
// body or stops reading must not hold a connection forever. Handout and
// bundle responses are small and computed in microseconds, so the main
// listener's are tight; the debug listener's write timeout leaves room
// for a 30 s CPU profile or execution trace.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	writeTimeout      = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	debugWriteTimeout = 90 * time.Second
	// shutdownTimeout is how long a SIGTERM waits for in-flight requests
	// to finish before the process gives up on a clean exit.
	shutdownTimeout = 5 * time.Second
)

// newServer builds a listener's http.Server with every timeout set.
func newServer(h http.Handler, write time.Duration) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      write,
		IdleTimeout:       idleTimeout,
	}
}

func main() { cli.Main("i2pdistribd", run) }

func run() error {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger) // internal/service reports a failed retirement through it

	addr := flag.String("addr", ":8472", "listen address (host:port; :0 picks a free port)")
	scale := flag.Float64("scale", 0.1, "network scale relative to the paper's 30.5K daily peers")
	seed := flag.Uint64("seed", 2018, "simulation seed")
	days := flag.Int("days", 45, "study horizon in days")
	day := flag.Int("day", 10, "distribution day the pool is drawn on")
	strategy := flag.String("strategy", "combined", "bridge pool strategy: random, newly-joined, firewalled, combined")
	maxResources := flag.Int("max-resources", 200, "backend pool cap")
	rate := flag.Float64("rate", 5, "per-identity requests per second (0 disables rate limiting)")
	burst := flag.Int("burst", 4, "per-identity token-bucket burst")
	probeInterval := flag.Duration("probe-interval", 30*time.Second, "reachability probe period")
	failLimit := flag.Int("fail-limit", 3, "consecutive probe failures before a bridge retires")
	loadgen := flag.Int("loadgen", 0, "run an in-process load generation with this many distinct identities, print JSON and exit")
	debugAddr := flag.String("debug-addr", "", "optional debug listener (host:port) serving net/http/pprof and expvar; keep it off public interfaces")
	flag.Parse()

	strat, err := parseStrategy(*strategy)
	if err != nil {
		return err
	}
	peers, err := sim.ScaledDailyPeers(*scale)
	if err != nil {
		return err
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	// Enable counting before the network and pool are built so even the
	// construction-time engine work (observer memos, pool draws) lands on
	// the registry /metrics serves.
	reg := obs.NewRegistry()
	obs.Enable(reg)

	network, err := sim.New(sim.Config{
		Seed:             *seed,
		Days:             *days,
		TargetDailyPeers: peers,
	})
	if err != nil {
		return err
	}
	svc, err := service.NewService(network, service.Config{
		Day:           *day,
		Strategy:      strat,
		MaxResources:  *maxResources,
		Seed:          *seed,
		RatePerSec:    *rate,
		Burst:         *burst,
		ProbeInterval: *probeInterval,
		FailLimit:     *failLimit,
		Registry:      reg,
	})
	if err != nil {
		return err
	}
	logger.Info("pool drawn", "bridges", svc.Backend().PoolSize(), "day", *day, "strategy", *strategy, "seed", *seed)

	if *loadgen > 0 {
		res, err := svc.LoadGen(ctx, *loadgen)
		if err != nil {
			return err
		}
		out, _ := json.MarshalIndent(res, "", "  ")
		fmt.Println(string(out))
		if res.Mismatches > 0 || res.Errors > 0 {
			return fmt.Errorf("loadgen: %d errors, %d determinism mismatches", res.Errors, res.Mismatches)
		}
		return nil
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The smoke job greps this exact line to learn the bound port.
	fmt.Printf("listening on %s\n", ln.Addr())

	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return err
		}
		fmt.Printf("debug listening on %s\n", dln.Addr())
		debugSrv = newServer(debugMux(svc), debugWriteTimeout)
		go func() {
			if err := debugSrv.Serve(dln); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server", "err", err)
			}
		}()
	}

	srv := newServer(svc.Handler(), writeTimeout)
	proberDone := make(chan struct{})
	go func() {
		defer close(proberDone)
		_ = svc.RunProber(ctx)
	}()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if debugSrv != nil {
			_ = debugSrv.Shutdown(shutdownCtx)
		}
		<-proberDone
		logger.Info("shut down cleanly")
		return nil
	case err := <-serveErr:
		return err
	}
}

// debugMux is the opt-in -debug-addr surface: the standard pprof index
// (heap, goroutine, block, mutex, 30s CPU captures), expvar, and the
// prober's last published sweep (streaks, backoff, retired set) as
// /debug/prober. Built by hand instead of importing the packages for
// their DefaultServeMux side effects, so the main listener never exposes
// profiling routes.
func debugMux(svc *service.Service) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/prober", svc.DebugProber)
	return mux
}

// parseStrategy returns the candidate-pool strategy whose name is name:
// a -strategy value is a censor.BridgeStrategy's String.
func parseStrategy(name string) (censor.BridgeStrategy, error) {
	var names []string
	for s := censor.BridgeRandom; s <= censor.BridgeCombined; s++ {
		if s.String() == name {
			return s, nil
		}
		names = append(names, s.String())
	}
	return 0, fmt.Errorf("unknown strategy %q (want one of: %s)", name, strings.Join(names, ", "))
}
