package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/obs/promtest"
	"github.com/i2pstudy/i2pstudy/internal/service"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// daemonChild, set in a child's environment, makes this test binary run
// the daemon's main instead of its tests, so TestDaemonSmoke drives the
// daemon as a process without building it.
const daemonChild = "I2PDISTRIBD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonChild) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// newTestService builds the daemon's service at test scale on reg (nil:
// a private registry).
func newTestService(t *testing.T, reg *obs.Registry) *service.Service {
	t.Helper()
	network, err := sim.New(sim.Config{Seed: 2018, Days: 45, TargetDailyPeers: 500})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.NewService(network, service.Config{Day: 10, Strategy: censor.BridgeCombined, Seed: 2018, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestShutdownDrainsUnderLoad is the daemon's SIGTERM path with requests
// in flight (TestDaemonSmoke drains an idle daemon process): the server
// the daemon builds, on a real loopback socket, eight clients requesting
// without pause, Shutdown called mid-flight. It must return nil inside
// the daemon's budget, every response that arrived must be a whole 200
// that decodes as HandoutJSON, and a later dial must fail, not hang.
func TestShutdownDrainsUnderLoad(t *testing.T) {
	svc := newTestService(t, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(svc.Handler(), writeTimeout)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	const clients, warm = 8, 400
	var (
		answered atomic.Int64
		warmOnce sync.Once
		warmed   = make(chan struct{}) // closed once warm responses arrived
		wg       sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{}, Timeout: shutdownTimeout}
			defer client.CloseIdleConnections()
			for n := 0; ; n++ {
				id := fmt.Sprintf("drain-%d-%d", c, n)
				resp, err := client.Get("http://" + addr + "/handout?dist=https&id=" + id)
				if err != nil {
					return // the listener is gone: the drain has begun
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				var h service.HandoutJSON
				switch {
				case err != nil:
					t.Errorf("%s: body cut short: %v", id, err)
				case resp.StatusCode != http.StatusOK:
					t.Errorf("%s: status %d", id, resp.StatusCode)
				case json.Unmarshal(body, &h) != nil || h.ID != id || !h.Granted || len(h.Bridges) == 0:
					t.Errorf("%s: incomplete handout %q", id, body)
				}
				if answered.Add(1) == warm {
					warmOnce.Do(func() { close(warmed) })
				}
			}
		}()
	}

	select {
	case <-warmed:
	case <-time.After(30 * time.Second):
		t.Fatalf("only %d responses in 30 s", answered.Load())
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown under load: %v after %v", err, time.Since(start))
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	wg.Wait()
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatal("dial after Shutdown succeeded")
	}
	t.Logf("%d responses, drained in %v", answered.Load(), time.Since(start))
}

// TestDaemonSmoke runs the daemon as a process (this test binary,
// re-executed with daemonChild set) on 127.0.0.1:0 and reads the bound
// address from its "listening on" line. One identity's handout must be
// granted and the same twice; the seed bundle, /metrics and /healthz
// must answer 200; and SIGTERM must drain the daemon to exit status 0
// with its clean-shutdown line. Every wait is bounded, so a hang fails.
func TestDaemonSmoke(t *testing.T) {
	const wait = 30 * time.Second
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-scale", "0.02")
	cmd.Env = append(os.Environ(), daemonChild+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	listening := make(chan string, 1)
	exited := make(chan struct{})
	var waitErr error
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				listening <- addr
			}
		}
		waitErr = cmd.Wait()
		close(exited)
	}()
	// fail kills the daemon, if it still runs, and reports its stderr.
	fail := func(format string, args ...any) {
		t.Helper()
		cmd.Process.Kill()
		<-exited
		t.Fatalf(format+"\ndaemon stderr:\n%s", append(args, stderr.String())...)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})

	var base string
	select {
	case addr := <-listening:
		base = "http://" + addr
	case <-exited:
		fail("daemon exited before listening: %v", waitErr)
	case <-time.After(wait):
		fail("no listening line in %v", wait)
	}
	client := &http.Client{Timeout: wait}
	get := func(path string) []byte {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			fail("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(body) == 0 {
			fail("GET %s: status %d, %d bytes, %v", path, resp.StatusCode, len(body), err)
		}
		return body
	}
	h1, h2 := get("/handout?dist=https&id=smoke"), get("/handout?dist=https&id=smoke")
	var h service.HandoutJSON
	if !bytes.Equal(h1, h2) || json.Unmarshal(h1, &h) != nil || !h.Granted {
		fail("two handouts for one identity: %q and %q, want one granted body", h1, h2)
	}
	get("/i2pseeds.su3?id=smoke")
	get("/metrics")
	get("/healthz")

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fail("SIGTERM: %v", err)
	}
	select {
	case <-exited:
	case <-time.After(wait):
		fail("no exit %v after SIGTERM", wait)
	}
	if waitErr != nil || !strings.Contains(stderr.String(), `msg="shut down cleanly"`) {
		t.Fatalf("after SIGTERM: %v, want exit status 0 and the clean-shutdown line\ndaemon stderr:\n%s", waitErr, stderr.String())
	}
}

// TestDebugProberIsDebugOnly: the prober's state is on the -debug-addr
// mux and not on the public listener's route table.
func TestDebugProberIsDebugOnly(t *testing.T) {
	svc := newTestService(t, nil)
	svc.ProbeOnce(context.Background())
	get := func(h http.Handler) *httptest.ResponseRecorder {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/debug/prober", nil))
		return rw
	}
	rw := get(debugMux(svc))
	var st service.ProberState
	if err := json.Unmarshal(rw.Body.Bytes(), &st); rw.Code != http.StatusOK || err != nil || st.SweptAt.IsZero() {
		t.Fatalf("debug mux: status %d, err %v, body %q", rw.Code, err, rw.Body)
	}
	if rw := get(svc.Handler()); rw.Code != http.StatusNotFound {
		t.Fatalf("public handler serves /debug/prober: status %d", rw.Code)
	}
}

// TestDaemonMetricsFamilies: with the registry enabled before the
// service is built, as run does, /metrics serves exactly the families
// of what the daemon links — the handout series, the pool and the
// memo rings — so an import that drags in the study's idle families
// (measure, checkpoint) fails here.
func TestDaemonMetricsFamilies(t *testing.T) {
	prev := obs.Active()
	reg := obs.NewRegistry()
	obs.Enable(reg)
	t.Cleanup(func() { obs.Enable(prev) })

	rw := httptest.NewRecorder()
	newTestService(t, reg).Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	fams, err := promtest.Parse(rw.Body.String())
	if rw.Code != http.StatusOK || err != nil {
		t.Fatalf("/metrics: status %d, %v", rw.Code, err)
	}
	var got []string
	for _, f := range fams {
		got = append(got, f.Name)
	}
	slices.Sort(got)
	want := []string{
		"i2p_cache_hits_total",
		"i2p_cache_misses_total",
		"i2p_engine_tasks_total",
		"i2p_engine_worker_tasks",
		"i2pdistribd_handout_latency_seconds",
		"i2pdistribd_limiter_buckets",
		"i2pdistribd_pool_size",
		"i2pdistribd_probe_total",
		"i2pdistribd_requests_total",
	}
	if !slices.Equal(got, want) {
		t.Errorf("/metrics families\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// TestParseStrategy: -strategy takes each censor.BridgeStrategy's
// String, and an unknown name is refused with all four listed.
func TestParseStrategy(t *testing.T) {
	for _, want := range []censor.BridgeStrategy{censor.BridgeRandom, censor.BridgeNewlyJoined, censor.BridgeFirewalled, censor.BridgeCombined} {
		if got, err := parseStrategy(want.String()); got != want || err != nil {
			t.Errorf("parseStrategy(%q) = %v, %v; want %v", want.String(), got, err, want)
		}
	}
	_, err := parseStrategy("nope")
	const want = `unknown strategy "nope" (want one of: random, newly-joined, firewalled, combined)`
	if err == nil || err.Error() != want {
		t.Errorf("parseStrategy(\"nope\") = %v, want %q", err, want)
	}
}
