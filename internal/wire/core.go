package wire

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"poiagg/internal/cluster"
	"poiagg/internal/obs"
)

// ServerOption configures a GSPServer, an LBSServer or a ClusterGateway.
// Every option writes one field of a shared settings struct, and each
// constructor reads only the fields it serves, so an option a server does
// not serve is ignored. Each With* doc comment names the servers that
// read it; all three read the core options WithLogger, WithMetrics,
// WithPprof, WithMaxBody, WithAdmission and WithAuth.
type ServerOption func(*serverSettings)

// serverSettings is what the options set, grouped by the servers that
// read each field.
type serverSettings struct {
	// The core of all three servers.
	log           *log.Logger
	reg           *obs.Registry
	pprof         bool
	maxBody       int64
	admit         AdmissionConfig
	authKeys      *Keyring
	authOpts      []AuthOption
	statsInterval time.Duration

	// GSP server and gateway.
	maxRadius float64
	maxBatch  int

	lbs lbsSettings
	gw  gatewaySettings
}

// newSettings applies opts over the defaults. defaultLog is the request
// logger when no WithLogger option sets one; nil turns the request log
// off.
func newSettings(defaultLog *log.Logger, opts []ServerOption) *serverSettings {
	st := &serverSettings{
		reg:       obs.NewRegistry(),
		maxBody:   DefaultMaxBody,
		maxRadius: 10_000,
		maxBatch:  DefaultMaxBatch,
		lbs: lbsSettings{
			historyLimit: 1000,
			historyUsers: DefaultHistoryUsers,
		},
		gw: gatewaySettings{
			vnodes:        cluster.DefaultVirtualNodes,
			cellSize:      cluster.DefaultCellSize,
			probeInterval: DefaultProbeInterval,
			probeTimeout:  DefaultProbeTimeout,
			replicas:      1,
			hedgeDelay:    DefaultHedgeDelay,
			peerTransport: http.DefaultTransport,
		},
	}
	for _, opt := range opts {
		opt(st)
	}
	if st.log == nil {
		st.log = defaultLog
	}
	return st
}

// WithLogger sets the logger of the request log and of the server's own
// messages. All three servers read it. The default is log.Default() for
// the GSP server and the gateway, and no request log for the LBS server.
func WithLogger(l *log.Logger) ServerOption {
	return func(st *serverSettings) { st.log = l }
}

// WithMetrics shares an externally owned metrics registry (default: a
// fresh private one), so client counters and server routes appear in one
// /v1/metrics document. All three servers read it.
func WithMetrics(reg *obs.Registry) ServerOption {
	return func(st *serverSettings) {
		if reg != nil {
			st.reg = reg
		}
	}
}

// WithPprof serves the net/http/pprof profiling endpoints under
// /debug/pprof/ (default off: the endpoints expose runtime internals, so
// the daemons gate them behind an explicit -pprof flag). All three
// servers read it.
func WithPprof(on bool) ServerOption {
	return func(st *serverSettings) { st.pprof = on }
}

// WithMaxBody caps the accepted POST request body in bytes (default
// 1 MiB). Oversized bodies get 413 with a structured error before any
// decoding buffers attacker-sized payloads. All three servers read it.
func WithMaxBody(n int64) ServerOption {
	return func(st *serverSettings) {
		if n > 0 {
			st.maxBody = n
		}
	}
}

// DefaultMaxBody is the POST body cap unless WithMaxBody overrides it.
const DefaultMaxBody = 1 << 20

// WithAdmission bounds concurrent work: at most limit weight executes at
// once, up to queue requests wait FIFO for at most timeout (or their own
// deadline, whichever is sooner), and everything beyond that is shed with
// 503, a Retry-After header, and a structured AdmissionErrorResponse
// body. Batch requests count by item weight. The operational endpoints
// bypass the limiter. limit <= 0 disables admission (the default). All
// three servers read it.
func WithAdmission(limit, queue int, timeout time.Duration) ServerOption {
	return func(st *serverSettings) {
		st.admit = AdmissionConfig{Limit: limit, Queue: queue, Timeout: timeout}
	}
}

// WithMaxRadius caps the accepted query radius in meters (default
// 10 km). The GSP server and the gateway read it; a gateway's cap must
// match its shards' so it rejects exactly what they would.
func WithMaxRadius(r float64) ServerOption {
	return func(st *serverSettings) { st.maxRadius = r }
}

// WithMaxBatch caps the number of items accepted in one batch request
// (default DefaultMaxBatch). The GSP server and the gateway read it.
func WithMaxBatch(n int) ServerOption {
	return func(st *serverSettings) {
		if n > 0 {
			st.maxBatch = n
		}
	}
}

// serverCore is the part of a server that gspd, lbsd and gspgw share.
// It is the only code that builds the request chain, whose layers are,
// outermost first:
//
//  1. obs.Instrument answers /healthz, /readyz and /v1/metrics itself,
//     and times every other request under the mux pattern it matches;
//  2. auth verifies the request signature (pprof prefix exempt);
//  3. admission admits the request at weight 1 (pprof prefix exempt;
//     the batch paths admit themselves at item weight, see admitBatch);
//  4. the mux dispatches to the server's handlers.
//
// So a forged request costs one HMAC and never holds an admission slot,
// and probes and metric scrapes pass even when every slot is taken. The
// core also owns the registry, the request log, the body cap, the pprof
// mount, readiness and draining, and the serve loop (ListenAndServe).
type serverCore struct {
	mux           *http.ServeMux
	reg           *obs.Registry
	log           *log.Logger // nil: no request log
	maxBody       int64
	statsInterval time.Duration
	admit         *admission     // nil when admission is off
	auth          *authenticator // nil when auth is off
	ready         func() error   // the server's own readiness check, or nil
	handler       http.Handler
	draining      atomic.Bool
}

// initCore builds the chain from st. ready is the server's own readiness
// check, consulted after draining; selfAdmit lists the paths whose
// handlers admit themselves through admitBatch. The server mounts its
// handlers on c.mux afterwards.
func (c *serverCore) initCore(st *serverSettings, ready func() error, selfAdmit ...string) {
	c.mux = http.NewServeMux()
	c.reg = st.reg
	c.log = st.log
	c.maxBody = st.maxBody
	c.statsInterval = st.statsInterval
	c.ready = ready
	if st.pprof {
		registerPprof(c.mux)
	}
	var h http.Handler = c.mux
	if st.admit.Limit > 0 {
		c.admit = newAdmission(st.admit)
		c.admit.export(c.reg)
		h = c.admit.middleware(h, selfAdmit)
	}
	if st.authKeys != nil && st.authKeys.Len() > 0 {
		c.auth = newAuthenticator(st.authKeys, st.authOpts...)
		c.auth.export(c.reg)
		h = c.auth.middleware(h, c.maxBody)
	}
	c.handler = obs.Instrument(c.reg, c.mux, h,
		obs.WithRequestHook(c.logRequest),
		obs.WithReadyCheck(c.readyCheck))
}

// ServeHTTP implements http.Handler.
func (c *serverCore) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.handler.ServeHTTP(w, r)
}

// Metrics returns the server's metrics registry.
func (c *serverCore) Metrics() *obs.Registry { return c.reg }

// Drain flips /readyz to 503 so load balancers stop routing new work
// here while in-flight requests finish. ListenAndServe calls it before
// shutting down.
func (c *serverCore) Drain() { c.draining.Store(true) }

// errDraining is the readiness error reported after Drain.
var errDraining = errors.New("draining")

func (c *serverCore) readyCheck() error {
	if c.draining.Load() {
		return errDraining
	}
	if c.ready != nil {
		return c.ready()
	}
	return nil
}

// logRequest writes the request log line. The path is logged escaped: a
// decoded path can carry a newline, which would let any client forge a
// log line.
func (c *serverCore) logRequest(r *http.Request, status int, d time.Duration) {
	if c.log != nil {
		c.log.Printf("%s %s %d %s", r.Method, r.URL.EscapedPath(), status, d.Round(time.Microsecond))
	}
}

// admitBatch charges a decoded batch by its item weight against the
// admission limiter: a 256-item batch occupies 256 slots (or the whole
// limiter if smaller), so batches cannot smuggle unbounded fan-out work
// past a per-request concurrency bound. Returns a release func, or
// writes the 503 shed and reports false. No-op when admission is off.
func (c *serverCore) admitBatch(w http.ResponseWriter, r *http.Request, n int) (func(), bool) {
	if c.admit == nil {
		return func() {}, true
	}
	return c.admit.admitHTTP(w, r, int64(n))
}

// ListenAndServe serves the server on addr until ctx is done, logging a
// traffic summary every -stats-interval. It returns nil after a clean
// shutdown and the listener's error otherwise.
func (c *serverCore) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return c.serve(ctx, ln)
}

// serve is ListenAndServe on an open listener. When ctx is done it shuts
// down in the order load balancers need: Drain flips /readyz to 503,
// then http.Server.Shutdown gives in-flight requests up to 10 s to
// finish.
func (c *serverCore) serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           c,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	obs.StartSummary(ctx, c.log, c.reg, c.statsInterval)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	if c.log != nil {
		c.log.Printf("shutting down: draining, then up to 10s for in-flight requests")
	}
	c.Drain()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(sctx)
	<-errCh // Serve returns as soon as Shutdown closes the listener
	return err
}
