package wire

import (
	"flag"
	"log"
	"time"
)

// ServerFlags holds the nine flags gspd, lbsd and gspgw share, declared
// by DeclareServerFlags and turned into options by Options.
type ServerFlags struct {
	// Addr is the -addr listen address, for ListenAndServe.
	Addr string

	pprof         bool
	admitLimit    int
	admitQueue    int
	admitTimeout  time.Duration
	maxBody       int64
	authKeys      string
	authWindow    time.Duration
	statsInterval time.Duration
}

// DeclareServerFlags declares the shared flags on fs; defaultAddr is the
// daemon's own -addr default.
func DeclareServerFlags(fs *flag.FlagSet, defaultAddr string) *ServerFlags {
	f := &ServerFlags{}
	fs.StringVar(&f.Addr, "addr", defaultAddr, "listen address")
	fs.BoolVar(&f.pprof, "pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
	fs.IntVar(&f.admitLimit, "admit-limit", 0, "admission control: max concurrent request weight (0 disables)")
	fs.IntVar(&f.admitQueue, "admit-queue", 128, "admission control: max requests waiting for a slot")
	fs.DurationVar(&f.admitTimeout, "admit-timeout", 500*time.Millisecond, "admission control: max queue wait before shedding")
	fs.Int64Var(&f.maxBody, "max-body", DefaultMaxBody, "maximum accepted POST body in bytes")
	fs.StringVar(&f.authKeys, "auth-keys", "", "require signed requests; principal=hexkey[,principal=hexkey...] or @file with one pair per line (empty disables auth)")
	fs.DurationVar(&f.authWindow, "auth-window", DefaultAuthWindow, "signed-request timestamp validity window")
	fs.DurationVar(&f.statsInterval, "stats-interval", time.Minute, "periodic traffic summary log interval (0 disables)")
	return f
}

// Options turns the parsed flags into server options, with logger as the
// server's logger, and logs what they switch on. It fails on an invalid
// -auth-keys.
func (f *ServerFlags) Options(logger *log.Logger) ([]ServerOption, error) {
	opts := []ServerOption{
		WithLogger(logger),
		WithPprof(f.pprof),
		WithMaxBody(f.maxBody),
		func(st *serverSettings) { st.statsInterval = f.statsInterval },
	}
	if f.pprof {
		logger.Printf("pprof profiling enabled at %s", PathPprof)
	}
	if f.admitLimit > 0 {
		opts = append(opts, WithAdmission(f.admitLimit, f.admitQueue, f.admitTimeout))
		logger.Printf("admission control on: limit %d, queue %d, wait %v",
			f.admitLimit, f.admitQueue, f.admitTimeout)
	}
	if f.authKeys != "" {
		kr, err := LoadKeyring(f.authKeys)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithAuth(kr, WithAuthWindow(f.authWindow)))
		logger.Printf("request signing required: %d principals, ±%v window", kr.Len(), f.authWindow)
	}
	return opts, nil
}
