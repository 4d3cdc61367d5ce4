package wire

import (
	"net/http"
	"net/http/pprof"
)

// PathPprof is the profiling endpoint prefix served when profiling is
// enabled (WithPprof; the daemons' -pprof flag).
const PathPprof = "/debug/pprof/"

// registerPprof mounts the net/http/pprof handlers on the server mux.
// The handlers come from the package functions, not http.DefaultServeMux,
// so enabling profiling never leaks handlers registered globally by other
// packages. No method qualifier: pprof's profile endpoints accept GET
// with query parameters and the symbol endpoint also accepts POST.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc(PathPprof, pprof.Index)
	mux.HandleFunc(PathPprof+"cmdline", pprof.Cmdline)
	mux.HandleFunc(PathPprof+"profile", pprof.Profile)
	mux.HandleFunc(PathPprof+"symbol", pprof.Symbol)
	mux.HandleFunc(PathPprof+"trace", pprof.Trace)
}
