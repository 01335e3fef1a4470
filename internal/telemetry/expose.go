package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
)

// writePrometheus renders every series into b in Prometheus text
// exposition format (version 0.0.4), sorted by name for deterministic
// scrapes. Label sets encoded by Name() are emitted as real Prometheus
// labels; histograms expand into _bucket/_sum/_count series with the
// standard cumulative le buckets.
func (r *Registry) writePrometheus(b *strings.Builder) {
	if r == nil {
		return
	}
	counts, gauges := r.scalars()
	type histSnap struct {
		bounds []float64
		cumul  []int64
		sum    float64
		count  int64
	}
	r.mu.Lock()
	hists := make(map[string]histSnap, len(r.hists))
	for name, h := range r.hists {
		snap := histSnap{bounds: h.bounds, sum: h.Sum(), count: h.Count()}
		cum := int64(0)
		for i := range h.counts {
			cum += h.counts[i].Load()
			snap.cumul = append(snap.cumul, cum)
		}
		hists[name] = snap
	}
	r.mu.Unlock()

	typed := make(map[string]bool)
	writeType := func(name, kind string) {
		base, _ := splitName(name)
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(b, "# TYPE %s %s\n", base, kind)
		}
	}
	for _, name := range sortedKeys(counts) {
		writeType(name, "counter")
		fmt.Fprintf(b, "%s %d\n", name, counts[name])
	}
	for _, name := range sortedKeys(gauges) {
		writeType(name, "gauge")
		fmt.Fprintf(b, "%s %d\n", name, gauges[name])
	}
	histNames := make([]string, 0, len(hists))
	for name := range hists {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	for _, name := range histNames {
		h := hists[name]
		base, labels := splitName(name)
		writeType(name, "histogram")
		for i, bound := range h.bounds {
			fmt.Fprintf(b, "%s %d\n",
				seriesName(base+"_bucket", joinLabels(labels, "le", formatBound(bound))), h.cumul[i])
		}
		fmt.Fprintf(b, "%s %d\n",
			seriesName(base+"_bucket", joinLabels(labels, "le", "+Inf")), h.cumul[len(h.cumul)-1])
		fmt.Fprintf(b, "%s %g\n", seriesName(base+"_sum", labels), h.sum)
		fmt.Fprintf(b, "%s %d\n", seriesName(base+"_count", labels), h.count)
	}
}

// PrometheusText returns the full exposition page as a string.
func (r *Registry) PrometheusText() string {
	var b strings.Builder
	r.writePrometheus(&b)
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// joinLabels appends one more k="v" pair to a raw label string.
func joinLabels(labels, k, v string) string {
	pair := k + `=` + strconv.Quote(v)
	if labels == "" {
		return pair
	}
	return labels + "," + pair
}

// formatBound renders a bucket upper bound the way Prometheus expects.
func formatBound(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.PrometheusText()))
	})
}

// Server is a running exposition endpoint. Close shuts it down.
type Server struct {
	// Addr is the bound address (resolves ":0" to the real port).
	Addr string
	ln   net.Listener
	srv  *http.Server
}

// Serve starts an HTTP server on addr exposing
//
//	/metrics       Prometheus text exposition of reg
//	/debug/vars    expvar (process vars plus a "telemetry" snapshot of reg)
//	/debug/events  the structured-log flight recorder (when rec != nil)
//	/debug/pprof/  the standard pprof profiles
//
// addr may be ":0" to bind an ephemeral port; the chosen address is in
// Server.Addr. The server runs until Close.
func Serve(addr string, reg *Registry, rec *FlightRecorder) (*Server, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	if rec != nil {
		mux.Handle("/debug/events", rec.Handler())
	}
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		// The standard expvar handler plus the registry snapshot, without
		// expvar.Publish (which panics on duplicate names across servers).
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n")
		first := true
		expvar.Do(func(kv expvar.KeyValue) {
			if !first {
				fmt.Fprintf(w, ",\n")
			}
			first = false
			fmt.Fprintf(w, "%q: %s", kv.Key, kv.Value)
		})
		if snap := reg.Snapshot(); len(snap) > 0 {
			if !first {
				fmt.Fprintf(w, ",\n")
			}
			keys := make([]string, 0, len(snap))
			for k := range snap {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintf(w, "%q: {", "telemetry")
			for i, k := range keys {
				if i > 0 {
					fmt.Fprintf(w, ", ")
				}
				fmt.Fprintf(w, "%q: %g", k, snap[k])
			}
			fmt.Fprintf(w, "}")
		}
		fmt.Fprintf(w, "\n}\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{Addr: ln.Addr().String(), ln: ln, srv: &http.Server{Handler: mux}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Close stops the server.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
