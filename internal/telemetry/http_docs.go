package telemetry

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strconv"
)

// DocFilter narrows a published JSON document to what a request's query
// selects. Keys are the query parameters it reads besides the from/to
// sim-time window every document route shares. Apply runs only when the
// query sets one of them and writes the selection to w; it returns a
// BadQuery for a query it rejects (400), any other error being the
// server's (500). The zero DocFilter serves the document verbatim whatever
// the query.
type DocFilter struct {
	Keys  []string
	Apply func(w io.Writer, doc []byte, q url.Values, from, to float64) error
}

// BadQuery is a DocFilter's rejection of a request's query, served as a 400
// whose JSON error body is the message.
type BadQuery string

func (e BadQuery) Error() string { return string(e) }

// selects reports whether q sets the window or one of the filter's keys.
func (f DocFilter) selects(q url.Values) bool {
	if f.Apply == nil {
		return false
	}
	for _, k := range append([]string{"from", "to"}, f.Keys...) {
		if q.Get(k) != "" {
			return true
		}
	}
	return false
}

// Document registers a named JSON document route at path — how layers above
// telemetry (the decision ledger, the SLO alert log, the perf report) publish
// through the daemon without the core importing them. what names the
// document in the 404 served before its first Publish; filter narrows it to
// a request's query. Register before serving.
func (s *Server) Document(path, what string, filter DocFilter) {
	s.mu.Lock()
	s.docs[path] = &doc{what: what, filter: filter}
	s.mu.Unlock()
}

// Publish makes body the current document of the route registered at path;
// AddRun snapshots it per run. Like PublishHub it MUST be called from the
// simulation goroutine at a safe point: the caller serializes, so handlers
// never touch live sim state. body must not be modified afterwards.
func (s *Server) Publish(path string, body []byte) {
	s.mu.Lock()
	s.docs[path].latest = body
	s.mu.Unlock()
}

// SetFiring records the SLO roll-up /healthz reports: how many alerts are
// firing and the worst firing severity ("" when none). Call it from the
// simulation goroutine alongside the alert log's Publish.
func (s *Server) SetFiring(firing int, worst string) {
	s.mu.Lock()
	s.firing, s.worstSev = firing, worst
	s.mu.Unlock()
}

// serveDoc serves a document route:
// /<doc>[?run=<id>][&from=<t>][&to=<t>][&<filter keys>]. run selects the
// snapshot captured at that run's AddRun; without it the latest published
// document is served. With no filter parameter set the stored bytes are
// served verbatim; otherwise the route's filter renders the selection.
func (s *Server) serveDoc(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	s.mu.RLock()
	d := s.docs[r.URL.Path]
	body := d.latest
	if runStr := q.Get("run"); runStr != "" {
		id, _ := strconv.Atoi(runStr) // a malformed ID reads as 0, which no run has
		rr, ok := s.runAt(id)
		if !ok {
			msg := s.runRangeError()
			s.mu.RUnlock()
			writeJSONError(w, http.StatusNotFound, msg)
			return
		}
		body = rr.docs[r.URL.Path]
	}
	s.mu.RUnlock()
	if len(body) == 0 {
		writeJSONError(w, http.StatusNotFound, "no "+d.what+" published yet")
		return
	}
	if d.filter.selects(q) {
		var buf bytes.Buffer
		if err := d.filter.apply(&buf, body, q); err != nil {
			code := http.StatusInternalServerError
			if errors.As(err, new(BadQuery)) {
				code = http.StatusBadRequest
			}
			writeJSONError(w, code, err.Error())
			return
		}
		body = buf.Bytes()
	}
	w.Header().Set("Content-Type", jsonContentType)
	w.Write(body)
}

// apply parses the shared from/to window and runs the filter.
func (f DocFilter) apply(w io.Writer, body []byte, q url.Values) error {
	var bounds [2]float64
	for i, key := range [2]string{"from", "to"} {
		if v := q.Get(key); v != "" {
			var err error
			if bounds[i], err = strconv.ParseFloat(v, 64); err != nil {
				return BadQuery("bad " + key)
			}
		}
	}
	return f.Apply(w, body, q, bounds[0], bounds[1])
}
