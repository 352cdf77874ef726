package slo

import (
	"bytes"
	"io"
	"net/url"

	"heroserve/internal/telemetry"
)

// HTTPFilter is the daemon's /alerts filter:
//
//	/alerts[?run=<id>][&state=pending|firing|resolved][&rule=<name>][&from=<t>][&to=<t>]
//
// state and rule select alerts as Log.Filter does, within the route's
// from/to window.
var HTTPFilter = telemetry.DocFilter{
	Keys: []string{"state", "rule"},
	Apply: func(w io.Writer, doc []byte, q url.Values, from, to float64) error {
		state := q.Get("state")
		switch State(state) {
		case "", StatePending, StateFiring, StateResolved:
		default:
			return telemetry.BadQuery("bad state: want pending, firing, or resolved")
		}
		log, err := ReadLog(bytes.NewReader(doc))
		if err != nil {
			return err
		}
		return log.Filter(state, q.Get("rule"), from, to).WriteJSON(w)
	},
}
