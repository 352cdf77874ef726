package decisions

import (
	"bytes"
	"io"
	"net/url"

	"heroserve/internal/telemetry"
)

// HTTPFilter is the daemon's /decisions filter:
//
//	/decisions[?run=<id>][&kind=collective|scale][&policy=<name>][&from=<t>][&to=<t>]
//
// kind and policy select records as Ledger.Filter does, within the route's
// from/to window.
var HTTPFilter = telemetry.DocFilter{
	Keys: []string{"kind", "policy"},
	Apply: func(w io.Writer, doc []byte, q url.Values, from, to float64) error {
		kind := q.Get("kind")
		if kind != "" && kind != KindCollective && kind != KindScale {
			return telemetry.BadQuery("bad kind: want collective or scale")
		}
		led, err := ReadJSON(bytes.NewReader(doc))
		if err != nil {
			return err
		}
		return led.Filter(kind, q.Get("policy"), from, to).WriteJSON(w)
	},
}
