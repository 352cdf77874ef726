package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"heroserve/internal/stats"
)

// ContentTypeOpenMetrics is the media type of the OpenMetrics text exposition,
// used for content negotiation on the daemon's /metrics endpoint.
const ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// ContentTypeProm is the classic Prometheus text exposition media type.
const ContentTypeProm = "text/plain; version=0.0.4; charset=utf-8"

// WriteProm writes the registry in the Prometheus text exposition format.
// Output is deterministic: families sorted by name, children sorted by label
// values, floats formatted by strconv. Gauges are advanced to the current
// sim-time first so their time-averages cover the full run.
func (r *Registry) WriteProm(w io.Writer) error { return r.write(w, false) }

// WriteOpenMetrics writes the registry in the OpenMetrics 1.0 text exposition
// format: counter families drop their _total suffix in metadata and gain
// _created timestamps (sim-time of child registration), histograms gain
// _created plus per-bucket exemplars carrying the trace ID of the slowest
// sample that landed in each bucket, and the document ends with # EOF.
// Like WriteProm, the output is deterministic: everything is sim-time-stamped
// and sorted, so two identical runs export byte-identical documents.
func (r *Registry) WriteOpenMetrics(w io.Writer) error { return r.write(w, true) }

// write renders the exposition shared by both formats; om switches on the
// four OpenMetrics differences (_total trim, _created, exemplars, # EOF).
func (r *Registry) write(w io.Writer, om bool) error {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	now := r.clock()
	var b strings.Builder
	for _, name := range names {
		f := r.fams[name]
		fam, sample := name, name
		if om && f.kind == kindCounter {
			// OpenMetrics counters are named without the _total suffix; the
			// suffix belongs to the sample, not the family.
			fam = strings.TrimSuffix(name, "_total")
			sample = fam + "_total"
		}
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		fmt.Fprintf(&b, "# HELP %s %s\n", fam, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam, f.kind)
		var timeavg strings.Builder
		for _, key := range keys {
			c := f.childs[key]
			ls := labelString(f.labels, c.values)
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %s\n", sample, ls, stats.FormatFloat(c.ctr.v))
			case kindGauge:
				c.gauge.tw.Advance(now)
				fmt.Fprintf(&b, "%s%s %s\n", fam, ls, stats.FormatFloat(c.gauge.tw.Value()))
				fmt.Fprintf(&timeavg, "%s_timeavg%s %s\n", fam, ls, stats.FormatFloat(c.gauge.tw.Mean()))
			case kindHistogram:
				var cum uint64
				for i, ub := range f.buckets {
					cum += c.hist.counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d%s\n", fam,
						labelString(append(f.labels, "le"), append(c.values, stats.FormatFloat(ub))),
						cum, exemplarSuffix(om, c.hist, i))
				}
				fmt.Fprintf(&b, "%s_bucket%s %d%s\n", fam,
					labelString(append(f.labels, "le"), append(c.values, "+Inf")),
					c.hist.n, exemplarSuffix(om, c.hist, len(f.buckets)))
				fmt.Fprintf(&b, "%s_sum%s %s\n", fam, ls, stats.FormatFloat(c.hist.sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", fam, ls, c.hist.n)
			}
			if om && f.kind != kindGauge {
				fmt.Fprintf(&b, "%s_created%s %s\n", fam, ls, stats.FormatFloat(c.created))
			}
		}
		if timeavg.Len() > 0 {
			fmt.Fprintf(&b, "# HELP %s_timeavg Time-weighted mean of %s over the run.\n", fam, fam)
			fmt.Fprintf(&b, "# TYPE %s_timeavg gauge\n", fam)
			b.WriteString(timeavg.String())
		}
	}
	if om {
		b.WriteString("# EOF\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// exemplarSuffix renders a bucket's OpenMetrics exemplar (" # {trace_id=...}
// v ts"), or the empty string in the Prometheus format or when the bucket has
// none.
func exemplarSuffix(om bool, h *Histogram, bucket int) string {
	if !om || h.ex == nil || bucket >= len(h.ex) {
		return ""
	}
	e := &h.ex[bucket]
	if e.traceID == "" {
		return ""
	}
	return fmt.Sprintf(" # {%s=\"%s\"} %s %s", exemplarLabel, escapeLabel(e.traceID), stats.FormatFloat(e.v), stats.FormatFloat(e.ts))
}

func labelString(labels, values []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
