package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/decisions"
	"heroserve/internal/telemetry/perf"
	"heroserve/internal/telemetry/slo"
)

// TestReadersRejectOtherArtefacts feeds each artefact kind to each
// subcommand: a reader accepts its own kind and rejects the other three,
// instead of rendering them as an empty ledger, log, or report.
func TestReadersRejectOtherArtefacts(t *testing.T) {
	dir := t.TempDir()
	write := func(kind string, render func(io.Writer) error) {
		var buf bytes.Buffer
		if err := render(&buf); err != nil {
			t.Fatalf("render %s: %v", kind, err)
		}
		if err := os.WriteFile(filepath.Join(dir, kind), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	hub := telemetry.New()
	hub.Trace.Complete(1, "request", "request", 0, 1, map[string]any{"id": 0})
	write("trace", hub.Trace.Export)
	led := decisions.NewLedger()
	led.AddCollective(decisions.CollectiveRecord{T: 1, Group: "decode/0/0", Scheme: "ring", Reason: "table"})
	led.SetEnd(10)
	write("decisions", led.WriteJSON)
	log := &slo.Log{Meta: slo.Meta{Rules: slo.DefaultRules(2.5, 0.15), Every: 1, End: 10}}
	write("alerts", log.WriteJSON)
	write("perf", (&perf.Report{Schema: perf.Schema, System: "heroserve"}).WriteJSON)

	for reader, cmd := range commands {
		for artefact := range commands {
			o := options{top: 10}
			err := cmd.run(io.Discard, &o, []string{filepath.Join(dir, artefact)})
			if artefact == reader && err != nil {
				t.Errorf("hstat %s rejected its own artefact: %v", reader, err)
			}
			if artefact != reader && err == nil {
				t.Errorf("hstat %s accepted a %s artefact", reader, artefact)
			}
		}
	}
}
