package aecdsm

import (
	"io"

	"aecdsm/internal/trace"
)

// Tracer receives protocol events during a simulation run. Attach one via
// Config.TraceSink (or harness.RunFaultTraced). Implementations in this package:
// the ring buffer, the JSONL stream writer, the Chrome trace_event exporter
// and the metrics aggregator — combine several with MultiTracer.
type Tracer = trace.Tracer

// TraceEvent is one protocol event: what happened (Kind), when (Cycle),
// where (Proc), and to which lock/page, with kind-specific Arg/Arg2/Note.
type TraceEvent = trace.Event

// TraceKind enumerates the traced protocol event kinds (lock traffic, LAP
// predictions, faults, diffs, barriers, messages); see the trace package
// constants (trace.KindLockGrant, ...) and docs/OBSERVABILITY.md.
type TraceKind = trace.Kind

// TraceRing is a fixed-capacity in-memory sink keeping the newest events.
type TraceRing = trace.Ring

// JSONLTracer streams events as one JSON object per line. Its output is
// byte-identical across identical-config runs.
type JSONLTracer = trace.JSONL

// ChromeTracer writes the Chrome trace_event format, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing, one track per simulated processor.
type ChromeTracer = trace.Chrome

// TraceMetrics aggregates events into per-lock and per-page summaries
// (hold/wait histograms, LAP accuracy, diff volume) exportable as JSON.
type TraceMetrics = trace.Metrics

// NewTraceRing returns an in-memory ring-buffer sink holding the most
// recent capacity events.
func NewTraceRing(capacity int) *TraceRing { return trace.NewRing(capacity) }

// NewJSONLTracer returns a sink streaming events to w as JSON Lines.
// Call Close (or Flush) when the run finishes.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return trace.NewJSONL(w) }

// NewChromeTracer returns a sink writing the Chrome trace_event format to
// w. Call Close when the run finishes to terminate the JSON document.
func NewChromeTracer(w io.Writer) *ChromeTracer { return trace.NewChrome(w) }

// NewTraceMetrics returns an aggregating sink; after the run, use Summary
// or WriteJSON for the per-lock/per-page report.
func NewTraceMetrics() *TraceMetrics { return trace.NewMetrics() }

// MultiTracer fans events out to several sinks (nil sinks are skipped).
func MultiTracer(sinks ...Tracer) Tracer { return trace.Multi(sinks...) }
