package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
)

// span is one traced interval. Spans of one compile or run share an
// id; parent is the index of the enclosing span (-1 at the top).
type span struct {
	name   string
	layer  string
	metric string // per-layer self-time metric the span's self time feeds
	id     int64
	parent int
	start  time.Duration
	end    time.Duration
}

// tracer keeps spans in memory for one process. A nil *tracer records
// nothing, so untraced passes run the same code at the cost of a nil
// check. The benchmark drives the packages from one goroutine, so the
// tracer needs no locking.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	lastID int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// newID returns a fresh operation id.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.lastID++
	return t.lastID
}

func (t *tracer) top() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span under the innermost open span and returns its
// index (-1 on a nil tracer).
func (t *tracer) begin(layer, name, metric string, id int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, layer: layer, metric: metric, id: id, parent: t.top(), start: t.now()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = t.now()
	t.open = t.open[:len(t.open)-1]
}

// add records a closed child span [start, now) under the innermost
// open span; the compile stage hooks use it to cut stage spans at the
// pipeline's own boundaries.
func (t *tracer) add(layer, name, metric string, id int64, start time.Duration) time.Duration {
	now := t.now()
	t.spans = append(t.spans, span{name: name, layer: layer, metric: metric, id: id, parent: t.top(), start: start, end: now})
	return now
}

// compileHooks returns options that cut the running core.Compile into
// stage spans at the FuncStageHook and ModStageHook boundaries:
//
//   - entry→"input" is opt when optimise is set; otherwise it stays in
//     the core remainder (verify and clone);
//   - a segment ending at a function's "canonicalize", "loop-transform"
//     or "loop-clone" hook is cfg/canonicalize, analysis/loop-transform
//     or analysis/loop-clone. Hooks fire after a stage, so a canonicalize
//     segment also holds the previous function's cost evaluation;
//   - last hook→"analysis" is the container and cost-evaluation remainder;
//   - previous boundary→"probes" is probe insertion.
//
// What falls outside these segments (final verification) is core self
// time. A nil tracer returns no options.
func (t *tracer) compileHooks(id int64, optimise bool) []core.Option {
	if t == nil {
		return nil
	}
	last := t.now()
	fn := func(stage string, _ *ir.Func) {
		switch stage {
		case "canonicalize":
			last = t.add("cfg", "canonicalize", "cfg_canonicalize_self_ms", id, last)
		case "loop-transform":
			last = t.add("ci/analysis", "loop-transform", "analysis_loop_transform_self_ms", id, last)
		case "loop-clone":
			last = t.add("ci/analysis", "loop-clone", "analysis_loop_clone_self_ms", id, last)
		}
	}
	mod := func(stage string, _ *ir.Module) {
		switch stage {
		case "input":
			if optimise {
				last = t.add("opt", "opt", "opt_self_ms", id, last)
			} else {
				last = t.now()
			}
		case "analysis":
			last = t.add("ci/analysis", "cost", "analysis_cost_self_ms", id, last)
		case "probes":
			last = t.add("ci/instrument", "probes", "instrument_probes_self_ms", id, last)
		}
	}
	return []core.Option{core.WithFuncStageHook(fn), core.WithModStageHook(mod)}
}

// selfTimes returns, per self-time metric, the summed self time of the
// spans within [from, to): each span's duration minus the part its
// children cover. Children never overlap (one goroutine), so that part
// is the sum of their durations.
func (t *tracer) selfTimes(from, to int) map[string]time.Duration {
	self := make([]time.Duration, to-from)
	for i := from; i < to; i++ {
		self[i-from] += t.spans[i].end - t.spans[i].start
		if p := t.spans[i].parent; p >= from {
			self[p-from] -= t.spans[i].end - t.spans[i].start
		}
	}
	out := make(map[string]time.Duration)
	for i, d := range self {
		if m := t.spans[from+i].metric; m != "" {
			out[m] += d
		}
	}
	return out
}

// spanCounts returns how many spans in [from, to) feed each metric.
func (t *tracer) spanCounts(from, to int) map[string]int {
	out := make(map[string]int)
	for _, s := range t.spans[from:to] {
		if s.metric != "" {
			out[s.metric]++
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// "X" events, microsecond timestamps), which Perfetto opens.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		evs = append(evs, event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.id, "span": i, "parent": s.parent},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	metric string
	layer  string
	self   time.Duration
	count  int
}

// printLayerTable prints per-layer self time, span count and share of
// the traced pass wall time, largest first, in the style of a
// per-module cost table.
func printLayerTable(w io.Writer, rows []layerRow, wall time.Duration, extra []string) {
	slices.SortFunc(rows, func(a, b layerRow) int {
		if c := cmp.Compare(b.self, a.self); c != 0 {
			return c
		}
		return cmp.Compare(a.metric, b.metric)
	})
	line := "+--------------------+----------------------------------+--------------+--------+---------+"
	fmt.Fprintln(w, line)
	fmt.Fprintf(w, "| %-18s | %-32s | %12s | %6s | %7s |\n", "LAYER", "SPAN METRIC", "SELF/PASS", "SPANS", "WALL %")
	fmt.Fprintln(w, line)
	for _, r := range rows {
		share := 0.0
		if wall > 0 {
			share = 100 * float64(r.self) / float64(wall)
		}
		fmt.Fprintf(w, "| %-18s | %-32s | %12s | %6d | %6.2f%% |\n", r.layer, r.metric, r.self.Round(time.Microsecond), r.count, share)
	}
	fmt.Fprintln(w, line)
	for _, e := range extra {
		fmt.Fprintf(w, "| %-88s |\n", e)
	}
	if len(extra) > 0 {
		fmt.Fprintln(w, line)
	}
}
