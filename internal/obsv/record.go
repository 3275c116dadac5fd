package obsv

import (
	"fmt"
	"strings"
	"time"
)

// SpanRecord is the exported, immutable snapshot of one Span: what the
// slow-query log serialises and the waterfall renderer draws. Durations
// marshal as integer nanoseconds, so a logged trace round-trips through
// encoding/json losslessly.
type SpanRecord struct {
	Op         string        `json:"op"`
	Kind       string        `json:"kind"`
	Start      time.Duration `json:"start_ns"`   // offset from the trace start
	Elapsed    time.Duration `json:"elapsed_ns"` // wall time inside the span
	EstRows    float64       `json:"est_rows"`   // planner estimate; < 0 = none
	RowsIn     int64         `json:"rows_in"`
	RowsOut    int64         `json:"rows_out"`
	Batches    int64         `json:"batches,omitempty"`     // batches moved by a vectorized operator
	Bytes      int64         `json:"bytes,omitempty"`       // working-state bytes reserved
	Spills     int64         `json:"spills,omitempty"`      // spill events under this span
	SpillBytes int64         `json:"spill_bytes,omitempty"` // bytes written to spill files
	Children   []*SpanRecord `json:"children,omitempty"`

	// Session and QueryID label the root record of a tagged trace (see
	// Tracer.Tag): the serving layer's session ID and its monotonically
	// increasing per-session query counter, so interleaved concurrent
	// queries stay attributable. Zero values on untagged or child spans.
	Session string `json:"session,omitempty"`
	QueryID uint64 `json:"query_id,omitempty"`
}

// Walk visits the record and every descendant in pre-order (which is
// span start order, because children are appended as they open).
func (r *SpanRecord) Walk(fn func(*SpanRecord)) {
	if r == nil {
		return
	}
	fn(r)
	for _, c := range r.Children {
		c.Walk(fn)
	}
}

// Find returns the first record (pre-order) whose Kind matches, or nil.
func (r *SpanRecord) Find(kind string) *SpanRecord {
	var out *SpanRecord
	r.Walk(func(s *SpanRecord) {
		if out == nil && s.Kind == kind {
			out = s
		}
	})
	return out
}

// waterfallBarWidth is the character width of the waterfall's time bars.
const waterfallBarWidth = 32

// Waterfall renders the span tree as an indented text table with one
// offset-scaled bar per span — where the query's wall time went:
//
//	op                         rows       time  |bar            |
//	query                         -     12.3ms  |################|
//	  reduce T1 (orders)       4500      3.1ms  |####            |
//
// The bar's offset and length are proportional to the span's start and
// elapsed time within the whole trace.
func Waterfall(root *SpanRecord) string {
	if root == nil {
		return "(no trace recorded)\n"
	}
	total := root.Elapsed
	opw := len("operator")
	var measure func(r *SpanRecord, depth int)
	measure = func(r *SpanRecord, depth int) {
		if n := 2*depth + len([]rune(r.Op)); n > opw {
			opw = n
		}
		if end := r.Start + r.Elapsed; end > total {
			total = end
		}
		for _, c := range r.Children {
			measure(c, depth+1)
		}
	}
	measure(root, 0)

	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  %10s  %10s  |%s|\n", opw, "operator", "rows", "time",
		strings.Repeat(" ", waterfallBarWidth))
	var render func(r *SpanRecord, depth int)
	render = func(r *SpanRecord, depth int) {
		rows := "-"
		if r.RowsOut > 0 || r.RowsIn > 0 {
			rows = fmt.Sprintf("%d", r.RowsOut)
		}
		label := strings.Repeat("  ", depth) + r.Op
		fmt.Fprintf(&b, "%-*s  %10s  %10s  |%s|", opw, label, rows,
			fmtDuration(r.Elapsed), bar(r.Start, r.Elapsed, total))
		if r.Batches > 0 {
			fmt.Fprintf(&b, " %d batches", r.Batches)
		}
		if r.Spills > 0 {
			fmt.Fprintf(&b, " %d spills (%d B)", r.Spills, r.SpillBytes)
		}
		b.WriteByte('\n')
		for _, c := range r.Children {
			render(c, depth+1)
		}
	}
	render(root, 0)
	return b.String()
}

// bar draws one offset-scaled time bar of waterfallBarWidth characters.
func bar(start, elapsed, total time.Duration) string {
	if total <= 0 {
		return strings.Repeat(" ", waterfallBarWidth)
	}
	lead := int(int64(start) * int64(waterfallBarWidth) / int64(total))
	if lead > waterfallBarWidth {
		lead = waterfallBarWidth
	}
	n := int(int64(elapsed) * int64(waterfallBarWidth) / int64(total))
	if n < 1 {
		n = 1
	}
	if lead+n > waterfallBarWidth {
		n = waterfallBarWidth - lead
		if n < 1 {
			lead, n = waterfallBarWidth-1, 1
		}
	}
	return strings.Repeat(" ", lead) + strings.Repeat("#", n) +
		strings.Repeat(" ", waterfallBarWidth-lead-n)
}

// fmtDuration renders a duration compactly for the waterfall table.
func fmtDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
