package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WriteText renders every family in the Prometheus text exposition
// format (version 0.0.4), families sorted by name and series by label
// values, so the output is deterministic and diffable in golden tests.
func (r *Registry) WriteText(w io.Writer) error {
	r.scrape.Lock()
	defer r.scrape.Unlock()
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, hook := range hooks {
		hook()
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if err := f.writeText(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeText renders one family.
func (f *family) writeText(w *bufio.Writer) error {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	snaps := make([]*series, 0, len(keys))
	for _, k := range keys {
		snaps = append(snaps, f.series[k])
	}
	f.mu.Unlock()
	if len(snaps) == 0 {
		return nil
	}

	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	for _, s := range snaps {
		if err := f.writeSeries(w, s); err != nil {
			return err
		}
	}
	return nil
}

// writeSeries renders one labeled series of the family.
func (f *family) writeSeries(w *bufio.Writer, s *series) error {
	base := labelSet(f.labels, s.labelValues)
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, braced(base), formatFloat(s.counter.Value()))
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, braced(base), formatFloat(s.gauge.Value()))
		return err
	case kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, braced(base), formatFloat(s.gaugeFn()))
		return err
	case kindHistogram:
		cum, sum, count := s.histogram.snapshot()
		bounds := s.histogram.upper
		for i, c := range cum {
			le := "+Inf"
			if i < len(bounds) {
				le = formatFloat(bounds[i])
			}
			withLE := append(append([]string(nil), base...), `le="`+le+`"`)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, braced(withLE), c); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, braced(base), formatFloat(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, braced(base), count)
		return err
	}
	return nil
}

// labelSet renders name="value" pairs with exposition-format escaping.
func labelSet(names, values []string) []string {
	if len(names) == 0 {
		return nil
	}
	out := make([]string, len(names))
	for i := range names {
		out[i] = names[i] + `="` + escapeLabel(values[i]) + `"`
	}
	return out
}

// braced joins rendered label pairs into {a="1",b="2"}, or "" when
// unlabeled.
func braced(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// formatFloat renders a sample value, using the exposition spellings
// for infinities and NaN.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
