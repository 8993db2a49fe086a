package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Prometheus text exposition content type.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Prom collects samples and renders them as Prometheus text exposition
// (version 0.0.4). Samples sharing a metric name are grouped under one
// # TYPE line regardless of insertion order, which is what a fleet needs
// when the same engine registry is emitted once per shard with a topo label.
// Not safe for concurrent use; build, render, discard.
type Prom struct {
	order  []string
	series map[string][]promSample
}

type promSample struct {
	labels string // pre-rendered {k="v",...} or ""
	value  float64
}

// NewProm returns an empty collector.
func NewProm() *Prom {
	return &Prom{series: make(map[string][]promSample)}
}

// Gauge records one sample. The name is sanitized to the metric-name
// alphabet; label values are escaped.
func (p *Prom) Gauge(name string, labels map[string]string, v float64) {
	name = sanitizeMetricName(name)
	if _, ok := p.series[name]; !ok {
		p.order = append(p.order, name)
	}
	p.series[name] = append(p.series[name], promSample{labels: renderLabels(labels), value: v})
}

// FromVars walks an expvar.Map and records every numeric leaf as a gauge
// named prefix_key, carrying the given labels on each sample:
//
//   - Int and Float vars map directly;
//   - Func vars map by their returned value: numbers directly,
//     map[string]float64 windows as one sample per entry with a "stat"
//     label (quantile summaries), map[string]any likewise for its numeric
//     entries, with its string entries rolled into a prefix_key_info gauge
//     whose labels carry the strings (the expvar "path_system" summary).
//
// Non-numeric leaves that fit none of these shapes are skipped — an expvar
// registry addition can never break the exposition.
func (p *Prom) FromVars(prefix string, labels map[string]string, vars *expvar.Map) {
	vars.Do(func(kv expvar.KeyValue) {
		p.addVar(prefix+"_"+kv.Key, labels, kv.Value)
	})
}

func (p *Prom) addVar(name string, labels map[string]string, v expvar.Var) {
	switch v := v.(type) {
	case *expvar.Int:
		p.Gauge(name, labels, float64(v.Value()))
	case *expvar.Float:
		p.Gauge(name, labels, v.Value())
	case expvar.Func:
		p.addValue(name, labels, v.Value())
	}
}

// addValue records a value produced by an expvar.Func.
func (p *Prom) addValue(name string, labels map[string]string, x any) {
	switch x := x.(type) {
	case float64:
		p.Gauge(name, labels, x)
	case float32:
		p.Gauge(name, labels, float64(x))
	case int:
		p.Gauge(name, labels, float64(x))
	case int64:
		p.Gauge(name, labels, float64(x))
	case uint64:
		p.Gauge(name, labels, float64(x))
	case map[string]float64:
		for _, k := range sortedKeys(x) {
			p.Gauge(name, withLabel(labels, "stat", k), x[k])
		}
	case map[string]any:
		info := map[string]string{}
		for _, k := range sortedKeys(x) {
			switch v := x[k].(type) {
			case float64:
				p.Gauge(name, withLabel(labels, "stat", k), v)
			case int:
				p.Gauge(name, withLabel(labels, "stat", k), float64(v))
			case int64:
				p.Gauge(name, withLabel(labels, "stat", k), float64(v))
			case uint64:
				p.Gauge(name, withLabel(labels, "stat", k), float64(v))
			case string:
				info[k] = v
			}
		}
		if len(info) > 0 {
			for k, v := range labels {
				info[k] = v
			}
			p.Gauge(name+"_info", info, 1)
		}
	}
}

// WriteTo renders the exposition: per metric name (insertion order), one
// # TYPE line followed by every sample of that name.
func (p *Prom) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, name := range p.order {
		n, err := fmt.Fprintf(w, "# TYPE %s gauge\n", name)
		total += int64(n)
		if err != nil {
			return total, err
		}
		for _, s := range p.series[name] {
			n, err := fmt.Fprintf(w, "%s%s %s\n", name, s.labels, formatPromValue(s.value))
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// formatPromValue renders a float the exposition format accepts (NaN and
// signed Inf spelled out).
func formatPromValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var metricNameBad = regexp.MustCompile(`[^a-zA-Z0-9_:]`)

// sanitizeMetricName maps an arbitrary key into the Prometheus metric-name
// alphabet.
func sanitizeMetricName(name string) string {
	name = metricNameBad.ReplaceAllString(name, "_")
	if name == "" || (name[0] >= '0' && name[0] <= '9') {
		name = "_" + name
	}
	return name
}

var labelNameBad = regexp.MustCompile(`[^a-zA-Z0-9_]`)

// renderLabels renders a label set as {k="v",...}, keys sorted, values
// escaped per the exposition format.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		name := labelNameBad.ReplaceAllString(k, "_")
		if name == "" || (name[0] >= '0' && name[0] <= '9') {
			name = "_" + name
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func withLabel(labels map[string]string, k, v string) map[string]string {
	out := make(map[string]string, len(labels)+1)
	for lk, lv := range labels {
		out[lk] = lv
	}
	out[k] = v
	return out
}

// Exposition-format line shapes for the strict validator.
var (
	expoTypeRe = regexp.MustCompile(
		`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$`)
	expoHelpRe = regexp.MustCompile(
		`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .*$`)
	expoSampleRe = regexp.MustCompile(
		`^([a-zA-Z_:][a-zA-Z0-9_:]*)` + // metric name
			`(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"` + // first label
			`(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*")*\})?` + // more labels
			` (NaN|[+-]Inf|[+-]?[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)` + // value
			`( [0-9]+)?$`) // optional timestamp
)

// ValidateExposition is a strict line-format checker for the Prometheus text
// exposition (version 0.0.4), used by CI to gate /metrics output. It
// enforces, beyond per-line syntax:
//
//   - the payload ends with a newline and contains no blank lines;
//   - at most one # TYPE per metric name, appearing before the name's
//     samples;
//   - all samples of one metric name are contiguous;
//   - no duplicate sample (same name and label set).
func ValidateExposition(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("exposition: empty payload")
	}
	if data[len(data)-1] != '\n' {
		return fmt.Errorf("exposition: payload must end with a newline")
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	typed := map[string]bool{}
	finished := map[string]bool{} // names whose sample block has ended
	seen := map[string]bool{}     // name + labels
	last := ""
	for i, line := range lines {
		lineNo := i + 1
		if line == "" {
			return fmt.Errorf("exposition: blank line %d", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			if m := expoTypeRe.FindStringSubmatch(line); m != nil {
				name := m[1]
				if typed[name] {
					return fmt.Errorf("exposition: line %d: duplicate TYPE for %s", lineNo, name)
				}
				if finished[name] || seen[name+"\x00"] || hasSamples(seen, name) {
					return fmt.Errorf("exposition: line %d: TYPE for %s after its samples", lineNo, name)
				}
				typed[name] = true
				continue
			}
			if expoHelpRe.MatchString(line) {
				continue
			}
			return fmt.Errorf("exposition: line %d: malformed comment %q", lineNo, line)
		}
		m := expoSampleRe.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("exposition: line %d: malformed sample %q", lineNo, line)
		}
		name := m[1]
		if finished[name] {
			return fmt.Errorf("exposition: line %d: samples of %s are not contiguous", lineNo, name)
		}
		if last != "" && last != name {
			finished[last] = true
			if finished[name] {
				return fmt.Errorf("exposition: line %d: samples of %s are not contiguous", lineNo, name)
			}
		}
		key := name + "\x00" + m[2]
		if seen[key] {
			return fmt.Errorf("exposition: line %d: duplicate sample %s%s", lineNo, name, m[2])
		}
		seen[key] = true
		last = name
	}
	return nil
}

func hasSamples(seen map[string]bool, name string) bool {
	prefix := name + "\x00"
	for k := range seen {
		if strings.HasPrefix(k, prefix) {
			return true
		}
	}
	return false
}
