// Package telemetry is the production monitoring layer over internal/obs:
// Prometheus text exposition for the metric registry (GET /metrics), and a
// sampling collector that keeps the runtime and daemon self-monitoring
// gauges behind it fresh. Pure stdlib, like everything else in the tree.
//
// Metric names in the obs registry follow the lowercase-dotted
// subsystem.noun[.verb] convention (enforced by the speclint metricname
// analyzer); the exposition maps dots to underscores, so "store.hit"
// scrapes as store_hit. A registry name may carry a Prometheus-style label
// suffix — `serve.http.requests{route="/v1/jobs",code="2xx"}` — in which
// case every series of the same family is grouped under one # TYPE line.
// Exposition output is deterministic: families sorted by name, series
// sorted by label set, histogram buckets in ascending bound order.
package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"specsampling/internal/obs"
)

// series is one exposition time series: a family name plus its raw label
// content (the text between the braces, without them; empty for unlabelled
// metrics).
type series struct {
	labels string
	mv     obs.MetricValue
}

// family is one exposition metric family: every series sharing a name and
// kind.
type family struct {
	name   string // sanitized exposition name
	kind   string // counter | gauge | histogram
	series []series
}

// splitSeries splits a registry name into its family and raw label content.
// "serve.http.requests{route=\"/v1/jobs\"}" → ("serve.http.requests",
// "route=\"/v1/jobs\""); names without a well-formed suffix are all family.
func splitSeries(name string) (string, string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// sanitizeName maps a dotted registry name onto the Prometheus exposition
// charset: dots become underscores, anything outside [a-zA-Z0-9_:] is
// replaced with an underscore, and a leading digit gets a prefix.
func sanitizeName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatFloat renders a float the same way everywhere in the exposition.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the snapshot in Prometheus text exposition format
// (version 0.0.4): one # TYPE line per family, series sorted, histogram
// families as cumulative _bucket/_sum/_count with le labels. The output is
// a pure function of the snapshot — byte-identical for identical metric
// state — so scrapes are diffable and the exposition tests can assert
// exact shapes.
func WritePrometheus(w io.Writer, snap []obs.MetricValue) error {
	byName := map[string]*family{}
	var order []string
	for _, mv := range snap {
		rawFamily, labels := splitSeries(mv.Name)
		name := sanitizeName(rawFamily)
		groupKey := name + "\x00" + mv.Kind
		fam := byName[groupKey]
		if fam == nil {
			fam = &family{name: name, kind: mv.Kind}
			byName[groupKey] = fam
			order = append(order, groupKey)
		}
		fam.series = append(fam.series, series{labels: labels, mv: mv})
	}
	sort.Strings(order)
	bounds := obs.BucketBounds()
	for _, key := range order {
		fam := byName[key]
		sort.Slice(fam.series, func(i, j int) bool { return fam.series[i].labels < fam.series[j].labels })
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.name, fam.kind); err != nil {
			return err
		}
		for _, s := range fam.series {
			var err error
			switch fam.kind {
			case "histogram":
				err = writeHistogramSeries(w, fam.name, s, bounds)
			default:
				err = writeScalarSeries(w, fam.name, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeScalarSeries renders one counter or gauge sample line.
func writeScalarSeries(w io.Writer, name string, s series) error {
	labels := ""
	if s.labels != "" {
		labels = "{" + s.labels + "}"
	}
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, strconv.FormatInt(s.mv.Value, 10))
	return err
}

// writeHistogramSeries renders one histogram series: cumulative buckets
// with le labels (the +Inf bucket always equals the count), then sum and
// count.
func writeHistogramSeries(w io.Writer, name string, s series, bounds []float64) error {
	withLE := func(le string) string {
		if s.labels == "" {
			return `{le="` + le + `"}`
		}
		return "{" + s.labels + `,le="` + le + `"}`
	}
	var cum int64
	for i, bound := range bounds {
		if i < len(s.mv.Buckets) {
			cum += s.mv.Buckets[i]
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(formatFloat(bound)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE("+Inf"), s.mv.Count); err != nil {
		return err
	}
	labels := ""
	if s.labels != "" {
		labels = "{" + s.labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(s.mv.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, s.mv.Count)
	return err
}

// MetricsHandler serves the live obs registry as Prometheus text
// exposition — the GET /metrics endpoint.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The registry snapshot cannot fail; a write error means the scraper
		// went away, which is its problem, not ours.
		_ = WritePrometheus(w, obs.Snapshot())
	})
}
