package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// WritePrometheus writes every metric in the Prometheus text
// exposition format (version 0.0.4), sorted by name so output is
// deterministic and golden-testable. Counters get a _total-as-given
// name (callers follow the convention in their metric names), gauges
// and sampled gauges emit as gauge, histograms emit cumulative
// le-labelled buckets plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.names() {
		if h := r.help[name]; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, h); err != nil {
				return err
			}
		}
		var err error
		switch r.kinds[name] {
		case kindCounter:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, r.counters[name].Load())
		case kindGauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, r.gauges[name].Load())
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, r.sampleGaugeFns(r.gaugeFns[name]))
		case kindHistogram:
			err = writePromHistogram(w, name, r.hists[name].Snapshot())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, s HistogramSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum uint64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b, cum); err != nil {
			return err
		}
	}
	cum += s.Counts[len(s.Counts)-1]
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		name, cum, name, s.Sum, name, s.Count)
	return err
}

// jsonSnapshot is the JSON exposition shape. Maps marshal with sorted
// keys, so output is deterministic.
type jsonSnapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Events     *EventDump                   `json:"events,omitempty"`
}

// WriteJSON writes every metric — and the flight-recorder dump, when
// a recorder exists — as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	s := jsonSnapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)+len(r.gaugeFns)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, fns := range r.gaugeFns {
		s.Gauges[name] = r.sampleGaugeFns(fns)
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	rec := r.recorder
	r.mu.Unlock()
	if rec != nil {
		d := rec.Dump()
		s.Events = &d
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile is the CLIs' -metrics flag: dest "-" writes Prometheus
// text to dash (each tool's side channel, so piped output stays
// byte-clean); a path ending in .json gets the JSON form, any other
// path Prometheus text.
func (r *Registry) WriteFile(dest string, dash io.Writer) error {
	if dest == "-" {
		return r.WritePrometheus(dash)
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	write := r.WritePrometheus
	if strings.HasSuffix(dest, ".json") {
		write = r.WriteJSON
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
