// GET /metrics: the /v1/stats numbers in the Prometheus text exposition
// format, the format a scrape pipeline ingests without adapters. A series is
// declared once, by the tags of the /v1/stats field that holds its number:
// metric names it and help describes it. A name ending in _total is a
// counter, any other a gauge. A struct's field tagged label (the worker URL,
// the store tier) labels the series of that struct. Untagged fields, and
// everything under a nil pointer, are not exported.
package service

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
)

// family is the HELP/TYPE header of one metric name and its sample lines.
type family struct {
	name, help string
	samples    []string
}

// exposition collects the families of a stats walk, in the order their
// first samples appear.
type exposition struct {
	families []*family
	byName   map[string]*family
}

// walk adds one sample per metric-tagged field under v, recursing into
// structs, non-nil pointers and slices. labels are the label pairs of the
// enclosing structs.
func (e *exposition) walk(v reflect.Value, labels []string) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			e.walk(v.Elem(), labels)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			e.walk(v.Index(i), labels)
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if key, ok := t.Field(i).Tag.Lookup("label"); ok {
				labels = append(labels[:len(labels):len(labels)], fmt.Sprintf("%s=%q", key, v.Field(i).String()))
			}
		}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name := f.Tag.Get("metric")
			if name == "" {
				e.walk(v.Field(i), labels)
				continue
			}
			fam := e.byName[name]
			if fam == nil {
				fam = &family{name: name, help: f.Tag.Get("help")}
				e.byName[name] = fam
				e.families = append(e.families, fam)
			}
			set := ""
			if len(labels) > 0 {
				set = "{" + strings.Join(labels, ",") + "}"
			}
			fam.samples = append(fam.samples, fmt.Sprintf("%s%s %g\n", name, set, number(v.Field(i))))
		}
	}
}

// number is the sample value of a metric-tagged field, an integer or a bool
// (1 or 0).
func number(v reflect.Value) float64 {
	if v.Kind() == reflect.Bool {
		if v.Bool() {
			return 1
		}
		return 0
	}
	return float64(v.Int())
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	e := &exposition{byName: make(map[string]*family)}
	e.walk(reflect.ValueOf(s.stats()), nil)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, f := range e.families {
		typ := "gauge"
		if strings.HasSuffix(f.name, "_total") {
			typ = "counter"
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s", f.name, f.help, f.name, typ, strings.Join(f.samples, ""))
	}
}
