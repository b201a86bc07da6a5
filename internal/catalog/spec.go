package catalog

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/expr"
	"repro/internal/term"
)

// CourseSpec is the serialisable form of a Course (see Course.Spec), as
// consumed by the HTTP service and CLI. Prereq uses the textual prerequisite language of
// internal/expr; Offered uses term labels ("Fall 2011").
type CourseSpec struct {
	ID       string   `json:"id"`
	Title    string   `json:"title,omitempty"`
	Prereq   string   `json:"prereq,omitempty"`
	Offered  []string `json:"offered"`
	Workload float64  `json:"workload,omitempty"`
}

// Spec returns the serialisable form of c: the prerequisite rendered in
// the expr grammar ("" for none) and the offerings as term labels (nil
// for none).
func (c Course) Spec() CourseSpec {
	sp := CourseSpec{ID: c.ID, Title: c.Title, Workload: c.Workload}
	if _, isTrue := c.Prereq.(expr.True); c.Prereq != nil && !isTrue {
		sp.Prereq = c.Prereq.String()
	}
	if len(c.Offered) > 0 {
		sp.Offered = make([]string, len(c.Offered))
		for j, t := range c.Offered {
			sp.Offered[j] = t.Label()
		}
	}
	return sp
}

// FromSpecs builds a Catalog from serialised course specs: it parses
// every prerequisite and each distinct term label once, and builds the
// courses as FromCourses does.
func FromSpecs(cal *term.Calendar, specs []CourseSpec) (*Catalog, error) {
	labels := term.NewLabels(cal)
	courses := make([]Course, len(specs))
	for i, sp := range specs {
		q, err := expr.Parse(sp.Prereq)
		if err != nil {
			return nil, fmt.Errorf("catalog: course %q: %v", sp.ID, err)
		}
		offered := make([]term.Term, len(sp.Offered))
		for j, lbl := range sp.Offered {
			if offered[j], err = labels.Parse(lbl); err != nil {
				return nil, fmt.Errorf("catalog: course %q: %v", sp.ID, err)
			}
		}
		courses[i] = Course{ID: sp.ID, Title: sp.Title, Prereq: q, Offered: offered, Workload: sp.Workload}
	}
	return FromCourses(cal, courses)
}

// FromCourses builds a Catalog from parsed courses, in order, through a
// Builder.
func FromCourses(cal *term.Calendar, courses []Course) (*Catalog, error) {
	b := &Builder{cal: cal, courses: make([]Course, 0, len(courses)), seen: make(map[string]int, len(courses))}
	for _, c := range courses {
		b.Add(c)
	}
	return b.Build()
}

// Specs returns the serialisable form of every course, in dense-index
// order.
func (c *Catalog) Specs() []CourseSpec {
	out := make([]CourseSpec, len(c.courses))
	for i, course := range c.courses {
		out[i] = course.Spec()
		if out[i].Offered == nil {
			out[i].Offered = []string{}
		}
	}
	return out
}

// WriteJSON serialises the catalog as a JSON array of course specs.
func (c *Catalog) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Specs())
}

// ReadJSON builds a catalog from a JSON array of course specs.
func ReadJSON(cal *term.Calendar, r io.Reader) (*Catalog, error) {
	var specs []CourseSpec
	if err := json.NewDecoder(r).Decode(&specs); err != nil {
		return nil, fmt.Errorf("catalog: decoding specs: %v", err)
	}
	return FromSpecs(cal, specs)
}
