package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"regexp"

	"repro"
	"repro/internal/server"
)

// checker verifies answers. Count answers must equal the façade's counts;
// other bodies must equal a cache-off server's answer to the same
// request; cohort answers must equal a direct Runner.Run. References are
// computed per canonical key, outside the timed phases.
type checker struct {
	w   *world
	ref http.Handler // cache-off server over the same catalogs

	want    map[string]string // key → reference digest
	wrong   int
	checked int
	first   string // the first mismatch, for the report
}

func newChecker(w *world, d dump) (*checker, error) {
	nav, err := d.load()
	if err != nil {
		return nil, err
	}
	ref := server.New(nav)
	ref.Cache = nil
	for _, t := range []string{"wide", "deep"} {
		n := w.nav(t)
		ref.AddTenant(t, func() (*coursenav.Navigator, *coursenav.ImportReport, error) { return n, nil, nil }, 0)
	}
	return &checker{w: w, ref: ref, want: map[string]string{}}, nil
}

// sampled reports whether a call's answer is checked: every count,
// cohort and reload answer, and a seeded eighth of the other keys.
func sampled(r *request) bool {
	switch r.Kind {
	case kCount, kDeadline, kCohort, kReload:
		return true
	case kStats:
		return false
	}
	h := fnv.New32a()
	h.Write([]byte(r.Key))
	return h.Sum32()%8 == 0
}

var elapsed = regexp.MustCompile(`"elapsedMs":[-0-9.eE+]+,?`)

// digest reduces an answer to what must match its reference: the tallies
// of a count, a reload's outcome, and otherwise the body without timings
// or the brownout marker. (A cohort job's digest is cohortAnswer's.)
func digest(r *request, status int, body []byte) string {
	if status != http.StatusOK {
		return fmt.Sprintf("status %d", status)
	}
	switch r.Kind {
	case kCount, kDeadline:
		var env struct {
			Summary struct {
				Paths, GoalPaths int64
				Stopped          string
			}
		}
		if err := json.Unmarshal(body, &env); err != nil {
			return "unparseable: " + err.Error()
		}
		return countDigest(env.Summary.Paths, env.Summary.GoalPaths, env.Summary.Stopped)
	case kReload:
		var st server.ReloadStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return "unparseable: " + err.Error()
		}
		return fmt.Sprintf("ok=%v courses=%d", st.OK, st.Courses)
	}
	b := elapsed.ReplaceAll(body, nil)
	b = bytes.ReplaceAll(b, []byte(`,"degraded":true`), nil)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// reference computes (once per key) the digest r's answer must have.
func (c *checker) reference(r *request) (string, error) {
	d, ok := c.want[r.Key]
	if ok {
		return d, nil
	}
	switch r.Kind {
	case kCount, kDeadline:
		run, err := runFacade(context.Background(), c.w.nav(r.Tenant), r.Kind, r.Explore)
		if err != nil {
			return "", err
		}
		d = run.counts
	case kCohort:
		run, err := runCohortDirect(context.Background(), c.w.brandeis, r.Job, nil, nil, r.ID)
		if err != nil {
			return "", err
		}
		d = run.digest
	case kReload:
		d = fmt.Sprintf("ok=true courses=%d", c.w.brandeis.NumCourses())
	default:
		status, body := inProcess(c.ref, r)
		d = digest(r, status, body)
	}
	c.want[r.Key] = d
	return d, nil
}

// verify compares every checked call with its reference and returns how
// many were wrong.
func (c *checker) verify(calls []*call) (int, error) {
	wrong := 0
	for _, cl := range calls {
		if cl.digest == "" {
			continue
		}
		want, err := c.reference(cl.r)
		if err != nil {
			return wrong, fmt.Errorf("reference for %s: %w", cl.r.Key, err)
		}
		c.checked++
		if cl.digest != want {
			cl.wrong = true
			wrong++
			if c.first == "" {
				c.first = fmt.Sprintf("%s %s: got %.120s want %.120s", cl.r.Method, cl.r.Path, cl.digest, want)
			}
		}
	}
	c.wrong += wrong
	return wrong, nil
}
