package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"repro"
	"repro/internal/server"
)

// maxConns is the benchmark's total connection budget: the number of
// CPUs of the machine the benchmark was sized on. Every client shares it.
const maxConns = 2

// env is one in-process server on a loopback listener.
type env struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan struct{}
}

// dump is the default tenant's catalog as registrar text: the source the
// loader parses at start and on every reload.
type dump struct {
	catalog, schedule []byte
	first, last       string
}

// registrarDump renders nav's catalog in the registrar dump format: one
// block per course with the prerequisite in its description, plus
// "COURSE | TERM" schedule records carrying every offering.
func registrarDump(nav *coursenav.Navigator, first, last string) dump {
	var cat, sched bytes.Buffer
	for _, c := range nav.Courses() {
		fmt.Fprintf(&cat, "course: %s\ntitle: %s\ndescription: %s.", c.ID, c.Title, c.Title)
		if c.Prereq != "" {
			fmt.Fprintf(&cat, " Prerequisite: %s.", c.Prereq)
		}
		fmt.Fprintf(&cat, "\nworkload: %s\n\n", strconv.FormatFloat(c.Workload, 'g', -1, 64))
		for _, t := range c.Offered {
			fmt.Fprintf(&sched, "%s | %s\n", c.ID, t)
		}
	}
	return dump{catalog: cat.Bytes(), schedule: sched.Bytes(), first: first, last: last}
}

func (d dump) load() (*coursenav.Navigator, error) {
	return coursenav.NewFromRegistrarDump(bytes.NewReader(d.catalog), bytes.NewReader(d.schedule), d.first, d.last)
}

// probeTenant hosts the default tenant's catalog, from the same registrar
// dump, beside it. The probe suite's jobs and reloads run on it, so they
// leave the workload's own cache on the default tenant alone. (The server
// splits its cache budget evenly over its tenants.)
const probeTenant = "probe"

// startEnv builds the server: the default tenant parsed from the
// registrar dump (and reloadable from it), the generated catalogs as
// tenants when asked and the probe tenant when asked, listening on a
// loopback port.
func startEnv(w *world, d dump, tenants, probe bool) (*env, error) {
	nav, err := d.load()
	if err != nil {
		return nil, fmt.Errorf("loading registrar dump: %w", err)
	}
	s := server.New(nav)
	s.Loader = func() (*coursenav.Navigator, *coursenav.ImportReport, error) {
		n, err := d.load()
		return n, nil, err
	}
	if probe {
		if st := s.AddTenant(probeTenant, s.Loader, 0); !st.OK {
			return nil, fmt.Errorf("adding tenant %s: %s", probeTenant, st.Reason)
		}
	}
	if tenants {
		for _, t := range []string{"wide", "deep"} {
			n := w.nav(t)
			st := s.AddTenant(t, func() (*coursenav.Navigator, *coursenav.ImportReport, error) { return n, nil, nil }, 0)
			if !st.OK {
				return nil, fmt.Errorf("adding tenant %s: %s", t, st.Reason)
			}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &env{srv: s, base: "http://" + ln.Addr().String(), served: make(chan struct{}),
		hs: &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return e, nil
}

// stop shuts the server down and waits for its serve loop to exit.
func (e *env) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx)
	<-e.served
}

// newClient returns a client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}, Timeout: 60 * time.Second}
}

// outcome is one request's observed answer.
type outcome struct {
	sent, first, done time.Time
	status            int
	xcache            string
	bytes             int
	body              []byte
	err               error
}

func (o *outcome) degraded() bool {
	return o.xcache == "stale" || bytes.Contains(o.body, []byte(`"degraded":true`))
}

// do sends r and reads the whole answer. For a streamed answer, first is
// when the first NDJSON record arrived.
func do(c *http.Client, base string, r *request) outcome {
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	o := outcome{sent: time.Now()}
	req, err := http.NewRequest(r.Method, base+r.Path, body)
	if err != nil {
		o.err, o.done = err, time.Now()
		return o
	}
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		o.err, o.done = err, time.Now()
		return o
	}
	defer resp.Body.Close()
	o.status, o.xcache = resp.StatusCode, resp.Header.Get("X-Cache")
	var br io.Reader = resp.Body
	var buf bytes.Buffer
	if r.Kind == kStream || r.Kind == kCohort {
		sr := bufio.NewReader(resp.Body)
		br = sr
		line, err := sr.ReadBytes('\n')
		o.first = time.Now()
		buf.Write(line)
		if err != nil && err != io.EOF {
			o.err = err
		}
	}
	if _, err := buf.ReadFrom(br); err != nil && o.err == nil {
		o.err = err
	}
	o.done = time.Now()
	o.body, o.bytes = buf.Bytes(), buf.Len()
	return o
}

// inProcess serves r through the handler directly, without a connection:
// the reference answers and the counter scrapes use it.
func inProcess(h http.Handler, r *request) (int, []byte) {
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	req := httptest.NewRequest(r.Method, r.Path, body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}
