package main

import (
	"reflect"
	"testing"
)

// TestBenchDFSVisitsReportPrefixes pins the benchmark-owned DFS to the
// engine: on every dfs-plain job the engine runs on a session, it visits
// exactly Report.Prefixes nodes and stops at a violation exactly when the
// engine does.
func TestBenchDFSVisitsReportPrefixes(t *testing.T) {
	jobs, err := generate(wlDFSPlain, 3)
	if err != nil {
		t.Fatal(err)
	}
	walked := 0
	for _, s := range jobs {
		j, err := newDFSJob(s)
		if err != nil {
			t.Fatal(err)
		}
		if !j.session {
			continue
		}
		walked++
		c, prop, err := checkerFor(s)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Explore(prop)
		if err != nil {
			t.Fatalf("%s: %v", s.Target, err)
		}
		st, err := runDFS(j)
		if err != nil {
			t.Fatalf("%s: bench DFS: %v", s.Target, err)
		}
		if st.nodes != rep.Prefixes || st.violated == rep.OK() {
			t.Errorf("%s %+v: bench DFS visited %d nodes (violated %v), engine %d prefixes (ok %v)",
				s.Target, s.Spec, st.nodes, st.violated, rep.Prefixes, rep.OK())
		}
	}
	if walked == 0 {
		t.Fatal("no dfs-plain job runs on a session")
	}
}

// TestTracedRunParity: for every workload at one worker, a traced run
// reaches the verdicts, witnesses and counters of the untraced run, and
// the tracer saw the calls it claims to time.
func TestTracedRunParity(t *testing.T) {
	for _, wl := range workloads {
		specs, err := generate(wl, 5)
		if err != nil {
			t.Fatal(err)
		}
		tr := &tracer{}
		for i, s := range specs {
			if testing.Short() && i%4 != 0 {
				continue
			}
			s.Workers = 0
			c, prop, err := checkerFor(s)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := c.Explore(prop)
			if err != nil {
				t.Fatalf("%s: %v", s.Target, err)
			}
			opts, err := tr.tracedOptions(c)
			if err != nil {
				t.Fatal(err)
			}
			tc, tp, err := checkerFor(s, opts...)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := tc.Explore(tprop{Property: tp, t: tr})
			if err != nil {
				t.Fatalf("%s traced: %v", s.Target, err)
			}
			if countsOf(plain) != countsOf(traced) || plain.EventScans != traced.EventScans ||
				!reflect.DeepEqual(plain.Verdicts, traced.Verdicts) || !reflect.DeepEqual(plain.Witness(), traced.Witness()) {
				t.Errorf("%s %s %+v: traced run differs:\n plain  %s\n traced %s", wl, s.Target, s.Spec, plain, traced)
			}
		}
		if tr.monStep.calls.Load() == 0 || tr.objStep.calls.Load()+tr.objApply.Load() == 0 || tr.envNext.calls.Load() == 0 {
			t.Errorf("%s: the tracer saw no monitor, object or environment calls", wl)
		}
	}
}
