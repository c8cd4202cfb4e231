package main

import (
	"fmt"
	"time"

	"repro/internal/service"
	"repro/slx"
	"repro/slx/run"
)

// This file runs the in-process workloads (dfs-plain, dfs-reduced,
// sample-pct): a closed loop on one goroutine that builds each job's
// checker from its spec, as slxd does, and calls Explore. A job is due
// when the previous verdict is in, so the generator lag is the time spent
// turning the next spec into a checker.

// execution is one job run.
type execution struct {
	job          int
	lag, verdict time.Duration
	n            counts
	failure      string // empty when the verdict checked out
	// The failing property and witness of a violating job.
	property string
	witness  []run.Decision
	// Traced runs only: the busy time of the job's engine worker loops
	// and of the layers the engine called.
	layers layerTotals
	replay bool // ran on the from-root replay executor
}

// counts are a report's deterministic counters.
type counts struct {
	ok                                 bool
	prefixes, schedules, steps, resims int
	cacheHits, pruned, distinct        int
}

func countsOf(rep *slx.Report) counts {
	return counts{
		ok: rep.OK(), prefixes: rep.Prefixes, schedules: rep.Schedules, steps: rep.SimSteps,
		resims: rep.Resims, cacheHits: rep.CacheHits, pruned: rep.Pruned, distinct: rep.DistinctStates,
	}
}

// localRun is one in-process workload run over a generated job list.
type localRun struct {
	specs []service.JobSpec
	// replayJob marks the jobs the engine runs on the replay executor;
	// only traced runs fill it in.
	replayJob []bool
}

// setupLocal generates the job list, builds and validates every job's
// checker, and runs one job of each target family as a warm-up.
func setupLocal(workload string, seed int64) (*localRun, error) {
	specs, err := generate(workload, seed)
	if err != nil {
		return nil, err
	}
	r := &localRun{specs: specs}
	for i, s := range specs {
		c, prop, err := checkerFor(s)
		if err != nil {
			return nil, err
		}
		if err := c.ValidateExplore(prop); err != nil {
			return nil, fmt.Errorf("job %d (%s): %w", i, s.Target, err)
		}
	}
	for _, i := range warmUpJobs(specs) {
		if e := r.runJob(i, nil, time.Now()); e.failure != "" {
			return nil, fmt.Errorf("warm-up job: %s", e.failure)
		}
	}
	return r, nil
}

// warmUpJobs picks the first job of each target family in list order, so
// every family's code runs once before the timed window.
func warmUpJobs(specs []service.JobSpec) []int {
	seen := map[string]bool{}
	var out []int
	for i, s := range specs {
		if fam := family(s); !seen[fam] {
			seen[fam] = true
			out = append(out, i)
		}
	}
	return out
}

// runJob runs job i, timing it from the Explore call to its checked
// verdict. tr, when set, traces the job.
func (r *localRun) runJob(i int, tr *tracer, due time.Time) execution {
	s := r.specs[i]
	e := execution{job: i, replay: r.replayJob != nil && r.replayJob[i]}
	c, prop, err := checkerFor(s)
	if err == nil && tr != nil {
		var opts []slx.Option
		if opts, err = tr.tracedOptions(c); err == nil {
			c, prop, err = checkerFor(s, opts...)
			prop = tprop{Property: prop, t: tr}
		}
	}
	if err != nil {
		e.failure = err.Error()
		return e
	}
	var before layerTotals
	if tr != nil {
		before = tr.totals()
	}
	t0 := time.Now()
	rep, err := c.Explore(prop)
	e.failure = judge(s, rep, err)
	t1 := time.Now()
	if tr != nil {
		tr.wg.Wait()
		e.layers = tr.totals().sub(before)
	}
	e.lag, e.verdict = t0.Sub(due), t1.Sub(t0)
	if rep != nil {
		e.n = countsOf(rep)
		if f := rep.Failures(); len(f) > 0 {
			e.property, e.witness = f[0].Property, f[0].Witness
		}
	}
	return e
}

// judge checks a report against the job's expected verdict.
func judge(s service.JobSpec, rep *slx.Report, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s: %v", s.Target, err)
	case rep.OK() != expectOK(s):
		return fmt.Sprintf("%s %+v: verdict ok=%v, want ok=%v", s.Target, s.Spec, rep.OK(), expectOK(s))
	}
	return ""
}

// measured is what a timed window of whole passes produced.
type measured struct {
	// passes holds each pass's end-to-end metrics: every pass runs the
	// whole list, so each is a sample of the same figures, and the run
	// reports their median, which a burst of load on a shared host moves
	// less than it moves the figures of the whole window.
	passes    [][]metric
	attempted int
	failures  []string
	witnesses []execution   // the first pass's violating jobs, for verify
	execs     []execution   // every job run, kept only when tracing
	wall      time.Duration // the window, on a clock of its own
}

// measure makes whole passes over the job list for about the given
// duration: the first pass sets how many fit.
func (r *localRun) measure(d time.Duration, tr *tracer) measured {
	var m measured
	start := time.Now()
	due := start
	passes := 1
	for p := 0; p < passes; p++ {
		pass := make([]execution, 0, len(r.specs))
		for i := range r.specs {
			e := r.runJob(i, tr, due)
			due = time.Now()
			switch {
			case e.failure != "":
				m.failures = append(m.failures, e.failure)
			case p == 0 && !e.n.ok:
				m.witnesses = append(m.witnesses, e)
			}
			pass = append(pass, e)
		}
		m.attempted += len(pass)
		m.passes = append(m.passes, localMetrics(r.specs, pass))
		if tr != nil {
			m.execs = append(m.execs, pass...)
		}
		if p == 0 {
			passes = max(1, int(float64(d)/float64(time.Since(start))+0.5))
		}
	}
	m.wall = time.Since(start)
	return m
}

// medianMetrics takes the median of each metric across passes.
func medianMetrics(passes [][]metric) []metric {
	out := append([]metric(nil), passes[0]...)
	for i := range out {
		vals := make([]float64, len(passes))
		for p, ms := range passes {
			vals[p] = ms[i].value
		}
		out[i].value = median(vals)
	}
	return out
}

// markReplayJobs finds the exhaustive jobs the engine runs on the replay
// executor.
func (r *localRun) markReplayJobs() error {
	r.replayJob = make([]bool, len(r.specs))
	for i, s := range r.specs {
		if s.Sample {
			continue
		}
		j, err := newDFSJob(s)
		if err != nil {
			return err
		}
		r.replayJob[i] = !j.session
	}
	return nil
}

// verify checks what the timed loop could not afford to: every witness
// of the first pass replays through Checker.Replay to the same failing
// property.
func (r *localRun) verify(witnesses []execution) []string {
	var fails []string
	for _, e := range witnesses {
		if msg := replayWitness(r.specs[e.job], e.property, e.witness); msg != "" {
			fails = append(fails, msg)
		}
	}
	return fails
}

// replayWitness replays a failing job's witness and checks it fails the
// same property.
func replayWitness(s service.JobSpec, property string, witness []run.Decision) string {
	c, prop, err := checkerFor(s)
	if err != nil {
		return err.Error()
	}
	rep, err := c.Replay(witness, prop)
	if err != nil {
		return fmt.Sprintf("%s: replay: %v", s.Target, err)
	}
	if f := rep.Failures(); len(f) == 0 || f[0].Property != property {
		return fmt.Sprintf("%s %+v: witness %v does not replay to a %s violation", s.Target, s.Spec, witness, property)
	}
	return ""
}

// localMetrics derives the end-to-end metrics of an in-process run.
func localMetrics(specs []service.JobSpec, execs []execution) []metric {
	var verdicts, lags, bugMs, toBug []float64
	var nodes, exploreS, sched, schedS float64
	for _, e := range execs {
		v := ms(e.verdict)
		verdicts = append(verdicts, v)
		lags = append(lags, ms(e.lag))
		if e.failure != "" {
			continue
		}
		s := specs[e.job]
		exploreS += e.verdict.Seconds()
		if s.Sample {
			nodes += float64(e.n.steps)
		} else {
			nodes += float64(e.n.prefixes)
		}
		if !expectOK(s) {
			bugMs = append(bugMs, v)
			toBug = append(toBug, float64(e.n.scheduleCount(s)))
			continue
		}
		sched += float64(e.n.scheduleCount(s))
		schedS += e.verdict.Seconds()
	}
	return latencyMetrics(verdicts, lags, bugMs, toBug, ratio(nodes, exploreS), ratio(sched, schedS))
}

// latencyMetrics turns a run's per-job samples and rates into the
// end-to-end metrics both kinds of workload report.
func latencyMetrics(verdicts, lags, bugMs, toBug []float64, nodesPerS, schedPerS float64) []metric {
	return []metric{
		{"verdict_ms_p50", quantile(verdicts, 0.50), "ms"},
		{"verdict_ms_p90", quantile(verdicts, 0.90), "ms"},
		{"verdict_ms_p99", quantile(verdicts, 0.99), "ms"},
		{"prefixes_per_s", nodesPerS, "1/s"},
		{"schedules_per_s", schedPerS, "1/s"},
		{"bug_ms_p50", quantile(bugMs, 0.50), "ms"},
		{"schedules_to_bug_p50", quantile(toBug, 0.50), "count"},
		{"gen_lag_ms_p99", quantile(lags, 0.99), "ms"},
	}
}

// scheduleCount counts a job's schedules: sampled schedules, or, for an
// exhaustive exploration, the schedule prefixes it judged.
func (n counts) scheduleCount(s service.JobSpec) int {
	if s.Sample {
		return n.schedules
	}
	return n.prefixes
}

// localLayers derives the per-layer metrics of a traced window, and the
// ratio of its layer breakdown to the window's wall time.
//
// A job's layer times are the spans of the calls the engine made into
// its object, monitors and environment; the engine's self time is its
// busy time (the Explore call plus any worker loops run off the calling
// goroutine) less those spans, or 0 when the spans add up to more. With
// several workers the layers run on all of them, so every figure is
// scaled by Explore span / busy time back to wall time.
//
// The breakdown is the sum over jobs of checker construction (the lag)
// and the Explore span, against the window's wall time on its own clock.
// Where the parts measured on their own — the child spans, plus, on a job
// whose unreduced tree the benchmark DFS walked, that walk's session time
// less its object and environment calls — add up to more than the span,
// the job counts their sum instead. So parts that overlap or count a call
// twice push the ratio above 1, and time the window spent outside any job
// pulls it below.
func localLayers(specs []service.JobSpec, execs []execution, wall time.Duration, tr *tracer, dfs []dfsStats) ([]metric, float64) {
	simSelf := map[string]float64{}
	for _, st := range dfs {
		if st.unreduced {
			simSelf[st.key] = st.simSelfMs
		}
	}
	var exJobs, saJobs, exSelf, saSelf, objMs, monMs, envMs, lagMs, covered float64
	var exSpan, replaySpan float64
	var prefixes, steps, resims, hits, pruned float64
	var schedules, saSteps, distinct, saResims float64
	for _, e := range execs {
		lagMs += ms(e.lag)
		if e.failure != "" {
			continue
		}
		span := ms(e.verdict)
		busy := span + float64(e.layers.loops)/1e6
		toWall := ratio(span, busy) / 1e6 // ns of busy time to ms of wall time
		obj, mon, env := float64(e.layers.object)*toWall, float64(e.layers.monitor)*toWall, float64(e.layers.env)*toWall
		objMs, monMs, envMs = objMs+obj, monMs+mon, envMs+env
		self := max(0, span-obj-mon-env)
		covered += max(span, obj+mon+env+simSelf[jobKey(specs[e.job])])
		if specs[e.job].Sample {
			saJobs++
			saSelf += self
			schedules += float64(e.n.schedules)
			saSteps += float64(e.n.steps)
			distinct += float64(e.n.distinct)
			saResims += float64(e.n.resims)
			continue
		}
		exJobs++
		exSelf += self
		exSpan += span
		if e.replay {
			replaySpan += span
		}
		prefixes += float64(e.n.prefixes)
		steps += float64(e.n.steps)
		resims += float64(e.n.resims)
		hits += float64(e.n.cacheHits)
		pruned += float64(e.n.pruned)
	}
	jobs := float64(len(execs))
	perCall := func(s *span) float64 { return ratio(float64(s.ns.Load()), float64(s.calls.Load())) }
	perJob := func(n int64) float64 { return ratio(float64(n), jobs) }
	breakdown := ratio(lagMs+covered, ms(wall))

	// Per-call times come from every walked tree; call counts only from
	// the trees the engine walks in full, without POR or the cache.
	var sim struct{ extend, mark, restore, fp clock }
	var unreduced float64
	for _, st := range dfs {
		for _, p := range []struct{ dst, src *clock }{{&sim.extend, &st.extend}, {&sim.mark, &st.mark}, {&sim.restore, &st.restore}, {&sim.fp, &st.fingerprint}} {
			p.dst.ns += p.src.ns
			p.dst.calls += p.src.calls
		}
		if st.unreduced {
			unreduced++
		}
	}
	simNs := func(c clock) float64 { return ratio(float64(c.ns), float64(c.calls)) }
	simCalls := func(get func(dfsStats) clock) float64 {
		n := 0.0
		for _, st := range dfs {
			if st.unreduced {
				n += float64(get(st).calls)
			}
		}
		return ratio(n, unreduced)
	}

	return []metric{
		{"explore.self_ms", ratio(exSelf, exJobs), "ms"},
		{"explore.prefixes", ratio(prefixes, exJobs), "count"},
		{"explore.resim_ratio", ratio(resims, steps), "ratio"},
		{"explore.cache_hit_ratio", ratio(hits, prefixes), "ratio"},
		{"explore.por_pruned_ratio", ratio(pruned, prefixes+pruned), "ratio"},
		{"explore.replay_time_frac", ratio(replaySpan, exSpan), "ratio"},
		{"sim.extend_ns", simNs(sim.extend), "ns"},
		{"sim.extend_calls", simCalls(func(st dfsStats) clock { return st.extend }), "count"},
		{"sim.mark_ns", simNs(sim.mark), "ns"},
		{"sim.mark_calls", simCalls(func(st dfsStats) clock { return st.mark }), "count"},
		{"sim.restore_ns", simNs(sim.restore), "ns"},
		{"sim.restore_calls", simCalls(func(st dfsStats) clock { return st.restore }), "count"},
		{"sim.fingerprint_ns", simNs(sim.fp), "ns"},
		{"sim.fingerprint_calls", simCalls(func(st dfsStats) clock { return st.fingerprint }), "count"},
		{"object.step_ns", perCall(&tr.objStep), "ns"},
		{"object.step_calls", perJob(tr.objStep.calls.Load()), "count"},
		{"object.fork_ns", perCall(&tr.objFork), "ns"},
		{"object.fork_calls", perJob(tr.objFork.calls.Load()), "count"},
		{"object.snapshot_ns", perCall(&tr.objSnapshot), "ns"},
		{"object.snapshot_calls", perJob(tr.objSnapshot.calls.Load()), "count"},
		{"object.restore_ns", perCall(&tr.objRestore), "ns"},
		{"object.restore_calls", perJob(tr.objRestore.calls.Load()), "count"},
		{"object.fingerprint_ns", perCall(&tr.objFP), "ns"},
		{"object.fingerprint_calls", perJob(tr.objFP.calls.Load()), "count"},
		{"object.crash_ns", perCall(&tr.objCrash), "ns"},
		{"object.crash_calls", perJob(tr.objCrash.calls.Load()), "count"},
		{"object.apply_calls", perJob(tr.objApply.Load()), "count"},
		{"object.time_ms", ratio(objMs, jobs), "ms"},
		{"safety.step_ns", perCall(&tr.monStep), "ns"},
		{"safety.step_calls", perJob(tr.monStep.calls.Load()), "count"},
		{"safety.fork_ns", perCall(&tr.monFork), "ns"},
		{"safety.fork_calls", perJob(tr.monFork.calls.Load()), "count"},
		{"safety.digest_ns", perCall(&tr.monDigest), "ns"},
		{"safety.digest_calls", perJob(tr.monDigest.calls.Load()), "count"},
		{"safety.release_calls", perJob(tr.monRelease.Load()), "count"},
		{"safety.time_ms", ratio(monMs, jobs), "ms"},
		{"safety.events_per_prefix", ratio(float64(tr.monStep.calls.Load()), prefixes+saSteps), "ratio"},
		{"env.next_ns", perCall(&tr.envNext), "ns"},
		{"env.next_calls", perJob(tr.envNext.calls.Load()), "count"},
		{"env.time_ms", ratio(envMs, jobs), "ms"},
		{"sample.self_ms", ratio(saSelf, saJobs), "ms"},
		{"sample.steps_per_schedule", ratio(saSteps, schedules), "count"},
		{"sample.distinct_ratio", ratio(distinct, schedules), "ratio"},
		{"sample.resims", saResims, "count"},
	}, breakdown
}

// jobKey identifies a job spec.
func jobKey(s service.JobSpec) string { return fmt.Sprintf("%s %+v", s.Target, s.Spec) }

// dfsSample runs the benchmark-owned DFS once over every distinct job of
// a list that the engine runs on a session, so which trees it walks
// depends only on the list.
func dfsSample(specs []service.JobSpec) ([]dfsStats, error) {
	seen := map[string]bool{}
	var out []dfsStats
	for _, s := range specs {
		key := jobKey(s)
		if s.Sample || seen[key] {
			continue
		}
		seen[key] = true
		j, err := newDFSJob(s)
		if err != nil {
			return nil, err
		}
		if !j.session {
			continue
		}
		st, err := runDFS(j)
		if err != nil {
			return nil, fmt.Errorf("%s: bench DFS: %w", s.Target, err)
		}
		st.unreduced, st.key = !s.POR && !s.Cache, key
		if st.unreduced {
			// A second walk, with the object and environment wrapped as
			// a traced run's are, tells the session's own time apart.
			tr := &tracer{}
			obj, env := j.newObject, j.newEnv
			j.newObject = func() run.Object { return tr.object(obj()) }
			j.newEnv = func() run.Environment { return tr.env(env()) }
			wst, err := runDFS(j)
			if err != nil {
				return nil, fmt.Errorf("%s: bench DFS: %w", s.Target, err)
			}
			t := tr.totals()
			st.simSelfMs = wst.sessionMs() - float64(t.object+t.env)/1e6
		}
		out = append(out, st)
	}
	return out, nil
}
