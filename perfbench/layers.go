package main

// layerSelf returns each layer's self time per traced pass (mean over the
// passes), with the benchmark's own time outside any span as "harness".
// Where a pass generates its inputs inside the engine's span
// (experiment.Sweep.Run), the generation time measured on identical calls
// during set-up moves from engine to workload.
func layerSelf(st setupTimes, tps []tracedPass) map[string]float64 {
	self := map[string]float64{}
	for _, p := range tps {
		spanned := 0.0
		for l, v := range p.tr.selfByLayer() {
			self[l] += v
			spanned += v
		}
		self["harness"] += p.wall - spanned
	}
	n := float64(len(tps))
	for l := range self {
		self[l] /= n
	}
	if st.inPass {
		self["engine"] -= st.generate
		self["workload"] += st.generate
	}
	return self
}

// runStats are the traced run's whole-run figures: tracing overhead and
// the Go runtime's GC and heap figures over the untraced passes.
type runStats struct {
	overhead float64 // traced wall / untraced wall - 1
	gcCycles float64 // per untraced pass
	gcPause  float64 // seconds per untraced pass
	heapPeak float64 // MB obtained from the OS for the heap (HeapSys)
}

// layerMetrics emits every per-layer metric. Times are means per traced
// pass; counters come from the first traced pass (they repeat exactly).
func layerMetrics(put func(name, unit string, v float64), st setupTimes, tps []tracedPass, v verdict, rs runStats) {
	self := layerSelf(st, tps)
	first := tps[0]
	out, tr := first.out, first.tr
	n := float64(len(tps))
	wall := 0.0
	for _, p := range tps {
		wall += p.wall
	}
	wall /= n

	type agg struct {
		calls, progress, window int64
		busy                    float64
	}
	byLayer := map[string]*agg{"core": {}, "sched": {}}
	var resizeCalls, instants int64
	var resizeBusy float64
	for _, p := range tps {
		for _, ps := range p.tr.policies.all() {
			a := byLayer[ps.layer]
			a.busy += ps.busy.Seconds() / n
			resizeBusy += ps.resizeBusy.Seconds() / n
			if p.tr == tr {
				a.calls += ps.calls
				a.progress += ps.progress
				a.window += ps.window
				resizeCalls += ps.resizeCalls
				instants += ps.instants
			}
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for _, l := range []string{"core", "sched"} {
		a := byLayer[l]
		put(l+".calls", "count", float64(a.calls))
		put(l+".busy_s", "s", a.busy)
		put(l+".progress_frac", "ratio", ratio(float64(a.progress), float64(a.calls)))
		put(l+".window_mean", "jobs", ratio(float64(a.window), float64(a.calls)))
	}
	put("sched.resize_calls", "count", float64(resizeCalls))
	put("sched.resize_busy_s", "s", resizeBusy)

	spanMean := func(names ...string) float64 {
		s := 0.0
		for _, p := range tps {
			for _, name := range names {
				s += p.tr.spanSeconds(name)
			}
		}
		return s / n
	}
	put("engine.events", "count", float64(out.events))
	put("engine.cycles", "count", float64(out.cycles))
	put("engine.instants", "count", float64(instants))
	put("engine.cycles_per_event", "ratio", ratio(float64(out.cycles), float64(out.events)))
	put("engine.self_s", "s", self["engine"])
	put("engine.ns_per_event", "ns", ratio(self["engine"]*1e9, float64(out.events)))
	put("engine.load_s", "s", spanMean("engine.Load"))
	put("engine.inject_s", "s", spanMean("engine.Inject", "engine.InjectCommand"))

	var kills, requeues, drops, ckpts int
	var lost, overhead float64
	for _, s := range out.sums {
		kills += s.KilledJobs
		requeues += s.RetriedJobs
		drops += s.DroppedJobs
		ckpts += s.CheckpointsTaken
		lost += s.LostWorkSeconds
		overhead += s.CheckpointOverheadSeconds
	}
	put("fault.kills", "count", float64(kills))
	put("fault.requeues", "count", float64(requeues))
	put("fault.drops", "count", float64(drops))
	put("fault.ckpts", "count", float64(ckpts))
	put("fault.lost_work_ps", "proc-s", lost)
	put("fault.ckpt_overhead_ps", "proc-s", overhead)
	put("fault.shrinks", "count", float64(out.shrinks))

	placements, dropped := out.placements, out.droppedECC
	if !out.observed {
		placements, dropped = v.placements, max(dropped, v.droppedECC)
	}
	put("machine.placements", "count", float64(placements))
	put("machine.migrations", "count", float64(out.migrations))
	put("machine.frag_rejections", "count", float64(out.fragRejects))
	put("machine.peak_frag_waste", "procs", float64(out.peakWaste))

	e := out.ecc
	put("ecc.applied", "count", float64(e.Applied))
	put("ecc.rejected", "count", float64(e.IgnoredFinished+e.IgnoredUnknown+e.IgnoredLimit+e.IgnoredCapacity))
	put("ecc.dropped", "count", float64(dropped))

	// Per-cluster policy skew, per dispatcher run (policies register in
	// cluster order, shardClusters per run), averaged over the runs.
	skew, skewRuns := 0.0, 0
	if out.epochs > 0 || spanMean("dispatch.Run") > 0 {
		all := tr.policies.all()
		for i := 0; i+shardClusters <= len(all); i += shardClusters {
			hi, sum := 0.0, 0.0
			for _, ps := range all[i : i+shardClusters] {
				hi = max(hi, ps.busy.Seconds())
				sum += ps.busy.Seconds()
			}
			skew += ratio(hi, sum/shardClusters)
			skewRuns++
		}
	}
	put("dispatch.run_s", "s", spanMean("dispatch.Run"))
	put("dispatch.epochs", "count", float64(out.epochs))
	put("dispatch.steals", "count", float64(out.steals))
	put("dispatch.self_s", "s", self["dispatch"])
	put("dispatch.cluster_skew", "ratio", ratio(skew, float64(skewRuns)))

	sn := out.snaps
	put("snapshot.count", "count", float64(sn.count))
	put("snapshot.bytes", "bytes", float64(sn.bytes))
	put("snapshot.capture_s", "s", spanMean("engine.Session.Snapshot"))
	put("snapshot.encode_s", "s", spanMean("engine.Snapshot.Encode"))
	put("snapshot.decode_s", "s", spanMean("engine.DecodeSnapshot"))
	put("snapshot.restore_s", "s", spanMean("engine.Restore"))

	put("workload.generate_s", "s", st.generate)
	put("cwf.parse_s", "s", st.parse)
	put("experiment.runs", "count", float64(out.runs))
	put("experiment.wl_generated", "count", float64(out.wlGenerated))
	put("experiment.wl_reused", "count", float64(out.wlReused))
	put("metrics.result_s", "s", spanMean("engine.Result"))

	for _, l := range []string{"core", "sched", "engine", "dispatch", "snapshot", "metrics", "workload", "harness"} {
		put(l+".wall_share", "ratio", ratio(self[l], wall))
	}

	put("go.gc_cycles", "count", rs.gcCycles)
	put("go.gc_pause_s", "s", rs.gcPause)
	put("go.heap_peak_mb", "MB", rs.heapPeak)
	put("trace.overhead_frac", "ratio", rs.overhead)
}
