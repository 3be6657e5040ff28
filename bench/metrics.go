package main

import (
	"backtrace/internal/metrics"
	"backtrace/internal/obs"
)

// metricDef names one reported metric. The two lists below are the
// benchmark's whole vocabulary; BENCHMARK.json repeats them with bounds, and
// a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"reclaimed_per_s", "1/s", "higher"},
	{"collect_latency_p50_ms", "ms", "lower"},
	{"collect_latency_p75_ms", "ms", "lower"},
	{"collect_rounds_mean", "rounds", "lower"},
	{"link_latency_p50_us", "us", "lower"},
	{"msgs_per_reclaimed", "count", "lower"},
	{"wire_bytes_per_reclaimed", "bytes", "lower"},
	{"cpu_ms_per_reclaimed", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayerDefs = []metricDef{
	{"wire.encode_ns_per_msg", "ns", "lower"},
	{"wire.decode_ns_per_msg", "ns", "lower"},
	{"wire.bytes_per_msg", "bytes", "lower"},

	{"transport.frames_per_msg", "ratio", "lower"},
	{"transport.batch_fill", "ratio", "higher"},
	{"transport.retransmit_ratio", "ratio", "lower"},
	{"transport.standalone_ack_ratio", "ratio", "lower"},
	{"transport.send_ns", "ns", "lower"},
	{"transport.transit_p50_us", "us", "lower"},
	{"transport.transit_p90_us", "us", "lower"},
	{"transport.stack_cpu_ns_per_msg", "ns", "lower"},

	{"site.deliver_block_us", "us", "lower"},
	{"site.mailbox_wait_p50_us", "us", "lower"},
	{"site.mailbox_wait_p90_us", "us", "lower"},
	{"site.mailbox_depth_max", "count", "lower"},
	{"site.handler_ns_reflist", "ns", "lower"},
	{"site.handler_ns_backtrace", "ns", "lower"},
	{"site.snapshot_ms_per_trace", "ms", "lower"},
	{"site.commit_ms_per_trace", "ms", "lower"},
	{"site.mutator_op_p50_us", "us", "lower"},
	{"site.mutator_op_p99_us", "us", "lower"},
	{"site.mutator_late_p50_us", "us", "lower"},
	{"site.mutator_busy_ms_per_s", "ms/s", "lower"},
	{"site.mutator_delayed_ratio", "ratio", "lower"},
	{"site.mutator_stall_ms_per_s", "ms/s", "lower"},
	{"site.checkpoint_ms", "ms", "lower"},
	{"site.checkpoint_bytes", "bytes", "lower"},
	{"site.restore_ms", "ms", "lower"},

	{"tracer.compute_ms_per_trace", "ms", "lower"},
	{"tracer.objects_per_trace", "count", "lower"},
	{"tracer.fallback_ratio", "ratio", "lower"},
	{"tracer.dirty_seeds_per_remark", "count", "lower"},
	{"tracer.outsets_reused_ratio", "ratio", "higher"},
	{"tracer.union_memo_hit_ratio", "ratio", "higher"},
	{"tracer.backinfo_entries_peak", "count", "lower"},
	{"tracer.isolated_full_trace_ms", "ms", "lower"},

	{"core.traces_per_structure", "count", "lower"},
	{"core.backcalls_per_trace", "count", "lower"},
	{"core.garbage_verdict_ratio", "ratio", "higher"},
	{"core.memo_hits", "count", "higher"},
	{"core.joined", "count", "higher"},
	{"core.deferred", "count", "lower"},
	{"core.inflight_peak", "count", "lower"},
	{"core.batch_size_peak", "count", "higher"},
	{"core.rtt_p50_us", "us", "lower"},

	{"ledger.wire_cpu_share", "ratio", "lower"},
	{"ledger.transport_cpu_share", "ratio", "lower"},
	{"ledger.handler_cpu_share", "ratio", "lower"},
	{"ledger.snapshot_cpu_share", "ratio", "lower"},
	{"ledger.tracer_cpu_share", "ratio", "lower"},
	{"ledger.commit_cpu_share", "ratio", "lower"},
	{"ledger.unaccounted_share", "ratio", "lower"},

	{"obs.trace_overhead_ratio", "ratio", "higher"},

	{"baseline.hughes.msgs_per_reclaimed", "count", "lower"},
	{"baseline.hughes.rounds", "rounds", "lower"},
	{"baseline.group-trace.msgs_per_reclaimed", "count", "lower"},
	{"baseline.group-trace.rounds", "rounds", "lower"},
	{"baseline.migration.msgs_per_reclaimed", "count", "lower"},
	{"baseline.migration.rounds", "rounds", "lower"},
}

// Mutator op latencies (from the due time) beyond stallThresholdUs count
// toward site.mutator_stall_ms_per_s; an op later than delayedThresholdUs —
// far above its uncontended cost — found the site lock held.
const (
	stallThresholdUs   = 100
	delayedThresholdUs = 50
)

func (r *result) reclaimed() float64 {
	n := 0
	for _, s := range r.t.sweeps {
		n += s.objects
	}
	return float64(n)
}

// attempted and failed count the operations the load tried inside the
// window: planted structures whose fate was decided, reference transfers,
// and mutator ops (checkpoints included).
func (r *result) attempted() int {
	return len(r.t.sweeps) + r.t.expired + r.t.linkAttempts + r.t.mutOps
}

func (r *result) failed() int {
	return r.t.expired + r.t.linkTimeouts + r.t.mutErrors
}

func (r *result) sweepStats() (latMs, rounds []float64) {
	for _, s := range r.t.sweeps {
		latMs = append(latMs, float64(s.latency)/1e6)
		rounds = append(rounds, float64(s.rounds))
	}
	return latMs, rounds
}

// endToEnd computes what a user of the system would see, from an untraced
// window.
func endToEnd(r *result) map[string]float64 {
	latMs, rounds := r.sweepStats()
	reclaimed := r.reclaimed()
	var rate, cpuMs []float64
	for _, s := range r.t.slices {
		rate = append(rate, ratio(s.objects, s.seconds))
		if s.objects > 0 {
			cpuMs = append(cpuMs, s.cpuS*1e3/s.objects)
		}
	}
	return map[string]float64{
		"setup_s":                  median(r.setupS),
		"reclaimed_per_s":          median(rate),
		"collect_latency_p50_ms":   quantile(latMs, 0.5),
		"collect_latency_p75_ms":   quantile(latMs, 0.75),
		"collect_rounds_mean":      mean(rounds),
		"link_latency_p50_us":      quantile(r.t.linkUs, 0.5),
		"msgs_per_reclaimed":       ratio(r.d.count(metrics.MsgTotal), reclaimed),
		"wire_bytes_per_reclaimed": ratio(r.d.count(metrics.WireBytes), reclaimed),
		"cpu_ms_per_reclaimed":     median(cpuMs),
		"peak_rss_mb":              peakRSSMB(),
	}
}

func stallMsPerS(r *result) float64 {
	stall := 0.0
	for _, us := range r.t.mutLatUs {
		if us > stallThresholdUs {
			stall += us - stallThresholdUs
		}
	}
	return ratio(stall/1e3, r.windowS)
}

// perLayer computes the per-layer metrics from a traced window, its replays,
// the untraced window measured beside it (for the tracing overhead) and the
// baseline rows.
func perLayer(r, untraced *result, base map[string]float64) map[string]float64 {
	d, u, rec := r.d, r.units, r.rec
	m := map[string]float64{}
	msgs := d.count(metrics.MsgTotal)
	frames := d.count(metrics.WireFrames)
	acks := d.count(counterAckFrames)

	m["wire.encode_ns_per_msg"] = u.encodeNs
	m["wire.decode_ns_per_msg"] = u.decodeNs
	m["wire.bytes_per_msg"] = u.bytesPerMsg

	m["transport.frames_per_msg"] = ratio(frames, msgs)
	m["transport.batch_fill"] = 0 // the stepped shape has no batcher
	if r.w.shape == shapeNode {
		m["transport.batch_fill"] = ratio(msgs, (frames-acks)*batchMax)
	}
	m["transport.retransmit_ratio"] = ratio(d.count(metrics.LinkRetransmits), msgs)
	m["transport.standalone_ack_ratio"] = ratio(acks, frames)
	sendNs := rec.durations(spanSend)
	deliverNs := rec.durations(spanDeliver)
	m["transport.send_ns"] = mean(sendNs)
	m["transport.transit_p50_us"] = quantile(rec.transit, 0.5)
	m["transport.transit_p90_us"] = quantile(rec.transit, 0.9)
	m["transport.stack_cpu_ns_per_msg"] = u.stackCPUNs

	m["site.deliver_block_us"] = mean(deliverNs) / 1e3
	wait := d.hists[obs.MetricMailboxQueueDelay]
	m["site.mailbox_wait_p50_us"] = histQuantile(wait, 0.5) * 1e6
	m["site.mailbox_wait_p90_us"] = histQuantile(wait, 0.9) * 1e6
	m["site.mailbox_depth_max"] = float64(d.gauges[metrics.MailboxDepthPeak])
	m["site.handler_ns_reflist"] = u.handlerNs[classRefList]
	m["site.handler_ns_backtrace"] = u.handlerNs[classBackTrace]
	m["site.snapshot_ms_per_trace"] = mean(r.t.snapshotNs) / 1e6
	m["site.commit_ms_per_trace"] = mean(r.t.commitNs) / 1e6
	m["site.mutator_op_p50_us"] = quantile(r.t.mutSvcUs, 0.5)
	m["site.mutator_op_p99_us"] = quantile(r.t.mutSvcUs, 0.99)
	m["site.mutator_late_p50_us"] = quantile(r.t.mutLateUs, 0.5)
	m["site.mutator_busy_ms_per_s"] = ratio(sum(r.t.mutSvcUs)/1e3, r.windowS)
	delayed := 0
	for _, us := range r.t.mutLatUs {
		if us > delayedThresholdUs {
			delayed++
		}
	}
	m["site.mutator_delayed_ratio"] = ratio(float64(delayed), float64(len(r.t.mutLatUs)))
	m["site.mutator_stall_ms_per_s"] = stallMsPerS(r)
	m["site.checkpoint_ms"], m["site.checkpoint_bytes"], m["site.restore_ms"] = u.ckptMs, u.ckptBytes, u.restoreMs
	if len(r.t.ckptMs) > 0 { // in-window checkpoints, where the workload takes them
		m["site.checkpoint_ms"], m["site.checkpoint_bytes"] = median(r.t.ckptMs), float64(r.t.ckptBytes)
	}

	runs := d.count(metrics.LocalTraces)
	remarks := d.count(metrics.IncrementalRemarks)
	m["tracer.compute_ms_per_trace"] = mean(r.t.computeNs) / 1e6
	m["tracer.objects_per_trace"] = ratio(d.count(metrics.ObjectsTraced), runs)
	m["tracer.fallback_ratio"] = ratio(d.count(metrics.IncrementalFallbacks), runs)
	m["tracer.dirty_seeds_per_remark"] = ratio(d.count(metrics.IncrementalDirtySeeds), remarks)
	m["tracer.outsets_reused_ratio"] = ratio(d.count(metrics.IncrementalOutsetsReused), remarks)
	m["tracer.union_memo_hit_ratio"] = ratio(d.count(metrics.OutsetUnionsMemoHit), d.count(metrics.OutsetUnions))
	m["tracer.backinfo_entries_peak"] = float64(d.gauges[metrics.BackInfoPeak])
	m["tracer.isolated_full_trace_ms"] = u.isolatedTraceMs

	started := d.count(metrics.BackTracesStarted)
	m["core.traces_per_structure"] = ratio(started, float64(len(r.t.sweeps)))
	m["core.backcalls_per_trace"] = ratio(d.count("msg.BackCall"), started)
	m["core.garbage_verdict_ratio"] = ratio(d.count(metrics.BackTracesGarbage), started)
	m["core.memo_hits"] = d.count(metrics.BackTraceMemoHits)
	m["core.joined"] = d.count(metrics.BackTraceJoined)
	m["core.deferred"] = d.count(metrics.BackTraceDeferred)
	m["core.inflight_peak"] = float64(d.gauges[metrics.BackTraceInflight])
	m["core.batch_size_peak"] = float64(d.gauges[metrics.BackTraceBatchSize])
	m["core.rtt_p50_us"] = histQuantile(d.hists[obs.MetricBackTraceRTT], 0.5) * 1e6

	// The ledger: each layer's count over the window times its unit cost
	// from the replays (wire, transport, handlers), or the wall time of the
	// harness's own calls into the layer (snapshot, tracer, commit), as a
	// share of the window's process CPU.
	cpuNs := r.cpuS * 1e9
	codecNs := u.encodeNs + u.decodeNs
	reflist := msgs - d.count("msg.BackCall") - d.count("msg.BackReply") - d.count("msg.Report")
	wire := msgs * codecNs
	transport := msgs * max(0, u.stackCPUNs-codecNs)
	if r.w.shape == shapeStepped {
		// No session layer or sockets: what Send costs beyond the codec
		// round trip it performs is all there is.
		transport = max(0, sum(sendNs)-wire)
	}
	handler := reflist*u.handlerNs[classRefList] + (msgs-reflist)*u.handlerNs[classBackTrace]
	shares := map[string]float64{
		"ledger.wire_cpu_share":      ratio(wire, cpuNs),
		"ledger.transport_cpu_share": ratio(transport, cpuNs),
		"ledger.handler_cpu_share":   ratio(handler, cpuNs),
		"ledger.snapshot_cpu_share":  ratio(sum(r.t.snapshotNs), cpuNs),
		"ledger.tracer_cpu_share":    ratio(sum(r.t.computeNs), cpuNs),
		"ledger.commit_cpu_share":    ratio(sum(r.t.commitNs), cpuNs),
	}
	accounted := 0.0
	for name, v := range shares {
		m[name] = v
		accounted += v
	}
	m["ledger.unaccounted_share"] = 1 - accounted

	m["obs.trace_overhead_ratio"] = ratio(ratio(r.reclaimed(), r.windowS), ratio(untraced.reclaimed(), untraced.windowS))
	for name, v := range base {
		m[name] = v
	}
	return m
}
