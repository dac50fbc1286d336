package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

var phases = []string{"calibrate", "coarse", "partition", "resolve", "fine"}

// layerOf names the layer a span's self time belongs to. Client spans
// join the server layer they call: the harness side of an HTTP call is
// part of what that layer costs its user.
func layerOf(name string) string {
	switch name {
	case "client.post", "POST /v1/campaigns":
		return "dramdigd.post"
	case "client.events", "GET /v1/campaigns/{id}/events":
		return "dramdigd.events"
	case "client.report", "GET /v1/campaigns/{id}":
		return "dramdigd.report"
	case "client.mapping_get", "GET /v1/mappings/{fingerprint}":
		return "dramdigd.mapping_get"
	case "scheduler.dispatch":
		return "dramdigd.dispatch"
	case "campaign.job":
		return "campaign.job_self"
	case "queue.submit", "queue.wait", "campaign.run", "store.read", "store.persist",
		"source.open", "memctrl.measure_pair", "trace.replay_pair":
		return name
	case "engine.run":
		return "engine.run_self"
	}
	if p, ok := strings.CutPrefix(name, "engine."); ok {
		return "engine." + p + "_self"
	}
	return "unattributed"
}

// group is the share a layer's self time is reported under.
func group(layer string) string {
	g, _, _ := strings.Cut(layer, ".")
	switch g {
	case "dramdigd", "queue", "campaign", "store", "engine", "memctrl", "trace":
		return g
	case "source":
		return "machine"
	}
	return "unattributed"
}

// layerAcc accumulates a workload's traced turnarounds.
type layerAcc struct {
	turnarounds int
	campaigns   int
	machines    int
	self        map[string]float64 // layer → attributed seconds
	dur         map[string]float64 // span name → summed duration, seconds
	counts      map[string]float64 // named totals: fsyncs, retries, measurements, …
	unknown     map[string]bool    // span names with no layer
	turnaround  []float64          // traced turnaround samples, seconds
}

func newLayerAcc() *layerAcc {
	return &layerAcc{
		self: map[string]float64{}, dur: map[string]float64{},
		counts: map[string]float64{}, unknown: map[string]bool{},
	}
}

// addTrace attributes one turnaround's spans. The root span, named
// "turnaround", covers the request to the last verified mapping; its own
// self time is what no layer claims.
func (a *layerAcc) addTrace(t *trace) {
	a.turnarounds++
	self := selfTimes(t.spans)
	for _, s := range t.spans {
		l := layerOf(s.Name)
		if l == "unattributed" && s.Name != "turnaround" {
			a.unknown[s.Name] = true
		}
		a.self[l] += float64(self[s.ID]) / 1e9
		a.dur[s.Name] += float64(s.dur()) / 1e9
		if p, ok := strings.CutPrefix(s.Name, "engine."); ok && p != "run" {
			m, _ := strconv.ParseFloat(s.Attrs["measurements"], 64)
			sim, _ := strconv.ParseFloat(s.Attrs["sim_s"], 64)
			a.counts["engine."+p+"_measurements"] += m
			a.counts["engine."+p+"_sim_s"] += sim
		}
		if s.Name == "turnaround" {
			a.turnaround = append(a.turnaround, float64(s.dur())/1e9)
		}
	}
}

// inproc is the simulator split measured by the harness's source
// wrapper over live machines (paper_fresh's in-process pass).
type inproc struct {
	machines  int
	buildS    float64 // machine.New
	openS     float64
	pairS     float64
	pairs     float64
	toolSelfS float64
	wallS     float64
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the accumulated traces into the per-layer metrics,
// normalised per campaign or per machine. untracedP50 is the same run's
// untraced turnaround median, the base of the tracing overhead. live,
// when set, supplies the simulator split.
func (a *layerAcc) layerMetrics(untracedP50 float64, live *inproc) []metric {
	perC := func(v float64) float64 { return div(v, float64(a.campaigns)) }
	perM := func(v float64) float64 { return div(v, float64(a.machines)) }
	perT := func(v float64) float64 { return div(v, float64(a.turnarounds)) }
	var ms []metric
	add := func(name, unit string, v float64) { ms = append(ms, metric{name: name, unit: unit, value: v}) }

	add("dramdigd.post_s", "s/campaign", perC(a.self["dramdigd.post"]))
	add("dramdigd.events_s", "s/campaign", perC(a.self["dramdigd.events"]))
	add("dramdigd.report_s", "s/campaign", perC(a.self["dramdigd.report"]))
	add("dramdigd.mapping_get_s", "s/machine", perM(a.self["dramdigd.mapping_get"]))
	add("dramdigd.dispatch_s", "s/campaign", perC(a.self["dramdigd.dispatch"]))
	add("queue.submit_s", "s/campaign", perC(a.self["queue.submit"]))
	add("queue.wait_s", "s/campaign", perC(a.self["queue.wait"]))
	add("queue.fsyncs", "count/campaign", perC(a.counts["queue.fsyncs"]))
	add("queue.fsync_s", "s/campaign", perC(a.counts["queue.fsync_s"]))
	add("campaign.run_s", "s/campaign", perC(a.self["campaign.run"]))
	add("campaign.job_self_s", "s/machine", perM(a.self["campaign.job_self"]))
	add("campaign.checkpoint_s", "s/campaign", perC(a.counts["campaign.checkpoint_s"]))
	add("campaign.retries", "count/campaign", perC(a.counts["campaign.retries"]))
	add("store.read_s", "s/machine", perM(a.self["store.read"]))
	add("store.persist_s", "s/machine", perM(a.self["store.persist"]))
	add("store.hit_ratio", "ratio", div(a.counts["store.hits"], a.counts["store.hits"]+a.counts["store.misses"]))

	lv := inproc{}
	if live != nil {
		lv = *live
	}
	add("machine.build_s", "s/machine", div(lv.buildS, float64(lv.machines)))
	openS := perM(a.self["source.open"])
	if live != nil {
		openS = div(lv.openS, float64(lv.machines))
	}
	add("source.open_s", "s/machine", openS)

	for _, p := range phases {
		add("engine."+p+"_s", "s/machine", perM(a.dur["engine."+p]))
		add("engine."+p+"_measurements", "count/machine", perM(a.counts["engine."+p+"_measurements"]))
		add("engine."+p+"_sim_s", "sim_s/machine", perM(a.counts["engine."+p+"_sim_s"]))
	}
	engineSelf := 0.0
	for l, v := range a.self {
		if group(l) == "engine" {
			engineSelf += v
		}
	}
	toolSelf := perM(engineSelf)
	if live != nil {
		toolSelf = div(lv.toolSelfS, float64(lv.machines))
	}
	add("engine.tool_self_s", "s/machine", toolSelf)
	add("memctrl.measure_pair_s", "s/machine", div(lv.pairS, float64(lv.machines)))
	add("memctrl.measure_pair_ns", "ns/call", div(lv.pairS*1e9, lv.pairs))
	add("trace.replay_pair_s", "s/machine", perM(a.self["trace.replay_pair"]))

	tracedP50 := median(a.turnaround)
	add("trace_overhead_ratio", "ratio", div(tracedP50, untracedP50)-1)
	add("unattributed_s", "s/turnaround", perT(a.self["unattributed"]))

	// Shares of the traced turnaround, so that they add up to one. On the
	// daemon path the simulator and machine construction run inside
	// engine phases and campaign jobs; the in-process pass, when given,
	// splits them out. It repeats the daemon's jobs with their tool seeds
	// and was checked to cost what they cost, so its per-machine times
	// stand for theirs.
	share := map[string]float64{}
	for l, v := range a.self {
		share[group(l)] += v
	}
	if live != nil {
		sim := float64(a.machines) * div(lv.pairS, float64(lv.machines))
		// machine.New runs inside the daemon's campaign.job, so it cannot
		// have taken longer than the job's self time.
		build := min(float64(a.machines)*div(lv.buildS, float64(lv.machines)), a.self["campaign.job_self"])
		share["memctrl"] += sim
		share["engine"] -= sim
		share["machine"] += build
		share["campaign"] -= build
	}
	for _, g := range shareGroups {
		add("share."+g, "ratio", div(share[g], sum(a.turnaround)))
	}
	return ms
}

var shareGroups = []string{"dramdigd", "queue", "campaign", "store", "machine", "engine", "memctrl", "trace", "unattributed"}

// prediction is one "should move" row of the layer table, checked on the
// traced run as the layer's share of the workload's turnaround: a layer
// that should move a workload's turnaround must take a visible share of
// it, and one that should not must take next to none.
type prediction struct {
	workload string
	metric   string
	visible  bool
	limit    float64
	text     string
}

var predictions = []prediction{
	{"cached_serve", "share.dramdigd", true, 0.05, "dramdigd (HTTP/JSON, SSE, scheduler) moves turnaround on cached_serve"},
	{"paper_fresh", "share.dramdigd", false, 0.01, "dramdigd is not visible on paper_fresh"},
	{"cached_serve", "share.queue", true, 0.05, "queue moves turnaround and machines_per_s on cached_serve"},
	{"cached_serve", "share.campaign", true, 0.05, "campaign moves turnaround and cpu_s_per_machine on cached_serve"},
	{"paper_fresh", "campaign.retries", false, 1e-9, "campaign.retries is 0 on paper_fresh, guarding error_ratio"},
	{"cached_serve", "share.store", true, 0.01, "store reads are visible on cached_serve"},
	{"paper_fresh", "persist_share", false, 0.01, "store persist is about 0 on paper_fresh"},
	{"replay_small", "share.machine", true, 0.05, "source.open (surface rebuild) moves turnaround on replay_small"},
	{"paper_fresh", "share.machine", true, 0.05, "machine.build moves machines_per_s on paper_fresh"},
	{"paper_fresh", "share.engine", true, 0.05, "engine tool logic is visible on paper_fresh"},
	{"replay_small", "share.engine", true, 0.05, "engine tool logic is visible on replay_small"},
	{"paper_fresh", "resolve_share", true, 0.05, "engine.resolve moves paper_fresh"},
	{"replay_small", "resolve_share", false, 0.05, "engine.resolve is about 0 on replay_small (<5%)"},
	{"paper_fresh", "share.memctrl", true, 0.05, "the simulator moves machines_per_s and turnaround on paper_fresh"},
	{"replay_small", "memctrl.measure_pair_s", false, 1e-12, "the simulator is not on replay_small's path"},
	{"cached_serve", "memctrl.measure_pair_s", false, 1e-12, "the simulator is not on cached_serve's path"},
	{"replay_small", "share.trace", true, 0.01, "trace replay is visible on replay_small"},
	{"cached_serve", "share.engine", false, 0.01, "the engine is idle on cached_serve"},
}

// checkPredictions prints whether each prediction for workload held on
// this traced run, given the traced mean turnaround and the mappings each
// turnaround delivers. A refuted prediction is reported, never dropped.
func checkPredictions(w io.Writer, workload string, ms []metric, turnaround, machines float64) {
	val := map[string]float64{}
	for _, m := range ms {
		val[m.name] = m.value
	}
	val["resolve_share"] = div(val["engine.resolve_s"]*machines, turnaround)
	val["persist_share"] = div(val["store.persist_s"]*machines, turnaround)
	for _, p := range predictions {
		if p.workload != workload {
			continue
		}
		v := val[p.metric]
		held := v < p.limit
		rel := "<"
		if p.visible {
			held, rel = v >= p.limit, ">="
		}
		verdict := "held"
		if !held {
			verdict = "REFUTED"
		}
		fmt.Fprintf(w, "prediction %-8s %s: %s = %.4g (want %s %.4g)\n", verdict, p.text, p.metric, v, rel, p.limit)
	}
}

func sortedKeys(m map[string]bool) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
