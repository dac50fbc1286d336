package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"dramdig"
	"dramdig/internal/campaign"
	"dramdig/internal/machine"
)

// The daemon workloads' machine sets. replay_small and cached_serve use
// the paper's five fastest settings so a run holds many samples.
var (
	paperAll   = []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	paperSmall = []int{1, 3, 4, 7, 8}
)

// cycleOut is one closed-loop campaign as the client saw it.
type cycleOut struct {
	turnaround float64 // POST → last verified mapping, seconds
	verified   int
	failed     int
	simS, meas float64
	digest     string            // identifies the mappings and their modelled cost
	recs       map[string]record // verified records by machine fingerprint
}

// digest hashes per-machine results; the same seed must give the same
// digest on every pass, cycle, replay and run.
func digest(lines []string) string {
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cycle runs one campaign against a daemon: POST, the event stream until
// "done", the report, then one GET per job's mapping, each checked by the
// oracle. With traced set, every call gets a client span and a
// traceparent, the daemon's span tree joins under them, and /v1/metrics
// and /v1/healthz are diffed around the campaign into acc.
func (b *bench) cycle(c *client, body []byte, want int, o *oracle, traced bool, acc *layerAcc) cycleOut {
	out := cycleOut{recs: map[string]record{}}
	b.tally.attempted += want
	var tr *trace
	var prom0 map[string]float64
	var store0 storeStats
	if traced {
		prom0, store0 = b.snapshot(c)
		tr = newTrace()
	}
	call := func(name string, fn func(traceparent string) error) error {
		if tr == nil {
			return fn("")
		}
		i := tr.begin(name, tr.spans[0].ID)
		err := fn(tr.traceparent(i))
		tr.end(i)
		return err
	}

	t0 := time.Now()
	if tr != nil {
		tr.begin("turnaround", "")
	}
	var id string
	var rep *reportJSON
	err := call("client.post", func(tp string) (err error) { id, err = c.postCampaign(body, tp); return })
	if err == nil {
		err = call("client.events", func(tp string) error { return c.waitDone(id, tp) })
	}
	if err == nil {
		err = call("client.report", func(tp string) (err error) { rep, err = c.report(id, tp); return })
	}
	if err != nil {
		out.failed = want
		b.tally.fail(want, err)
		return out
	}
	if len(rep.Jobs) != want {
		out.failed += want - len(rep.Jobs)
		b.tally.fail(want-len(rep.Jobs), fmt.Errorf("campaign %s: %d jobs reported, %d requested", id, len(rep.Jobs), want))
	}
	var lines []string
	retries := 0
	for _, j := range rep.Jobs {
		if j.Attempts > 1 {
			retries += j.Attempts - 1
		}
		if !j.OK {
			out.failed++
			b.tally.fail(1, fmt.Errorf("campaign %s: job %s failed: %s", id, j.Name, j.Err))
			continue
		}
		var rb []byte
		err := call("client.mapping_get", func(tp string) (err error) {
			rb, err = c.do("GET", "/v1/mappings/"+j.MachineFingerprint, nil, tp)
			return
		})
		var rec record
		if err == nil {
			rec, err = o.checkRecord(j.MachineFingerprint, rb)
		}
		if err != nil {
			out.failed++
			b.tally.fail(1, err)
			continue
		}
		out.verified++
		out.recs[j.MachineFingerprint] = rec
		out.simS += rec.SimSeconds
		out.meas += float64(rec.Measurements)
		lines = append(lines, fmt.Sprintf("%s %s %v %d", rec.Machine, rec.MappingFingerprint, rec.SimSeconds, rec.Measurements))
	}
	out.turnaround = time.Since(t0).Seconds()
	out.digest = digest(lines)
	if tr == nil {
		return out
	}
	tr.end(0)

	prom1, store1 := b.snapshot(c)
	acc.counts["queue.fsyncs"] += promDelta(prom0, prom1, "dramdig_wal_fsync_seconds_count")
	acc.counts["queue.fsync_s"] += promDelta(prom0, prom1, "dramdig_wal_fsync_seconds_sum")
	acc.counts["campaign.checkpoint_s"] += promDelta(prom0, prom1, "dramdig_campaign_checkpoint_seconds_sum")
	acc.counts["campaign.retries"] += float64(retries)
	acc.counts["store.hits"] += float64(store1.Hits - store0.Hits)
	acc.counts["store.misses"] += float64(store1.Misses - store0.Misses)
	sb, err := c.do("GET", "/v1/campaigns/"+id+"/spans", nil, "")
	var tree struct {
		Spans []*treeNode `json:"spans"`
	}
	if err == nil {
		err = json.Unmarshal(sb, &tree)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: campaign %s spans: %v\n", id, err)
	}
	tr.spans = flattenTree(tree.Spans, tr.spans)
	acc.addTrace(tr)
	acc.campaigns++
	acc.machines += want
	b.traces = append(b.traces, tr)
	return out
}

type storeStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// snapshot reads the daemon's metrics page and store statistics. A
// failed read yields empty values: per-layer counters are diagnostics,
// never a correctness check.
func (b *bench) snapshot(c *client) (map[string]float64, storeStats) {
	var st storeStats
	pb, err := c.do("GET", "/v1/metrics", nil, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: /v1/metrics:", err)
	}
	hb, err := c.do("GET", "/v1/healthz", nil, "")
	var h struct {
		Store storeStats `json:"store"`
	}
	if err == nil && json.Unmarshal(hb, &h) == nil {
		st = h.Store
	}
	return promSamples(string(pb)), st
}

// paperFresh maps the paper's nine settings on a fresh daemon per pass,
// as a researcher would: every job computes and writes the store.
func (b *bench) paperFresh() error {
	o, err := newOracle(paperAll, b.seed)
	if err != nil {
		return err
	}
	body := []byte(fmt.Sprintf(`{"machines":[-1],"seed":%d,"workers":1}`, b.seed))
	var boots, turn, rss []float64
	var cpuS, simPer, measPer float64
	mappings := 0
	ref := ""
	var refRecs map[string]record
	// Set-up: boots alone, before the passes, so that the median boot
	// rests on many samples.
	for k := 0; k < bootRepeats; k++ {
		d, boot, err := b.boot()
		if err != nil {
			return err
		}
		if err := d.stop(false); err != nil {
			b.keep = true
			return fmt.Errorf("dramdigd exit: %v\n%s", err, d.stderrTail(20))
		}
		boots = append(boots, boot.Seconds())
	}
	acc := newLayerAcc()
	start := time.Now()
	for pass := 0; b.more(pass, start); pass++ {
		traced := b.traced && pass%2 == 1
		d, boot, err := b.boot()
		if err != nil {
			return err
		}
		cpu0, cerr0 := procCPUSeconds(d.pid())
		c := newClient(d.base)
		cr := b.cycle(c, body, len(paperAll), o, traced, acc)
		cpu1, cerr1 := procCPUSeconds(d.pid())
		hwm, herr := procPeakRSSMiB(d.pid())
		c.close()
		if err := b.finish(d, cr); err != nil {
			return err
		}
		if cr.failed == 0 {
			if ref == "" {
				ref, refRecs = cr.digest, cr.recs
				simPer, measPer = cr.simS/float64(cr.verified), cr.meas/float64(cr.verified)
			} else if cr.digest != ref {
				b.tally.fail(1, fmt.Errorf("pass %d: results differ from pass 0 under one seed (digest %s, want %s)", pass, cr.digest, ref))
			}
		}
		if traced {
			continue
		}
		if cerr0 != nil || cerr1 != nil || herr != nil {
			return fmt.Errorf("reading daemon /proc: %v %v %v", cerr0, cerr1, herr)
		}
		boots = append(boots, boot.Seconds())
		turn = append(turn, cr.turnaround)
		rss = append(rss, hwm*1024*1024/1e6)
		cpuS += cpu1 - cpu0
		mappings += cr.verified
	}
	loopS := time.Since(start).Seconds()
	fmt.Fprintf(b.out, "determinism_digest %s\n", ref)
	if !b.traced {
		b.endToEnd(boots, turn, mappings, loopS, cpuS, simPer, measPer, rss)
		return nil
	}
	live, err := b.livePass(o, refRecs)
	if err != nil {
		return err
	}
	return b.layerReport(acc, turn, live)
}

// boot starts a daemon for this run. On failure it keeps the run's state
// and returns the daemon's last stderr lines with the error.
func (b *bench) boot() (*daemon, time.Duration, error) {
	d, boot, err := startDaemon(b.daemon, b.dir)
	if err != nil {
		b.keep = true
		if d != nil {
			d.stop(true)
			return nil, 0, fmt.Errorf("%w\n%s", err, d.stderrTail(20))
		}
		return nil, 0, err
	}
	return d, boot, nil
}

// more reports whether a measured loop goes on to turnaround i: for the
// run's length and at least once, or twice when traced, so that a traced
// run measures both a traced and an untraced turnaround.
func (b *bench) more(i int, start time.Time) bool {
	least := 1
	if b.traced {
		least = 2
	}
	return i < least || time.Since(start) < b.dur
}

// finish stops a daemon after a cycle, keeping its state and printing its
// stderr when the cycle failed.
func (b *bench) finish(d *daemon, cr cycleOut) error {
	failed := cr.failed > 0
	if failed {
		b.keep = true
		fmt.Fprintf(os.Stderr, "perfbench: dramdigd stderr (kept in %s):\n%s\n", d.dir, d.stderrTail(20))
	}
	if err := d.stop(failed); err != nil {
		b.keep = true
		return fmt.Errorf("dramdigd exit: %v\n%s", err, d.stderrTail(20))
	}
	return nil
}

// livePass repeats paper_fresh's nine jobs in-process through
// machine.New and the engine, with the source wrapper splitting the
// simulator's time from the tool's. The daemon runs a campaign's i-th job
// under tool seed S + i*7919 (internal/campaign), so the pass does too,
// and each result must cost exactly what daemon, the records a pass
// served by machine fingerprint, says that job cost: the split then
// describes the daemon's own jobs.
func (b *bench) livePass(o *oracle, daemon map[string]record) (*inproc, error) {
	lv := &inproc{}
	t0 := time.Now()
	for i, spec := range campaign.PaperSpecs(b.seed) {
		b.tally.attempted++
		bt := time.Now()
		m, err := machine.New(spec.Def, spec.Seed)
		if err != nil {
			return nil, err
		}
		lv.buildS += time.Since(bt).Seconds()
		tr := newTrace()
		root := tr.begin("live_pass", "")
		res, c, err := runTimed(context.Background(), dramdig.LiveSource(m), tr, tr.spans[root].ID, "memctrl.measure_pair",
			dramdig.WithSeed(b.seed+int64(i)*7919))
		tr.end(root)
		b.traces = append(b.traces, tr)
		fp := spec.MachineFingerprint()
		if err == nil {
			err = o.checkMapping(fp, res.Mapping)
		}
		if rec := daemon[fp]; err == nil && (res.Measurements != rec.Measurements || res.TotalSimSeconds != rec.SimSeconds) {
			err = fmt.Errorf("%d measurements / %v sim s, the daemon's job %d / %v",
				res.Measurements, res.TotalSimSeconds, rec.Measurements, rec.SimSeconds)
		}
		if err != nil {
			b.tally.fail(1, fmt.Errorf("in-process %s: %w", spec.Name, err))
			continue
		}
		runS := float64(tr.spans[1].dur()) / 1e9 // the "engine.run" span
		openS := float64(c.openEnd-c.openStart) / 1e9
		pairS := float64(c.pairNs) / 1e9
		lv.machines++
		lv.openS += openS
		lv.pairS += pairS
		lv.pairs += float64(c.pairs)
		lv.toolSelfS += runS - openS - pairS
	}
	lv.wallS = time.Since(t0).Seconds()
	fmt.Fprintf(b.out, "in-process pass: %d machines in %.4g s; machine.New %.4g s, MeasurePair %.4g s over %.0f calls\n",
		lv.machines, lv.wallS, lv.buildS, lv.pairS, lv.pairs)
	return lv, nil
}

// cachedServe repeats one campaign against a warmed daemon: every job is
// a store hit, so the engine idles and the service layers do the work.
func (b *bench) cachedServe() error {
	o, err := newOracle(paperSmall, b.seed)
	if err != nil {
		return err
	}
	body := []byte(fmt.Sprintf(`{"machines":[1,3,4,7,8],"seed":%d}`, b.seed))
	var setups []float64
	var d *daemon
	var c *client
	var warm cycleOut
	for k := 0; k < setupRepeats; k++ {
		if d != nil {
			c.close()
			if err := d.stop(false); err != nil {
				return fmt.Errorf("dramdigd exit: %v", err)
			}
		}
		t0 := time.Now()
		var err error
		if d, _, err = b.boot(); err != nil {
			return err
		}
		c = newClient(d.base)
		w := b.cycle(c, body, len(paperSmall), o, false, nil)
		setups = append(setups, time.Since(t0).Seconds())
		if w.failed > 0 {
			b.finish(d, w)
			return fmt.Errorf("warm-up campaign failed")
		}
		if k > 0 && w.digest != warm.digest {
			b.tally.fail(1, fmt.Errorf("warm-up %d: results differ under one seed", k))
		}
		warm = w
	}
	cpu0, err := procCPUSeconds(d.pid())
	if err == nil {
		err = resetPeakRSS(d.pid())
	}
	if err != nil {
		c.close()
		d.stop(false)
		return err
	}
	acc := newLayerAcc()
	var turn []float64
	mappings, failed := 0, 0
	start := time.Now()
	for i := 0; b.more(i, start); i++ {
		traced := b.traced && i%2 == 1
		cr := b.cycle(c, body, len(paperSmall), o, traced, acc)
		failed += cr.failed
		if cr.failed == 0 && cr.digest != warm.digest {
			b.tally.fail(1, fmt.Errorf("cycle %d: results differ from the warm-up's", i))
		}
		if traced {
			continue
		}
		turn = append(turn, cr.turnaround)
		mappings += cr.verified
	}
	loopS := time.Since(start).Seconds()
	cpu1, err1 := procCPUSeconds(d.pid())
	hwm, err2 := procPeakRSSMiB(d.pid())
	c.close()
	if err := b.finish(d, cycleOut{failed: failed}); err != nil {
		return err
	}
	if err1 != nil || err2 != nil {
		return fmt.Errorf("reading daemon /proc: %v %v", err1, err2)
	}
	fmt.Fprintf(b.out, "determinism_digest %s\n", warm.digest)
	if b.traced {
		return b.layerReport(acc, turn, nil)
	}
	n := float64(warm.verified)
	b.endToEnd(setups, turn, mappings, loopS, cpu1-cpu0, warm.simS/n, warm.meas/n, []float64{hwm * 1024 * 1024 / 1e6})
	return nil
}

// recording is one live run captured for replay.
type recording struct {
	name      string
	machineFP string
	t         *dramdig.Trace
	mapping   *dramdig.Mapping
	mappingFP string
	simS      float64
	meas      uint64
}

// recordTraces maps each setting live through the facade while capturing its
// timing channel, then decodes the capture, as `tracectl record` does.
func recordTraces(nos []int, seed int64) ([]recording, string, error) {
	var recs []recording
	h := sha256.New()
	for _, no := range nos {
		spec, err := campaign.PaperSpec(no, seed)
		if err != nil {
			return nil, "", err
		}
		m, err := dramdig.NewCustomMachine(spec.Def, spec.Seed)
		if err != nil {
			return nil, "", err
		}
		var buf bytes.Buffer
		res, err := dramdig.Run(context.Background(), dramdig.LiveSource(m), dramdig.WithTraceSink(&buf))
		if err != nil {
			return nil, "", fmt.Errorf("recording %s: %w", spec.Name, err)
		}
		h.Write(buf.Bytes())
		t, err := dramdig.DecodeTrace(&buf)
		if err != nil {
			return nil, "", fmt.Errorf("decoding %s: %w", spec.Name, err)
		}
		recs = append(recs, recording{
			name: spec.Name, machineFP: t.Header.Machine.Fingerprint, t: t,
			mapping: res.Mapping, mappingFP: res.Mapping.Fingerprint(), simS: res.TotalSimSeconds, meas: res.Measurements,
		})
	}
	return recs, hex.EncodeToString(h.Sum(nil))[:16], nil
}

// verifyReplay checks a replay against ground truth and against the
// recording: a strict replay must reproduce the recorded run exactly.
func verifyReplay(o *oracle, r recording, res *dramdig.Result, err error) error {
	if err != nil {
		return fmt.Errorf("replay %s: %w", r.name, err)
	}
	if err := o.checkMapping(r.machineFP, res.Mapping); err != nil {
		return fmt.Errorf("replay %s: %w", r.name, err)
	}
	if fp := res.Mapping.Fingerprint(); fp != r.mappingFP {
		return fmt.Errorf("replay %s: mapping %s, recording %s", r.name, fp, r.mappingFP)
	}
	if res.Measurements != r.meas || res.TotalSimSeconds != r.simS {
		return fmt.Errorf("replay %s: %d measurements / %v sim s, recording %d / %v",
			r.name, res.Measurements, res.TotalSimSeconds, r.meas, r.simS)
	}
	return nil
}

// replaySmall replays recorded traces in-process on one goroutine, round
// robin, the `tracectl replay` path: no simulator, no daemon.
func (b *bench) replaySmall() error {
	o, err := newOracle(paperSmall, b.seed)
	if err != nil {
		return err
	}
	var setups []float64
	var recs []recording
	ref := ""
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		rs, h, err := recordTraces(paperSmall, b.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if ref != "" && h != ref {
			b.tally.fail(1, fmt.Errorf("set-up %d: recordings differ under one seed", k))
		}
		ref, recs = h, rs
	}
	for _, r := range recs {
		b.tally.attempted++
		if err := o.checkMapping(r.machineFP, r.mapping); err != nil {
			b.tally.fail(1, fmt.Errorf("recording %s: %w", r.name, err))
		}
	}
	fmt.Fprintf(b.out, "determinism_digest %s\n", ref)

	// The peak covers the measured phase only, not the recordings.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(os.Getpid()); err != nil {
		return err
	}
	cpu0, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return err
	}
	ctx := context.Background()
	acc := newLayerAcc()
	var turn []float64
	mappings := 0
	start := time.Now()
	for i := 0; b.more(i, start); i++ {
		r := recs[i%len(recs)]
		b.tally.attempted++
		src := dramdig.TraceSource(r.t, dramdig.ReplayStrict)
		if b.traced && i%2 == 1 {
			tr := newTrace()
			tr.begin("turnaround", "")
			res, _, err := runTimed(ctx, src, tr, tr.spans[0].ID, "trace.replay_pair")
			err = verifyReplay(o, r, res, err)
			tr.end(0)
			if err != nil {
				b.tally.fail(1, err)
				continue
			}
			acc.addTrace(tr)
			acc.machines++
			b.traces = append(b.traces, tr)
			continue
		}
		t0 := time.Now()
		res, err := dramdig.Run(ctx, src)
		err = verifyReplay(o, r, res, err)
		d := time.Since(t0).Seconds()
		if err != nil {
			b.tally.fail(1, err)
			continue
		}
		turn = append(turn, d)
		mappings++
	}
	loopS := time.Since(start).Seconds()
	cpu1, err1 := procCPUSeconds(os.Getpid())
	hwm, err2 := procPeakRSSMiB(os.Getpid())
	if err1 != nil || err2 != nil {
		return fmt.Errorf("reading /proc/self: %v %v", err1, err2)
	}
	if b.traced {
		return b.layerReport(acc, turn, nil)
	}
	// Every replay was checked to reproduce its recording's cost exactly,
	// so the recordings give the modelled means, each setting weighing
	// the same whatever the number of replays.
	var simPer, measPer float64
	for _, r := range recs {
		simPer += r.simS / float64(len(recs))
		measPer += float64(r.meas) / float64(len(recs))
	}
	b.endToEnd(setups, turn, mappings, loopS, cpu1-cpu0, simPer, measPer, []float64{hwm * 1024 * 1024 / 1e6})
	return nil
}
