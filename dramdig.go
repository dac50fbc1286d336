// Package dramdig is the public API of the DRAMDig reproduction: a
// knowledge-assisted tool that reverse-engineers DRAM address mappings
// (bank XOR functions, row bits, column bits) through the row-buffer
// timing side channel, together with the simulated-hardware substrate it
// runs on, the DRAMA / Xiao / Seaborn baselines it is compared against,
// and a double-sided rowhammer test driver.
//
// Reproduces: Wang, Zhang, Cheng, Nepal — "DRAMDig: A Knowledge-assisted
// Tool to Uncover DRAM Address Mapping", DAC 2020 (arXiv:2004.02354).
//
// # Quick start
//
//	m, _ := dramdig.NewMachine(1, 42)       // the paper's setting No.1
//	res, _ := dramdig.Run(ctx, dramdig.LiveSource(m))
//	fmt.Println(res.Mapping)                // bank funcs, row bits, col bits
//
// # Architecture
//
// The public API is built around two concepts:
//
//   - a Source — anything that yields timing measurements plus machine
//     identity: a live simulated machine (LiveSource), a recorded trace
//     replayed fully offline (TraceSource), or a perturbed recording
//     (PerturbedSource);
//   - an Engine — one Run(ctx, src, ...EngineOption) call executing the
//     DRAMDig pipeline against any source, tuned by functional options
//     (WithSeed, WithLogger, WithTraceSink, WithProgress, WithConfig).
//
// The context is threaded through every measurement loop, so
// cancellation and deadlines abort runs promptly; the same holds for
// campaigns (RunCampaign) and the rowhammer driver. MIGRATION.md maps
// the removed ReverseEngineer, RecordTrace and ReplayTrace entry points
// onto Run.
//
// Underneath, the facade re-exports the stable surface of the internal
// packages:
//
//   - internal/source, internal/engine — the Source/Engine pair above;
//   - internal/machine — nine simulated machine settings (Table II ground
//     truth) plus custom machine construction;
//   - internal/core — the DRAMDig pipeline (coarse detection, Algorithms
//     1–3, fine-grained shared-bit detection);
//   - internal/mapping — the address-mapping model (decode/encode,
//     equivalence, the paper's notation);
//   - internal/rowhammer — mapping-guided double-sided rowhammer tests;
//   - internal/drama, internal/xiao, internal/seaborn — baselines;
//   - internal/eval — regeneration of every table and figure;
//   - internal/campaign — concurrent multi-machine campaigns: a worker
//     pool fanning jobs across GOMAXPROCS with retries, progress events
//     and aggregated reports; jobs run over any Source, so campaigns
//     replay recorded traces as readily as live machines;
//   - internal/store — a content-addressed result cache (in-memory LRU
//     over one segment keyspace, on disk or in memory, single-flight
//     deduplication) keyed by machine fingerprints, holding recorded
//     traces alongside the results;
//   - internal/trace — timing-channel capture and offline replay: record
//     any run's MeasurePair stream, replay it bit-identically with zero
//     simulation, or perturb it through composable noise models;
//   - cmd/dramdigd — the HTTP daemon serving the versioned /v1 JSON API:
//     campaigns with SSE progress streaming, pagination, cached mappings
//     and recorded traces.
package dramdig

import (
	"context"
	"io"

	"dramdig/internal/campaign"
	"dramdig/internal/core"
	"dramdig/internal/dram"
	"dramdig/internal/eval"
	"dramdig/internal/machine"
	"dramdig/internal/mapping"
	"dramdig/internal/rowhammer"
	"dramdig/internal/trace"
)

// Machine is a simulated test machine (re-exported).
type Machine = machine.Machine

// MachineDefinition declares a machine setting (re-exported).
type MachineDefinition = machine.Definition

// Mapping is a DRAM address mapping (re-exported).
type Mapping = mapping.Mapping

// DRAMAddr is a decoded (bank, row, column) tuple (re-exported).
type DRAMAddr = mapping.DRAMAddr

// Result is a DRAMDig run outcome (re-exported).
type Result = core.Result

// Flip is an induced rowhammer bit flip (re-exported).
type Flip = dram.Flip

// NewMachine builds one of the paper's nine machine settings (no = 1…9).
// The seed fixes the allocation layout, noise stream and weak-cell
// population.
func NewMachine(no int, seed int64) (*Machine, error) {
	return machine.NewByNo(no, seed)
}

// NewCustomMachine builds a machine from a definition, for experimenting
// with configurations beyond the paper's nine.
func NewCustomMachine(def MachineDefinition, seed int64) (*Machine, error) {
	return machine.New(def, seed)
}

// Settings returns the paper's nine machine definitions.
func Settings() []MachineDefinition { return machine.Settings() }

// HammerConfig tunes a rowhammer assessment (re-exported): its mode,
// the many-sided aggressor count, the session length and the seed. The
// activations per aggressor and the per-victim flip-scan cost are
// constants.
type HammerConfig = rowhammer.Config

// Hammering modes (re-exported).
const (
	// DoubleSided is the paper's Table III methodology.
	DoubleSided = rowhammer.DoubleSided
	// OneLocation needs no mapping but only disturbs closed-page
	// machines.
	OneLocation = rowhammer.OneLocation
	// ManySided dilutes DDR4 TRR samplers (TRRespass-style).
	ManySided = rowhammer.ManySided
)

// HammerResult is a rowhammer session outcome (re-exported).
type HammerResult = rowhammer.Result

// Hammer runs one double-sided rowhammer session against the machine
// using the given mapping (typically an Engine.Run result). It is
// HammerContext with a background context.
func Hammer(m *Machine, mp *Mapping, cfg HammerConfig) (HammerResult, error) {
	return HammerContext(context.Background(), m, mp, cfg)
}

// HammerContext is Hammer under a context: the hammer loop polls it per
// victim, so cancellation returns promptly with the flips induced so
// far and the context's error.
func HammerContext(ctx context.Context, m *Machine, mp *Mapping, cfg HammerConfig) (HammerResult, error) {
	sess, err := rowhammer.NewSession(m, rowhammer.FromMapping(mp), cfg)
	if err != nil {
		return HammerResult{}, err
	}
	return sess.RunContext(ctx)
}

// CampaignSpec is one campaign job (re-exported).
type CampaignSpec = campaign.Spec

// CampaignConfig tunes a campaign run (re-exported).
type CampaignConfig = campaign.Config

// CampaignEvent is a campaign progress notification (re-exported).
type CampaignEvent = campaign.Event

// CampaignReport aggregates a campaign's outcomes (re-exported).
type CampaignReport = campaign.Report

// CampaignJob is one job's outcome inside a report (re-exported).
type CampaignJob = campaign.JobResult

// PaperCampaign returns campaign jobs for the paper's nine Table II
// settings.
func PaperCampaign(seed int64) []CampaignSpec { return campaign.PaperSpecs(seed) }

// GeneratedCampaign returns n campaign jobs over randomly generated
// Intel-plausible machines.
func GeneratedCampaign(n int, seed int64) ([]CampaignSpec, error) {
	return campaign.GeneratedSpecs(n, seed)
}

// RunCampaign fans the specs across a worker pool and aggregates the
// results; see CampaignConfig for concurrency, retry and event options.
func RunCampaign(ctx context.Context, specs []CampaignSpec, cfg CampaignConfig) (*CampaignReport, error) {
	return campaign.Run(ctx, specs, cfg)
}

// Trace is a recorded timing channel (re-exported).
type Trace = trace.Trace

// TraceHeader is a trace's versioned preamble (re-exported).
type TraceHeader = trace.Header

// TraceSample is one recorded MeasurePair call (re-exported).
type TraceSample = trace.Sample

// Replay modes (re-exported).
const (
	// ReplayStrict re-serves samples in recorded order and errors on any
	// divergence — bit-identical offline reruns.
	ReplayStrict = trace.Strict
	// ReplayKeyed serves samples by (pair, rounds) lookup — robust to
	// reordered or repeated queries, e.g. under perturbation.
	ReplayKeyed = trace.Keyed
)

// DecodeTrace reads a recorded trace (see WithTraceSink); replay it
// offline with Run over a TraceSource.
func DecodeTrace(r io.Reader) (*Trace, error) { return trace.Decode(r) }

// TraceNoise is a composable trace noise model (re-exported).
type TraceNoise = trace.Noise

// TraceJitter adds zero-mean Gaussian latency noise (re-exported).
type TraceJitter = trace.Jitter

// TraceOutliers injects latency spike bursts (re-exported).
type TraceOutliers = trace.Outliers

// TraceSqueeze contracts the threshold-region separation (re-exported).
type TraceSqueeze = trace.Squeeze

// PerturbTrace applies noise models to a recorded trace in order, each
// with a deterministic rng derived from seed, and returns a new trace
// whose header note records the chain.
func PerturbTrace(t *Trace, seed int64, models ...TraceNoise) *Trace {
	return trace.Perturb(t, seed, models...)
}

// ExperimentOptions configures experiment regeneration (re-exported).
type ExperimentOptions = eval.Options

// Experiments groups the evaluation entry points regenerating the
// paper's artefacts.
var Experiments = struct {
	Table1  func(eval.Options) ([]eval.Table1Row, error)
	Table2  func(eval.Options) ([]eval.Table2Row, error)
	Figure2 func(eval.Options) ([]eval.Fig2Row, error)
	Table3  func(eval.Options) ([]eval.Table3Row, error)
}{
	Table1:  eval.Table1,
	Table2:  eval.Table2,
	Figure2: eval.Figure2,
	Table3:  eval.Table3,
}
