package dramdig

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// TestFacadeQuickstart exercises the README's quick-start path.
func TestFacadeQuickstart(t *testing.T) {
	m, err := NewMachine(1, 2024)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	res, err := Run(context.Background(), LiveSource(m), WithSeed(7), WithLogger(&log))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mapping.EquivalentTo(m.Truth()) {
		t.Errorf("recovered %s, want %s", res.Mapping, m.Truth())
	}
	if !strings.Contains(log.String(), "bank functions") {
		t.Error("progress log empty")
	}
}

func TestFacadeSettings(t *testing.T) {
	s := Settings()
	if len(s) != 9 {
		t.Fatalf("%d settings, want 9", len(s))
	}
	if s[0].Name != "No.1" || s[8].Name != "No.9" {
		t.Error("settings misordered")
	}
}

func TestFacadeHammer(t *testing.T) {
	m, err := NewMachine(2, 77)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Hammer(m, m.Truth(), HammerConfig{Seed: 1, BudgetSimSeconds: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flips == 0 {
		t.Error("no flips on the vulnerable No.2")
	}
}

func TestFacadeCustomMachine(t *testing.T) {
	def := Settings()[3] // No.4
	def.Name = "clone"
	m, err := NewCustomMachine(def, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "clone" {
		t.Errorf("name = %s", m.Name())
	}
}

func TestFacadeBadMachine(t *testing.T) {
	if _, err := NewMachine(17, 1); err == nil {
		t.Error("invalid setting number accepted")
	}
}

// TestFacadeCampaign exercises the campaign surface end to end on two
// machines with progress events.
func TestFacadeCampaign(t *testing.T) {
	specs := PaperCampaign(42)[:2] // No.1, No.2
	events := 0
	rep, err := RunCampaign(context.Background(), specs, CampaignConfig{
		Workers: 2,
		Seed:    7,
		OnEvent: func(CampaignEvent) { events++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Succeeded != 2 || rep.Matched != 2 {
		t.Fatalf("campaign: %d ok, %d matched, want 2/2", rep.Succeeded, rep.Matched)
	}
	if events < 4 {
		t.Errorf("only %d events (want started+finished per job)", events)
	}
	var buf bytes.Buffer
	rep.RenderTable(&buf)
	if !strings.Contains(buf.String(), "No.2") {
		t.Errorf("report table missing a job:\n%s", buf.String())
	}
}

// TestFacadeEngineSource drives the public surface: one Engine.Run over
// a live source with a trace sink, the trace replayed through
// TraceSource (recorded seed by default), and a perturbed replay.
func TestFacadeEngineSource(t *testing.T) {
	m, err := NewMachine(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var steps []string
	eng := NewEngine(WithSeed(11))
	res, err := eng.Run(context.Background(), LiveSource(m),
		WithTraceSink(&buf),
		WithProgress(func(step string, _ StepStats) { steps = append(steps, step) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mapping.EquivalentTo(m.Truth()) {
		t.Fatalf("recovered %s, want %s", res.Mapping, m.Truth())
	}
	if len(steps) != 5 {
		t.Errorf("progress steps %v", steps)
	}

	tr, err := DecodeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.ToolSeed != 11 {
		t.Fatalf("trace header seed %d, want 11", tr.Header.ToolSeed)
	}

	// Engine replay: the recorded seed applies when WithSeed is absent.
	rep, err := Run(context.Background(), TraceSource(tr, ReplayStrict))
	if err != nil {
		t.Fatalf("strict engine replay: %v", err)
	}
	if rep.Mapping.Fingerprint() != res.Mapping.Fingerprint() {
		t.Fatal("strict replay recovered a different mapping")
	}

	// Perturbed replay under mild jitter still recovers the mapping.
	noisy, err := Run(context.Background(), PerturbedSource(tr, ReplayKeyed, 3, TraceJitter{SigmaNs: 1}))
	if err != nil {
		t.Fatalf("perturbed replay: %v", err)
	}
	if noisy.Mapping == nil {
		t.Fatal("perturbed replay produced no mapping")
	}
}

// TestFacadeRunCancel: the public Run returns the context error when
// cancelled before the pipeline starts.
func TestFacadeRunCancel(t *testing.T) {
	m, err := NewMachine(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, LiveSource(m)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
