package core

import (
	"context"
	"testing"

	"dramdig/internal/addr"
	"dramdig/internal/dram"
	"dramdig/internal/mapping"
	"dramdig/internal/specs"
	"dramdig/internal/sysinfo"
	"dramdig/internal/timing"
)

// Small indirection helpers keeping test literals compact.

func machineStandardDDR3() specs.Standard { return specs.DDR3 }

func machineDIMM(ch, dimm, rank, banks int) sysinfo.DIMMConfig {
	return sysinfo.DIMMConfig{Channels: ch, DIMMsPerChan: dimm, RanksPerDIMM: rank, BanksPerRank: banks}
}

func machineInvulnerable() dram.VulnProfile { return dram.Invulnerable }

// truthCoarse is the Step 1 result ground truth implies: every bank-
// function bit is a candidate, and the remaining bits are rows or
// columns.
func truthCoarse(truth *mapping.Mapping) *coarseResult {
	coarse := &coarseResult{physBits: truth.PhysBits}
	rowSet := addr.MaskFromBits(truth.RowBits)
	colSet := addr.MaskFromBits(truth.ColBits)
	bankSet := addr.MaskFromBits(truth.BankBits())
	for b := uint(0); b < truth.PhysBits; b++ {
		bit := uint64(1) << b
		switch {
		case bankSet&bit != 0:
			coarse.bankBits = append(coarse.bankBits, b)
		case rowSet&bit != 0:
			coarse.rowBits = append(coarse.rowBits, b)
		case colSet&bit != 0:
			coarse.colBits = append(coarse.colBits, b)
		}
	}
	return coarse
}

// calibratedTool returns a DRAMDig instance on target with both meters
// built and the timing channel calibrated, as RunContext leaves them
// before Step 1, so a test can drive single steps.
func calibratedTool(t *testing.T, target timing.Target, cfg Config) *Tool {
	t.Helper()
	tool, err := New(target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tool.ctx = context.Background()
	if tool.meter, err = timing.NewMeter(target, meterRounds, meterRepeats); err != nil {
		t.Fatal(err)
	}
	if tool.pmeter, err = timing.NewMeter(target, tool.cfg.PartitionRounds, 3); err != nil {
		t.Fatal(err)
	}
	tool.calSamples = calibrationPairs(target.SysInfo().TotalBanks())
	cal, err := tool.meter.Calibrate(tool.rng, tool.calSamples)
	if err != nil {
		t.Fatal(err)
	}
	tool.pmeter.SetThreshold(cal.Threshold)
	return tool
}
