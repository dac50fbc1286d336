// Package rowhammer drives double-sided rowhammer tests using a recovered
// DRAM address mapping, reproducing the paper's Table III methodology:
// repeated 5-minute test sessions whose induced bit-flip counts measure
// how correct the mapping is.
//
// For each victim candidate the driver computes the two aggressor
// addresses one row above and one row below the victim. With a complete,
// consistent mapping this is an exact GF(2) encode (bank-function inputs
// that double as row bits are compensated automatically — DRAMDig's
// advantage). With a partial mapping (e.g. DRAMA output whose row/column
// sets do not tile the address space) the driver falls back to rewriting
// the believed row bits and patching bank-function parity with believed
// non-row function bits; errors in the believed mapping then place
// aggressors in wrong rows or banks and the flip yield collapses — which
// is exactly the paper's point.
package rowhammer

import (
	"context"
	"fmt"
	"math/rand"

	"dramdig/internal/addr"
	"dramdig/internal/alloc"
	"dramdig/internal/dram"
	"dramdig/internal/linalg"
	"dramdig/internal/mapping"
	"dramdig/internal/sysinfo"
)

// Target is the machine surface a rowhammer test needs.
type Target interface {
	SysInfo() sysinfo.Info
	Pool() *alloc.Pool
	// HammerPair alternately activates the two addresses' rows acts
	// times each and returns induced bit flips.
	HammerPair(a, b addr.Phys, acts uint64) []dram.Flip
	// HammerOne accesses one address acts times (one-location mode;
	// effective only on closed-page machines).
	HammerOne(a addr.Phys, acts uint64) []dram.Flip
	// HammerMany alternately activates a set of addresses (many-sided
	// mode; dilutes TRR samplers).
	HammerMany(addrs []addr.Phys, acts uint64) []dram.Flip
	ClockNs() float64
	AdvanceClock(ns float64)
}

// Mode selects the hammering strategy.
type Mode int

const (
	// DoubleSided sandwiches each victim between two aggressors — the
	// paper's Table III methodology. Requires a mapping.
	DoubleSided Mode = iota
	// OneLocation hammers a single random row per burst (Gruss et al.,
	// the paper's reference [4]); it needs no mapping at all but only
	// disturbs closed-page machines.
	OneLocation
	// ManySided hammers Aggressors rows of one bank in an alternating
	// pattern (TRRespass-style): on TRR-protected DDR4 the sampler
	// cannot track all aggressors and flips slip through. Requires a
	// complete mapping.
	ManySided
)

// ToolMapping is a tool's belief about the address mapping. Complete
// mappings carry a validated *mapping.Mapping; partial ones only the
// pieces.
type ToolMapping struct {
	// Funcs are the believed bank address functions.
	Funcs []uint64
	// RowBits are the believed row-index bits, ascending.
	RowBits []uint
	// Full is the validated mapping when the belief is complete and
	// consistent; nil otherwise.
	Full *mapping.Mapping
}

// FromMapping wraps a complete mapping.
func FromMapping(m *mapping.Mapping) ToolMapping {
	return ToolMapping{Funcs: m.BankFuncs, RowBits: m.RowBits, Full: m}
}

// Config tunes a rowhammer session.
type Config struct {
	// Mode is the hammering strategy (default DoubleSided).
	Mode Mode
	// Aggressors is the group size for ManySided mode (default 8, must
	// be even and ≥ 4).
	Aggressors int
	// BudgetSimSeconds is the session length (default 300 s, the
	// paper's 5 minutes).
	BudgetSimSeconds float64
	// Seed drives victim selection.
	Seed int64
}

func (c *Config) setDefaults() {
	if c.Aggressors == 0 {
		c.Aggressors = 8
	}
	if c.BudgetSimSeconds == 0 {
		c.BudgetSimSeconds = 300
	}
}

const (
	// actsPerAggressor is the number of activations per aggressor row
	// per victim: about one refresh window's worth.
	actsPerAggressor = 90_000
	// verifyOverheadNs is the per-victim cost of scanning for flips.
	verifyOverheadNs = 5e6
)

// Result summarizes one hammer session.
type Result struct {
	// Flips is the number of distinct bit flips induced.
	Flips int
	// Victims is the number of victim rows hammered.
	Victims int
	// Skipped counts victim candidates the tool could not build a
	// same-bank aggressor pair for under its believed mapping.
	Skipped int
	// SimSeconds is the session's simulated duration.
	SimSeconds float64
}

// String renders the result.
func (r Result) String() string {
	return fmt.Sprintf("%d flips (%d victims hammered, %d skipped, %.0f s)",
		r.Flips, r.Victims, r.Skipped, r.SimSeconds)
}

// Session is a configured rowhammer test.
type Session struct {
	cfg    Config
	target Target
	belief ToolMapping
	rng    *rand.Rand
}

// NewSession builds a session hammering target according to belief.
// OneLocation mode needs no belief; an empty ToolMapping is accepted
// there.
func NewSession(target Target, belief ToolMapping, cfg Config) (*Session, error) {
	cfg.setDefaults()
	if cfg.Mode == DoubleSided && len(belief.RowBits) == 0 {
		return nil, fmt.Errorf("rowhammer: belief has no row bits")
	}
	if cfg.Mode == ManySided {
		if belief.Full == nil {
			return nil, fmt.Errorf("rowhammer: many-sided mode needs a complete mapping")
		}
		if cfg.Aggressors < 4 || cfg.Aggressors%2 != 0 {
			return nil, fmt.Errorf("rowhammer: many-sided needs an even aggressor count >= 4 (got %d)", cfg.Aggressors)
		}
	}
	return &Session{
		cfg:    cfg,
		target: target,
		belief: belief,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Run executes the session: random victims from the tool's memory, one
// double-sided burst each, flips deduplicated across the session.
func (s *Session) Run() Result {
	res, _ := s.RunContext(context.Background())
	return res
}

// RunContext is Run observing a context: the hammer loop polls it per
// victim, so cancellation returns promptly with the flips induced so far
// and the context's error.
func (s *Session) RunContext(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var res Result
	pool := s.target.Pool()
	start := s.target.ClockNs()
	seen := make(map[dram.Flip]struct{})
	for (s.target.ClockNs()-start)/1e9 < s.cfg.BudgetSimSeconds {
		if err := ctx.Err(); err != nil {
			res.SimSeconds = (s.target.ClockNs() - start) / 1e9
			return res, err
		}
		v := pool.RandomAddr(s.rng, 64)
		// Victim bookkeeping and flip scan cost time either way.
		s.target.AdvanceClock(verifyOverheadNs)
		var flips []dram.Flip
		switch s.cfg.Mode {
		case OneLocation:
			res.Victims++
			flips = s.target.HammerOne(v, 2*actsPerAggressor)
		case ManySided:
			group, ok := s.manySidedGroup(v)
			if !ok {
				res.Skipped++
				continue
			}
			res.Victims++
			// Each aggressor gets the full dose; the burst spreads
			// over several refresh windows, which is many-sided's
			// intrinsic cost — and why it only pays off against TRR.
			flips = s.target.HammerMany(group, actsPerAggressor)
		default:
			a1, a2, ok := s.aggressors(v)
			if !ok {
				res.Skipped++
				continue
			}
			res.Victims++
			flips = s.target.HammerPair(a1, a2, actsPerAggressor)
		}
		for _, f := range flips {
			if _, dup := seen[f]; !dup {
				seen[f] = struct{}{}
				res.Flips++
			}
		}
	}
	res.SimSeconds = (s.target.ClockNs() - start) / 1e9
	return res, nil
}

// manySidedGroup builds the TRRespass-style aggressor set: rows
// r, r+2, r+4, … of v's bank, sandwiching the odd rows in between.
func (s *Session) manySidedGroup(v addr.Phys) ([]addr.Phys, bool) {
	m := s.belief.Full
	d := m.Decode(v)
	span := uint64(s.cfg.Aggressors) * 2
	if d.Row+span >= m.NumRows() {
		return nil, false
	}
	group := make([]addr.Phys, 0, s.cfg.Aggressors)
	for i := 0; i < s.cfg.Aggressors; i++ {
		p, err := m.Encode(mapping.DRAMAddr{Bank: d.Bank, Row: d.Row + uint64(2*i), Col: d.Col})
		if err != nil {
			return nil, false
		}
		group = append(group, p)
	}
	return group, true
}

// aggressors computes the two addresses the tool believes sandwich v's
// row within v's bank.
func (s *Session) aggressors(v addr.Phys) (a1, a2 addr.Phys, ok bool) {
	if s.belief.Full != nil {
		d := s.belief.Full.Decode(v)
		if d.Row == 0 || d.Row+1 >= s.belief.Full.NumRows() {
			return 0, 0, false
		}
		below, err1 := s.belief.Full.Encode(mapping.DRAMAddr{Bank: d.Bank, Row: d.Row - 1, Col: d.Col})
		above, err2 := s.belief.Full.Encode(mapping.DRAMAddr{Bank: d.Bank, Row: d.Row + 1, Col: d.Col})
		if err1 != nil || err2 != nil {
			return 0, 0, false
		}
		return below, above, true
	}
	// Partial belief: rewrite row bits, then patch bank parity with
	// believed non-row function bits.
	rowBits := s.belief.RowBits
	r := v.Extract(rowBits)
	if r == 0 || r+1 >= uint64(1)<<uint(len(rowBits)) {
		return 0, 0, false
	}
	below := v.Deposit(rowBits, r-1)
	above := v.Deposit(rowBits, r+1)
	below, ok = s.patchBank(v, below)
	if !ok {
		return 0, 0, false
	}
	above, ok = s.patchBank(v, above)
	if !ok {
		return 0, 0, false
	}
	return below, above, true
}

// patchBank flips believed non-row function bits of candidate until all
// believed bank functions match reference. Returns ok=false when the
// parity system has no solution over the available bits.
func (s *Session) patchBank(ref, cand addr.Phys) (addr.Phys, bool) {
	rowSet := addr.MaskFromBits(s.belief.RowBits)
	// Mismatch vector across functions.
	var rhs uint64
	for i, f := range s.belief.Funcs {
		if ref.XorFold(f) != cand.XorFold(f) {
			rhs |= uint64(1) << uint(i)
		}
	}
	if rhs == 0 {
		return cand, true
	}
	// Patch bits: function inputs the tool believes are not row bits.
	var patchBits []uint
	seen := map[uint]bool{}
	for _, f := range s.belief.Funcs {
		for _, b := range addr.BitsFromMask(f) {
			if rowSet&(uint64(1)<<b) == 0 && !seen[b] {
				seen[b] = true
				patchBits = append(patchBits, b)
			}
		}
	}
	if len(patchBits) == 0 || len(patchBits) > 63 {
		return 0, false
	}
	mat := linalg.NewMatrix()
	for _, f := range s.belief.Funcs {
		var row uint64
		for j, b := range patchBits {
			if f&(uint64(1)<<b) != 0 {
				row |= uint64(1) << uint(j)
			}
		}
		mat.AddRow(row)
	}
	y, ok := linalg.Solve(mat, rhs)
	if !ok {
		return 0, false
	}
	for j, b := range patchBits {
		if y&(uint64(1)<<uint(j)) != 0 {
			cand = cand.FlipBit(b)
		}
	}
	return cand, true
}
