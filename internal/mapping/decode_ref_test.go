package mapping_test

import (
	"math/rand"
	"testing"

	"dramdig/internal/addr"
	"dramdig/internal/machine"
	"dramdig/internal/mapping"
)

// decodeRef is the bit-by-bit decode the compiled Decoder replaced. It is
// kept as the reference.
func decodeRef(m *mapping.Mapping, p addr.Phys) mapping.DRAMAddr {
	var d mapping.DRAMAddr
	d.Row = p.Extract(m.RowBits)
	d.Col = p.Extract(m.ColBits)
	for i, f := range m.BankFuncs {
		d.Bank |= p.XorFold(f) << uint(i)
	}
	return d
}

// checkDecode compares Mapping.Decode and a compiled Decoder with the
// reference on random addresses, including bits above PhysBits.
func checkDecode(t *testing.T, name string, m *mapping.Mapping, rng *rand.Rand) {
	t.Helper()
	dec := m.Compile()
	for i := 0; i < 2000; i++ {
		p := addr.Phys(rng.Uint64())
		if i%2 == 0 {
			p &= addr.Phys(uint64(1)<<m.PhysBits - 1)
		}
		want := decodeRef(m, p)
		if got := dec.Decode(p); got != want {
			t.Fatalf("%s: compiled decode of %v = %v, reference %v", name, p, got, want)
		}
		if i%100 == 0 {
			if got := m.Decode(p); got != want {
				t.Fatalf("%s: Decode(%v) = %v, reference %v", name, p, got, want)
			}
		}
	}
}

func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, def := range machine.Settings() {
		m, err := machine.New(def, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkDecode(t, def.Name, m.Truth(), rng)
	}
	gen := rand.New(rand.NewSource(12))
	for i := 0; i < 32; i++ {
		def, err := machine.GenerateDefinition(gen)
		if err != nil {
			continue // the generator's occasional oversized draw
		}
		m, err := machine.New(def, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		checkDecode(t, def.Name, m.Truth(), rng)
	}
}

// TestDecodeArbitraryPositions covers bit lists a Mapping literal may
// carry that New would have sorted: shuffled, gappy and duplicated
// positions, and empty lists.
func TestDecodeArbitraryPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		pick := func() []uint {
			n := rng.Intn(20)
			out := make([]uint, n)
			for j := range out {
				out[j] = uint(rng.Intn(64))
				if j > 0 && rng.Intn(2) == 0 && out[j-1] < 63 {
					out[j] = out[j-1] + 1 // extend a run
				}
			}
			return out
		}
		m := &mapping.Mapping{RowBits: pick(), ColBits: pick(), PhysBits: 62}
		for j := rng.Intn(5); j > 0; j-- {
			m.BankFuncs = append(m.BankFuncs, rng.Uint64())
		}
		checkDecode(t, m.String(), m, rng)
	}
}
