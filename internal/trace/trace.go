// Package trace captures, persists and replays the timing channel every
// reverse-engineering tool in this repository consumes. A Recorder wraps
// a timing.Target and writes each MeasurePair call (addresses, rounds,
// latency, elapsed simulated time) into a compact length-prefixed binary
// stream behind a versioned header carrying the machine fingerprint; a
// Replayer serves a recorded stream back through the timing.Target
// interface so any tool runs bit-identically offline, with zero
// simulator involvement; and composable noise models (Gaussian jitter,
// latency outlier bursts, threshold-region squeeze) perturb recorded
// traces to stress the Meter's SBDR decisions.
//
// Wire format (little-endian):
//
//	magic "DRTR" | uint16 version | uint32 header length | header JSON
//	then per sample: uvarint record length | record payload
//	record payload: uvarint A | uvarint B | uvarint rounds
//	                | 8-byte latency bits | 8-byte elapsed bits
//
// Records are length-prefixed so future versions can append fields
// without breaking old readers (unknown trailing bytes are skipped).
package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"dramdig/internal/addr"
	"dramdig/internal/alloc"
	"dramdig/internal/machine"
	"dramdig/internal/specs"
	"dramdig/internal/sysinfo"
)

// Version is the current wire-format version.
const Version = 1

// magic identifies a trace stream.
var magic = [4]byte{'D', 'R', 'T', 'R'}

// maxHeaderBytes bounds the header a reader will accept; anything larger
// is corrupt or hostile.
const maxHeaderBytes = 1 << 20

// MachineID identifies the recorded machine well enough to rebuild its
// tool-visible surface (system information and allocation layout)
// offline. It deliberately carries no ground-truth mapping and no
// vulnerability profile: a shared trace must not leak the answer.
type MachineID struct {
	// No is the paper's setting number (0 for custom machines).
	No int `json:"no"`
	// Name labels the machine ("No.3", "custom").
	Name string `json:"name"`
	// Fingerprint is the full machine-definition content hash
	// (machine.Definition.Fingerprint) — the key the result store and
	// daemon address traces by.
	Fingerprint string `json:"fingerprint"`
	// Seed is the machine seed: it determines the allocation layout the
	// recorded addresses live in.
	Seed int64 `json:"seed"`
	// The declared hardware, mirroring machine.Definition.
	Microarch string             `json:"microarch,omitempty"`
	CPU       string             `json:"cpu,omitempty"`
	Mobile    bool               `json:"mobile,omitempty"`
	Standard  specs.Standard     `json:"standard"`
	MemBytes  uint64             `json:"mem_bytes"`
	Config    sysinfo.DIMMConfig `json:"config"`
	Chip      string             `json:"chip"`
}

// Header is the versioned trace preamble.
type Header struct {
	// Version is the wire-format version the trace was written with.
	Version int `json:"version"`
	// Machine identifies the recorded machine.
	Machine MachineID `json:"machine"`
	// Tool names the recording tool ("dramdig", "drama", ...).
	Tool string `json:"tool,omitempty"`
	// ToolSeed is the tool seed of the recorded run; replaying with the
	// same seed reproduces the exact query sequence (strict mode
	// requires it).
	ToolSeed int64 `json:"tool_seed"`
	// Note is free-form provenance ("perturbed: jitter(2)").
	Note string `json:"note,omitempty"`
}

// HeaderFor builds a header describing a machine and the tool about to
// run on it.
func HeaderFor(m *machine.Machine, tool string, toolSeed int64) Header {
	def := m.Def()
	return Header{
		Version: Version,
		Machine: MachineID{
			No:          def.No,
			Name:        def.Name,
			Fingerprint: def.Fingerprint(),
			Seed:        m.Seed(),
			Microarch:   def.Microarch,
			CPU:         def.CPU,
			Mobile:      def.Mobile,
			Standard:    def.Standard,
			MemBytes:    def.MemBytes,
			Config:      def.Config,
			Chip:        def.ChipPart,
		},
		Tool:     tool,
		ToolSeed: toolSeed,
	}
}

// Surface rebuilds the recorded machine's tool-visible surface: the
// system information and the byte-identical allocation pool. Paper
// machines (No 1–9) rebuild from the registry so later registry fixes
// win; custom machines rebuild from the declared hardware in the header.
func (h Header) Surface() (sysinfo.Info, *alloc.Pool, error) {
	def, err := h.definition()
	if err != nil {
		return sysinfo.Info{}, nil, err
	}
	return machine.Surface(def, h.Machine.Seed)
}

func (h Header) definition() (machine.Definition, error) {
	if h.Machine.No != 0 {
		def, err := machine.ByNo(h.Machine.No)
		if err != nil {
			return machine.Definition{}, fmt.Errorf("trace: %w", err)
		}
		// The registry may have been fixed since the recording; if the
		// definition changed, the recorded addresses belong to a pool
		// this registry can no longer rebuild — fail clearly instead of
		// dying later in cryptic divergence errors. (Custom machines
		// cannot be checked this way: their header deliberately omits
		// the fingerprinted ground-truth fields.)
		if fp := def.Fingerprint(); h.Machine.Fingerprint != "" && fp != h.Machine.Fingerprint {
			return machine.Definition{}, fmt.Errorf(
				"trace: registry definition of %s no longer matches the recording (fingerprint %.12s… != recorded %.12s…)",
				def.Name, fp, h.Machine.Fingerprint)
		}
		return def, nil
	}
	id := h.Machine
	return machine.Definition{
		Name:      id.Name,
		Microarch: id.Microarch,
		CPU:       id.CPU,
		Mobile:    id.Mobile,
		Standard:  id.Standard,
		MemBytes:  id.MemBytes,
		Config:    id.Config,
		ChipPart:  id.Chip,
	}, nil
}

// Sample is one recorded MeasurePair call.
type Sample struct {
	// A and B are the measured pair.
	A, B addr.Phys
	// Rounds is the alternating-access round count of the call.
	Rounds int
	// LatencyNs is the returned mean per-access latency.
	LatencyNs float64
	// ElapsedNs is the simulated time the call consumed (the clock
	// delta); replay re-charges it so offline runs report the same
	// simulated cost.
	ElapsedNs float64
}

// Trace is a fully decoded trace.
type Trace struct {
	Header  Header
	Samples []Sample
}

// --- streaming writer --------------------------------------------------

// Writer streams samples into an underlying io.Writer. Not safe for
// concurrent use; the Recorder serializes its calls.
type Writer struct {
	bw    *bufio.Writer
	under io.Writer
	n     int
	buf   []byte
}

// NewWriter writes the magic and header and returns a streaming writer.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if h.Version == 0 {
		h.Version = Version
	}
	if h.Version != Version {
		return nil, fmt.Errorf("trace: cannot write version %d (supported: %d)", h.Version, Version)
	}
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("trace: encode header: %w", err)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	var pre [6]byte
	binary.LittleEndian.PutUint16(pre[0:2], uint16(h.Version))
	binary.LittleEndian.PutUint32(pre[2:6], uint32(len(hdr)))
	if _, err := bw.Write(pre[:]); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if _, err := bw.Write(hdr); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &Writer{bw: bw, under: w, buf: make([]byte, 0, 64)}, nil
}

// Append writes one sample.
func (w *Writer) Append(s Sample) error {
	if s.Rounds < 0 {
		return fmt.Errorf("trace: negative rounds %d", s.Rounds)
	}
	b := w.buf[:0]
	b = binary.AppendUvarint(b, uint64(s.A))
	b = binary.AppendUvarint(b, uint64(s.B))
	b = binary.AppendUvarint(b, uint64(s.Rounds))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.LatencyNs))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.ElapsedNs))
	w.buf = b
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(b)))
	if _, err := w.bw.Write(lenBuf[:n]); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if _, err := w.bw.Write(b); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w.n++
	return nil
}

// Count returns the samples appended so far.
func (w *Writer) Count() int { return w.n }

// Close flushes buffered samples and closes the underlying writer when
// it is an io.Closer.
func (w *Writer) Close() error {
	err := w.bw.Flush()
	if c, ok := w.under.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// --- streaming reader --------------------------------------------------

// Reader streams samples out of an encoded trace.
type Reader struct {
	br  *bufio.Reader
	h   Header
	buf []byte
}

// NewReader parses the magic and header and returns a streaming reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var pre [10]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if [4]byte(pre[0:4]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q (not a trace file)", pre[0:4])
	}
	version := int(binary.LittleEndian.Uint16(pre[4:6]))
	if version != Version {
		return nil, fmt.Errorf("trace: unsupported version %d (supported: %d)", version, Version)
	}
	hdrLen := binary.LittleEndian.Uint32(pre[6:10])
	if hdrLen > maxHeaderBytes {
		return nil, fmt.Errorf("trace: header of %d bytes exceeds the %d limit", hdrLen, maxHeaderBytes)
	}
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	var h Header
	if err := json.Unmarshal(hdr, &h); err != nil {
		return nil, fmt.Errorf("trace: corrupt header: %w", err)
	}
	h.Version = version // the preamble's version is the one the bytes follow
	return &Reader{br: br, h: h}, nil
}

// Header returns the decoded header.
func (r *Reader) Header() Header { return r.h }

// Next returns the next sample, or io.EOF at a clean end of stream.
func (r *Reader) Next() (Sample, error) {
	recLen, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		return Sample{}, io.EOF
	}
	if err != nil {
		return Sample{}, fmt.Errorf("trace: corrupt record length: %w", err)
	}
	if recLen > 1<<16 {
		return Sample{}, fmt.Errorf("trace: record of %d bytes is implausible", recLen)
	}
	if cap(r.buf) < int(recLen) {
		r.buf = make([]byte, recLen)
	}
	buf := r.buf[:recLen]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return Sample{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	var s Sample
	a, n := binary.Uvarint(buf)
	if n <= 0 {
		return Sample{}, fmt.Errorf("trace: corrupt record field A")
	}
	buf = buf[n:]
	b, n := binary.Uvarint(buf)
	if n <= 0 {
		return Sample{}, fmt.Errorf("trace: corrupt record field B")
	}
	buf = buf[n:]
	rounds, n := binary.Uvarint(buf)
	if n <= 0 {
		return Sample{}, fmt.Errorf("trace: corrupt record field rounds")
	}
	buf = buf[n:]
	if len(buf) < 16 {
		return Sample{}, fmt.Errorf("trace: record too short for latency fields")
	}
	s.A, s.B, s.Rounds = addr.Phys(a), addr.Phys(b), int(rounds)
	s.LatencyNs = math.Float64frombits(binary.LittleEndian.Uint64(buf[0:8]))
	s.ElapsedNs = math.Float64frombits(binary.LittleEndian.Uint64(buf[8:16]))
	// Trailing bytes belong to a newer minor revision; skip them.
	return s, nil
}

// --- whole-trace convenience ------------------------------------------

// Encode writes the full trace.
func (t *Trace) Encode(w io.Writer) error {
	tw, err := NewWriter(w, t.Header)
	if err != nil {
		return err
	}
	for _, s := range t.Samples {
		if err := tw.Append(s); err != nil {
			return err
		}
	}
	return tw.bw.Flush()
}

// Decode reads a full trace.
func Decode(r io.Reader) (*Trace, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{Header: tr.Header()}
	for {
		s, err := tr.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Samples = append(t.Samples, s)
	}
}
