package sim

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"dedupsim/internal/circuit"
	"dedupsim/internal/codegen"
	"dedupsim/internal/graph"
)

// VCDWriter dumps named signals to a Value Change Dump file (IEEE 1364),
// the interchange format every waveform viewer reads. It works with the
// reference interpreter and any compiled engine through the small probe
// interface.
//
// Usage:
//
//	w, _ := sim.NewVCDWriter(file, c, []string{"result", "top.core0.lfsr"})
//	for cyc := 0; cyc < n; cyc++ {
//	    drive(engine, cyc)
//	    engine.Step()
//	    w.Sample(probe, cyc)
//	}
//	w.Close()
type VCDWriter struct {
	w       *bufio.Writer
	signals []vcdSignal
	prev    []uint64
	started bool
	err     error
}

// Prober reads a named signal's current value; *Ref implements it
// directly, and compiled engines expose slot-backed probes via
// EngineProber.
type Prober interface {
	Probe(name string) (uint64, uint8, bool)
}

type vcdSignal struct {
	name  string
	id    string
	width uint8
}

// Probe implements Prober on the reference simulator: any named node.
func (r *Ref) Probe(name string) (uint64, uint8, bool) {
	for v, n := range r.c.Names {
		if n == name {
			return r.val[v], r.c.Width[v], true
		}
	}
	return 0, 0, false
}

// EngineProber adapts a compiled engine to the Prober interface, reading
// state through a slot accessor: Engine.Slot, or one lane of a
// BatchEngine (func(s int32) uint64 { return be.Slot(lane, s) }). Only
// signals that received state slots (I/O, registers, cross-partition
// values) are probeable — the same restriction a real compiled simulator
// has unless it is built with full tracing.
type EngineProber struct {
	slot  func(int32) uint64
	slots map[string]struct {
		slot  int32
		width uint8
	}
}

// NewEngineProber indexes the probeable signals of an engine running p
// whose state slot reads through slot.
func NewEngineProber(p *codegen.Program, slot func(int32) uint64, c *circuit.Circuit) *EngineProber {
	ep := &EngineProber{slot: slot, slots: map[string]struct {
		slot  int32
		width uint8
	}{}}
	for v := 0; v < c.NumNodes(); v++ {
		name := c.Names[v]
		if name == "" {
			continue
		}
		if s := p.SlotOfNode[v]; s >= 0 {
			ep.slots[name] = struct {
				slot  int32
				width uint8
			}{s, c.Width[v]}
		}
	}
	return ep
}

// Probe implements Prober.
func (p *EngineProber) Probe(name string) (uint64, uint8, bool) {
	s, ok := p.slots[name]
	if !ok {
		return 0, 0, false
	}
	return p.slot(s.slot), s.width, true
}

// NewVCDWriter starts a VCD dump of the named signals. Signal widths are
// taken from the circuit; unknown names are rejected immediately so a
// typo doesn't silently produce an empty waveform.
func NewVCDWriter(w io.Writer, c *circuit.Circuit, names []string) (*VCDWriter, error) {
	known := map[string]uint8{}
	for v, n := range c.Names {
		if n != "" {
			known[n] = c.Width[v]
		}
	}
	vw := &VCDWriter{w: bufio.NewWriter(w)}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for i, name := range sorted {
		width, ok := known[name]
		if !ok {
			return nil, fmt.Errorf("sim: vcd: no signal named %q", name)
		}
		vw.signals = append(vw.signals, vcdSignal{name: name, id: vcdID(i), width: width})
	}
	vw.prev = make([]uint64, len(vw.signals))
	vw.header(c.Name)
	return vw, vw.err
}

// vcdID produces the compact printable identifier VCD uses per signal.
func vcdID(i int) string {
	const alphabet = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	var sb strings.Builder
	for {
		sb.WriteByte(alphabet[i%len(alphabet)])
		i /= len(alphabet)
		if i == 0 {
			return sb.String()
		}
	}
}

func (vw *VCDWriter) header(top string) {
	vw.printf("$version dedupsim $end\n")
	vw.printf("$timescale 1ns $end\n")
	vw.printf("$scope module %s $end\n", sanitize(top))
	for _, s := range vw.signals {
		vw.printf("$var wire %d %s %s $end\n", s.width, s.id, sanitize(s.name))
	}
	vw.printf("$upscope $end\n$enddefinitions $end\n")
}

func sanitize(s string) string { return strings.ReplaceAll(s, " ", "_") }

// Sample records the probed values at the given cycle, emitting changes
// only (plus a full dump at the first sample).
func (vw *VCDWriter) Sample(p Prober, cycle int) error {
	if vw.err != nil {
		return vw.err
	}
	wroteTime := false
	for i, s := range vw.signals {
		val, _, ok := p.Probe(s.name)
		if !ok {
			vw.err = fmt.Errorf("sim: vcd: signal %q not probeable", s.name)
			return vw.err
		}
		if vw.started && val == vw.prev[i] {
			continue
		}
		if !wroteTime {
			vw.printf("#%d\n", cycle)
			wroteTime = true
		}
		if s.width == 1 {
			vw.printf("%d%s\n", val&1, s.id)
		} else {
			vw.printf("b%b %s\n", val, s.id)
		}
		vw.prev[i] = val
	}
	vw.started = true
	return vw.err
}

// Close flushes the dump.
func (vw *VCDWriter) Close() error {
	if vw.err != nil {
		return vw.err
	}
	return vw.w.Flush()
}

func (vw *VCDWriter) printf(format string, args ...any) {
	if vw.err == nil {
		_, vw.err = fmt.Fprintf(vw.w, format, args...)
	}
}

// ProbeNames lists every named, probeable signal of a circuit (for CLI
// discovery and tests): node names that carry a value.
func ProbeNames(c *circuit.Circuit) []string {
	var names []string
	for v, n := range c.Names {
		if n != "" && c.Ops[graph.NodeID(v)] != circuit.OpMemWrite {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}
