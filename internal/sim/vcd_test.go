package sim_test

import (
	"strings"
	"testing"

	"dedupsim/internal/firrtl"
	"dedupsim/internal/gen"
	"dedupsim/internal/harness"
	"dedupsim/internal/partition"
	"dedupsim/internal/sim"
)

const vcdCounterSrc = `
circuit VC :
  module VC :
    input en : UInt<1>
    output count : UInt<4>
    reg cnt : UInt<4>, reset 0
    cnt <= mux(en, add(cnt, UInt<4>(1)), cnt)
    count <= cnt
`

func TestVCDFromReference(t *testing.T) {
	c, err := firrtl.Compile(vcdCounterSrc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRef(c)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	w, err := sim.NewVCDWriter(&sb, c, []string{"cnt", "en"})
	if err != nil {
		t.Fatal(err)
	}
	r.SetInput("en", 1)
	for cyc := 0; cyc < 5; cyc++ {
		r.Step()
		if err := w.Sample(r, cyc); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"$timescale", "$var wire 4", "$var wire 1", "$enddefinitions",
		"#0", "#1", "b1 ", "b10 ", "b11 ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("vcd missing %q:\n%s", want, out)
		}
	}
	// Change-only encoding: en stays 1 after the first dump, so the
	// scalar "1" value line appears exactly once.
	if n := strings.Count(out, "\n1!"); n > 1 {
		t.Fatalf("unchanged scalar re-dumped %d times:\n%s", n, out)
	}
}

func TestVCDUnknownSignalRejected(t *testing.T) {
	c, err := firrtl.Compile(vcdCounterSrc)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := sim.NewVCDWriter(&sb, c, []string{"ghost"}); err == nil {
		t.Fatal("unknown signal accepted")
	}
}

func TestVCDFromEngineMatchesReference(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 1, 0.1))
	cv, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(cv.Program, true)
	prober := sim.NewEngineProber(cv.Program, e.Slot, c)
	ref, _ := sim.NewRef(c)
	// A one-lane BatchEngine probed through the same prober type must dump
	// the same waveform, byte for byte, as the scalar engine.
	be, err := sim.NewBatch(cv.Program, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	laneProber := sim.NewEngineProber(cv.Program, func(s int32) uint64 { return be.Slot(0, s) }, c)
	var probes []string
	for _, n := range sim.ProbeNames(c) {
		if _, _, ok := prober.Probe(n); ok {
			probes = append(probes, n)
		}
	}
	var scalarVCD, laneVCD strings.Builder
	scalarW, err := sim.NewVCDWriter(&scalarVCD, c, probes)
	if err != nil {
		t.Fatal(err)
	}
	laneW, err := sim.NewVCDWriter(&laneVCD, c, probes)
	if err != nil {
		t.Fatal(err)
	}

	// Registers always have slots, so they are probeable on the engine.
	probe := "lfsr"
	found := ""
	for _, n := range sim.ProbeNames(c) {
		if strings.HasSuffix(n, probe) {
			found = n
			break
		}
	}
	if found == "" {
		t.Fatal("no lfsr register found")
	}
	for cyc := 0; cyc < 30; cyc++ {
		for _, d := range []interface {
			SetInput(string, uint64) error
		}{e, ref} {
			d.SetInput("stim", uint64(cyc*17))
			d.SetInput("stim_valid", uint64(cyc%2))
		}
		be.SetInput(0, "stim", uint64(cyc*17))
		be.SetInput(0, "stim_valid", uint64(cyc%2))
		e.Step()
		be.Step()
		ref.Step()
		if err := scalarW.Sample(prober, cyc); err != nil {
			t.Fatal(err)
		}
		if err := laneW.Sample(laneProber, cyc); err != nil {
			t.Fatal(err)
		}
		ev, ew, ok := prober.Probe(found)
		if !ok {
			t.Fatalf("engine cannot probe %q", found)
		}
		rv, rw, ok := ref.Probe(found)
		if !ok || ew != rw {
			t.Fatalf("probe widths differ: %d vs %d", ew, rw)
		}
		if ev != rv {
			t.Fatalf("cycle %d: probe %q engine=%#x ref=%#x", cyc, found, ev, rv)
		}
	}
	if err := scalarW.Close(); err != nil {
		t.Fatal(err)
	}
	if err := laneW.Close(); err != nil {
		t.Fatal(err)
	}
	if len(probes) == 0 || laneVCD.String() != scalarVCD.String() {
		t.Errorf("one-lane batch VCD (%d bytes) != scalar engine VCD (%d bytes) over %d probes",
			laneVCD.Len(), scalarVCD.Len(), len(probes))
	}
}

func TestProbeNamesNonEmpty(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 1, 0.1))
	names := sim.ProbeNames(c)
	if len(names) < 10 {
		t.Fatalf("only %d probeable names", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatal("names not sorted")
		}
	}
}
