package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"dedupsim/internal/codegen"
	"dedupsim/internal/gen"
	"dedupsim/internal/partition"
)

// slotLayoutPins holds FNV-64a digests of each Program's node-to-state
// map: NumWords, SlotOfNode, SlotWord and SlotBit. A checkpoint stores
// state words, so a checkpoint taken under one build restores to the
// right values under another only while this map holds. Coarser
// partitions may change kernels, activations and dirty bits, which
// RestoreLane tolerates (a Dirty length mismatch marks everything
// dirty), but they must leave these digests as they are.
var slotLayoutPins = map[string]uint64{
	"Rocket-2C@0.1/ESSENT":    0x80120015d55b15d6,
	"Rocket-2C@0.1/Dedup":     0x25ebb87b6c2f1e2f,
	"Rocket-4C@0.3/ESSENT":    0x60b62667cc0f8e30,
	"Rocket-4C@0.3/Dedup":     0xf5c2d1d5a4ef1165,
	"Rocket-8C@1/ESSENT":      0xc6d5af2575a3d54e,
	"Rocket-8C@1/Dedup":       0xe622cc95d14ccefa,
	"SmallBoom-2C@0.1/ESSENT": 0x96ea9c640cd5b3ff,
	"SmallBoom-2C@0.1/Dedup":  0x23cd25a67c69b3a2,
	"SmallBoom-4C@0.3/ESSENT": 0x15d0310052628aa4,
	"SmallBoom-4C@0.3/Dedup":  0x38d0bf3cb12bc06e,
	"SmallBoom-8C@1/ESSENT":   0x3f2bd16a72f36689,
	"SmallBoom-8C@1/Dedup":    0x33603ad4962f8bcf,
	"LargeBoom-2C@0.1/ESSENT": 0x79ad2eae82f99336,
	"LargeBoom-2C@0.1/Dedup":  0x5c4eafd03a85b588,
	"LargeBoom-4C@0.3/ESSENT": 0xa53db0ac8cc95b06,
	"LargeBoom-4C@0.3/Dedup":  0x7defe0157379fb2a,
	"LargeBoom-8C@1/ESSENT":   0xd443d5bd78f1f2d6,
	"LargeBoom-8C@1/Dedup":    0x1e39376625a658b6,
	"MegaBoom-2C@0.1/ESSENT":  0x7454ae96f80d3df2,
	"MegaBoom-2C@0.1/Dedup":   0xacc7fdd1ba7f6ca0,
	"MegaBoom-4C@0.3/ESSENT":  0xab20f1e3967f539d,
	"MegaBoom-4C@0.3/Dedup":   0xbadee9bf889ccd1f,
	"MegaBoom-8C@1/ESSENT":    0x0570a2ff0e3e47fa,
	"MegaBoom-8C@1/Dedup":     0x049546aa1399edd8,
}

func slotLayoutDigest(p *codegen.Program) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	put(int32(p.NumWords))
	for _, s := range [][]int32{p.SlotOfNode, p.SlotWord} {
		put(int32(len(s)))
		for _, x := range s {
			put(x)
		}
	}
	put(int32(len(p.SlotBit)))
	for _, b := range p.SlotBit {
		put(int32(b))
	}
	return h.Sum64()
}

func TestSlotLayoutPinned(t *testing.T) {
	for _, f := range gen.Families {
		for _, d := range []struct {
			cores int
			scale float64
		}{{2, 0.1}, {4, 0.3}, {8, 1}} {
			c := gen.MustBuild(gen.Config(f, d.cores, d.scale))
			for _, v := range []Variant{ESSENT, Dedup} {
				name := fmt.Sprintf("%s-%dC@%v/%s", f, d.cores, d.scale, v)
				cv, err := CompileVariant(c, v, partition.Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := slotLayoutDigest(cv.Program)
				if want, ok := slotLayoutPins[name]; !ok || got != want {
					t.Errorf("%s: slot layout changed (pin %#x), now:\n\t%q: %#016x,", name, want, name, got)
				}
			}
		}
	}
}
