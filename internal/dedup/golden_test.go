package dedup

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"dedupsim/internal/circuit"
	"dedupsim/internal/firrtl"
	"dedupsim/internal/gen"
	"dedupsim/internal/partition"
	"dedupsim/internal/sched"
)

// goldenPartitions pins FNV-64a digests of the partitioner's exact output:
// partition.Partition's Assign, Deduplicate's Assign/Class/Members with
// MultiModule off and on, and sched.LocalityAware's Order over the
// single-module result. Partition shapes decide kernel boundaries, class
// sharing and schedule order, so any change here changes every compiled
// Program. A partitioner change that moves a digest must update the pins
// deliberately. heteroSoC is the design where MultiModule's output differs.
var goldenPartitions = map[string][4]uint64{
	"Rocket-1C@0.25":    {0x6b3e9bab1e74a11a, 0xbe60420dbbddebf3, 0xbe60420dbbddebf3, 0xb10ad99cacbaca75},
	"Rocket-2C@0.1":     {0xc7b3afaa783b6996, 0xcfdb1b74f06ef209, 0xcfdb1b74f06ef209, 0xfe35ae7899d16825},
	"Rocket-4C@0.3":     {0x776a3d6b0e64b5ec, 0x04603dd693827f69, 0x04603dd693827f69, 0x561590617ffbe714},
	"SmallBoom-1C@0.25": {0xf4c4f9ad731d090c, 0xae7ba7682175bd96, 0xae7ba7682175bd96, 0x961d8694295ba4c5},
	"SmallBoom-2C@0.1":  {0x58f48055cb820f91, 0x7b4279413eba48e6, 0x7b4279413eba48e6, 0xabc36f59d6b06c65},
	"SmallBoom-4C@0.3":  {0xb7478f33c34f2299, 0xc1c6bd1bd2db5b1f, 0xc1c6bd1bd2db5b1f, 0x88cc64deef272d76},
	"LargeBoom-1C@0.25": {0x30c00ff482d180d6, 0x41a09616c2ca8c14, 0x41a09616c2ca8c14, 0x8cc23f5c708fcae4},
	"LargeBoom-2C@0.1":  {0xa0fc64596797138c, 0x353fe279c19081a9, 0x353fe279c19081a9, 0x8ff414bd0c1e7dae},
	"LargeBoom-4C@0.3":  {0xd6ad70da8c5c8c56, 0xecf2b57b047fd840, 0xecf2b57b047fd840, 0x936b4376d6584272},
	"MegaBoom-1C@0.25":  {0x7e264c56053a6fea, 0x8964d6ef1ef3eecc, 0x8964d6ef1ef3eecc, 0x4b6944cbde5e3a26},
	"MegaBoom-2C@0.1":   {0xcf94137ba2d65d6b, 0x9c8eace25657c7be, 0x9c8eace25657c7be, 0xfd048b1ca7f543e6},
	"MegaBoom-4C@0.3":   {0x3394a00663ecf4e7, 0x45fc45904fc87e81, 0x45fc45904fc87e81, 0x556988bbed66803b},
	"heteroSoC":         {0xff609d7510cc99ab, 0x97b99955c907a290, 0x68471c0f4777b460, 0xd6d451260592cf89},
}

// digest hashes a sequence of int32 slices, each length-prefixed so that
// different splits of the same values do not collide.
func digest(slices ...[]int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	for _, s := range slices {
		put(int32(len(s)))
		for _, x := range s {
			put(x)
		}
	}
	return h.Sum64()
}

func dedupDigest(r *Result) uint64 {
	parts := [][]int32{r.Part.Assign, r.Class}
	parts = append(parts, r.Members...)
	return digest(parts...)
}

func goldenDigests(t *testing.T, c *circuit.Circuit) [4]uint64 {
	g := c.SchedGraph()
	base, err := partition.Partition(g, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Deduplicate(c, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := Deduplicate(c, g, Options{MultiModule: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.LocalityAware(r.Part.Quotient(g), r.Class)
	if err != nil {
		t.Fatal(err)
	}
	return [4]uint64{digest(base.Assign), dedupDigest(r), dedupDigest(mm), digest(s.Order)}
}

func TestGoldenPartitions(t *testing.T) {
	check := func(name string, c *circuit.Circuit) {
		got := goldenDigests(t, c)
		if want, ok := goldenPartitions[name]; !ok || got != want {
			t.Errorf("%s: output changed (pin %#x), now:\n\t%q: {%#016x, %#016x, %#016x, %#016x},",
				name, want, name, got[0], got[1], got[2], got[3])
		}
	}
	for _, f := range gen.Families {
		for _, d := range []struct {
			cores int
			scale float64
		}{{1, 0.25}, {2, 0.1}, {4, 0.3}} {
			check(fmt.Sprintf("%s-%dC@%v", f, d.cores, d.scale), gen.MustBuild(gen.Config(f, d.cores, d.scale)))
		}
	}
	c, err := firrtl.Compile(heteroSoC)
	if err != nil {
		t.Fatal(err)
	}
	check("heteroSoC", c)
}
