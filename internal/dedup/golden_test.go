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
	"Rocket-1C@0.25":    {0x103ae8c7f63d739c, 0x18d49f8d3b0a7b3b, 0x18d49f8d3b0a7b3b, 0x50915b79da0504a4},
	"Rocket-2C@0.1":     {0xc78722db03ed78a7, 0x864ed8a375b02caf, 0x864ed8a375b02caf, 0x26a7480ae43b5f21},
	"Rocket-4C@0.3":     {0xa12dc592723ef4af, 0xf576e42480e74162, 0xf576e42480e74162, 0x8620af0561d0782d},
	"SmallBoom-1C@0.25": {0xbe50b5f38cf11137, 0xa380274d5fa561ed, 0xa380274d5fa561ed, 0x754f2d77509cd1b5},
	"SmallBoom-2C@0.1":  {0x78db672fdb7f91cb, 0xca4abbe4f4951bc0, 0xca4abbe4f4951bc0, 0x7180ff96a87c2c86},
	"SmallBoom-4C@0.3":  {0x51bc7d48691dca30, 0x042a7a83ee49b64e, 0x042a7a83ee49b64e, 0x8d2ffaed3dd7b889},
	"LargeBoom-1C@0.25": {0x819ee73d9664453d, 0x06d6a05d670675ff, 0x06d6a05d670675ff, 0xb1625de131bcf65e},
	"LargeBoom-2C@0.1":  {0x3f6d50e75a6d30e8, 0x2051c26193060a00, 0x2051c26193060a00, 0xd66b55a92542b581},
	"LargeBoom-4C@0.3":  {0xe3af3bbfeb9a8e02, 0xf47e0cb6ca52f50c, 0xf47e0cb6ca52f50c, 0x253985a1217408cd},
	"MegaBoom-1C@0.25":  {0x8844ce865039c3c0, 0x26d674d300d6ff0b, 0x26d674d300d6ff0b, 0x7f910638f849fd49},
	"MegaBoom-2C@0.1":   {0x714b0301211ef494, 0x27a3cd159ba32ccb, 0x27a3cd159ba32ccb, 0x411087bff44d8b1e},
	"MegaBoom-4C@0.3":   {0x5dd3de1a139a675a, 0x836cbb79e8d128f4, 0x836cbb79e8d128f4, 0x20745bc79a9ec801},
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
