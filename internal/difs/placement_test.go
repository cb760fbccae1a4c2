package difs

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"salamander/internal/blockdev"
	"salamander/internal/stats"
	"salamander/internal/telemetry"
)

// refPickTargets is the map-and-sort placement pickTargets replaced, kept as
// the differential reference: group the live targets with a free slot by
// node, shuffle the sorted node list, and take each chosen node's best
// candidate under the policy. Its tie-break is the full targetKey (the old
// code compared minidisk IDs only, which is ambiguous once two devices on a
// node reuse an ID).
func refPickTargets(sh *shard, rng *stats.RNG, want int, exclude map[NodeID]bool) []*target {
	free := map[*target]int{}
	byNode := map[NodeID][]*target{}
	for _, t := range sh.targets {
		if !t.live() || exclude[t.key.node] {
			continue
		}
		f, _, _, _ := sh.led.snapshot(t.key)
		if len(f) == 0 {
			continue
		}
		free[t] = len(f)
		byNode[t.key.node] = append(byNode[t.key.node], t)
	}
	nodes := make([]NodeID, 0, len(byNode))
	for nid := range byNode {
		nodes = append(nodes, nid)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	var out []*target
	for _, nid := range nodes {
		if len(out) == want {
			break
		}
		cands := byNode[nid]
		sort.Slice(cands, func(i, j int) bool {
			fi, fj := free[cands[i]], free[cands[j]]
			if fi != fj {
				if sh.cfg.Placement == PlacementPack {
					return fi < fj
				}
				return fi > fj
			}
			return cands[i].key.less(cands[j].key)
		})
		out = append(out, cands[0])
	}
	return out
}

// bareShard builds a shard over nodes whose devices are never called (nil):
// devs[i] is node i's device count. Targets are added with addTarget.
func bareShard(tb testing.TB, cfg Config, devs []int) *shard {
	tb.Helper()
	sh, err := newShard(0, cfg, newSlotLedger(), telemetry.NewRegistry(), true)
	if err != nil {
		tb.Fatal(err)
	}
	for i, n := range devs {
		sh.nodes = append(sh.nodes, &node{id: NodeID(i), devices: make([]blockdev.Device, n)})
	}
	return sh
}

// randomTargets adds up to perDev minidisks to every device of sh, IDs drawn
// from [0, perDev+2) so devices on one node collide, in a random global order
// so addTarget's sorted insert is exercised. Each minidisk gets 1..4 slots.
func randomTargets(sh *shard, rng *stats.RNG, perDev int) {
	var keys []targetKey
	for _, n := range sh.nodes {
		for dev := range n.devices {
			ids := rng.Perm(perDev + 2)[:rng.Intn(perDev+1)]
			for _, md := range ids {
				keys = append(keys, targetKey{n.id, dev, blockdev.MinidiskID(md)})
			}
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		slots := 1 + rng.Intn(4)
		sh.addTarget(k.node, k.dev, blockdev.MinidiskInfo{ID: k.md, LBAs: slots * sh.cfg.ChunkOPages})
	}
}

// TestPickTargetsMatchesReference: over randomized shards — 1-16 nodes of
// 1-3 devices with colliding minidisk IDs, free counts down to 0, live,
// draining, dead and down targets, lost targets, dropped ledger books and
// random exclusions — pickTargets returns exactly the reference's targets
// and leaves the RNG in the reference's state, under both policies.
func TestPickTargetsMatchesReference(t *testing.T) {
	rng := stats.NewRNG(34)
	for iter := 0; iter < 400; iter++ {
		cfg := DefaultConfig()
		cfg.Placement = []Placement{PlacementSpread, PlacementPack}[iter%2]
		devs := make([]int, 1+rng.Intn(16))
		for i := range devs {
			devs[i] = 1 + rng.Intn(3)
		}
		sh := bareShard(t, cfg, devs)
		sh.rng = stats.NewRNG(uint64(iter))
		randomTargets(sh, rng, 6)
		for _, tg := range sh.allTargets() {
			for n := rng.Intn(5); n > 0; n-- {
				sh.led.alloc(tg.key) // some books end full: 0 free
			}
			switch rng.Intn(10) {
			case 0:
				tg.state = tDraining
			case 1:
				tg.down = true
			case 2:
				tg.state = tDead
			case 3:
				sh.led.drop(tg.key) // another shard lost it; this view is stale
			case 4:
				sh.loseTarget(tg.key)
			}
		}
		randomTargets(sh, rng, 2) // late registrations land between survivors

		// The node lists are the target map in key order.
		var keys []targetKey
		for k := range sh.targets {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
		var listed []targetKey
		for _, tg := range sh.allTargets() {
			listed = append(listed, tg.key)
			if sh.targets[tg.key] != tg {
				t.Fatalf("iter %d: listed target %v is not the registered one", iter, tg.key)
			}
		}
		if !slices.Equal(listed, keys) {
			t.Fatalf("iter %d: node lists %v, want %v", iter, listed, keys)
		}
		for nid, nd := range devs {
			for dev := 0; dev < nd; dev++ {
				var want []targetKey
				for _, k := range keys {
					if k.node == NodeID(nid) && k.dev == dev {
						want = append(want, k)
					}
				}
				var got []targetKey
				for _, tg := range sh.targetsOfDevice(NodeID(nid), dev) {
					got = append(got, tg.key)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("iter %d: targetsOfDevice(%d, %d) = %v, want %v", iter, nid, dev, got, want)
				}
			}
		}

		for pick := 0; pick < 8; pick++ {
			exclude := map[NodeID]bool{}
			for nid := range devs {
				if rng.Intn(4) == 0 {
					exclude[NodeID(nid)] = true
				}
			}
			want := 1 + rng.Intn(4)
			refRNG := *sh.rng
			ref := refPickTargets(sh, &refRNG, want, exclude)
			got := sh.pickTargets(want, exclude)
			if !slices.Equal(got, ref) {
				t.Fatalf("iter %d pick %d (%v, want %d, exclude %v): got %v, reference %v",
					iter, pick, cfg.Placement, want, exclude, targetKeys(got), targetKeys(ref))
			}
			if *sh.rng != refRNG {
				t.Fatalf("iter %d pick %d: RNG state diverged from the reference", iter, pick)
			}
			if len(got) > 0 {
				sh.led.alloc(got[0].key) // move the free counts between picks
			}
		}
	}
}

func targetKeys(ts []*target) []targetKey {
	out := make([]targetKey, len(ts))
	for i, t := range ts {
		out[i] = t.key
	}
	return out
}

// TestPlacementDeterministicMultiDevice: two clusters built from one seed,
// every node carrying two devices whose minidisk IDs collide, place 200
// objects on identical replicas. With 16 equally free candidates per node
// the choice rests entirely on the tie-break, so a tie broken by minidisk ID
// alone, or by map order, would split the two runs.
func TestPlacementDeterministicMultiDevice(t *testing.T) {
	place := func() []string {
		c, err := NewCluster(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			c.AddNode(blockdev.NewMemDevice(8, 256), blockdev.NewMemDevice(8, 256))
		}
		var out []string
		for i := 0; i < 200; i++ {
			name := fmt.Sprintf("obj-%03d", i)
			if err := c.Put(name, objData(stats.NewRNG(uint64(i)), 1000)); err != nil {
				t.Fatal(err)
			}
			for _, ch := range objOf(c, name).chunks {
				for _, r := range ch.replicas {
					out = append(out, fmt.Sprintf("%s/%d: %v slot %d", name, ch.idx, r.tgt.key, r.slot))
				}
			}
		}
		return out
	}
	a, b := place(), place()
	if len(a) != 600 {
		t.Fatalf("placed %d replicas, want 600", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement diverged at replica %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// BenchmarkPickTargets times one placement pick (3 replicas, nothing
// excluded, as a PUT's first attempt asks) over the two fleet shapes the
// serving stack builds: core (6 nodes x 256 minidisks of 4 chunk slots) and
// mem (6 nodes x 8 minidisks of 128 slots), partly filled, under both
// policies. The figure is the placement share of difs.self_put_us.
func BenchmarkPickTargets(b *testing.B) {
	for _, fleet := range []struct {
		name        string
		disks, lbas int
	}{{"core", 256, 16}, {"mem", 8, 512}} {
		for _, p := range []Placement{PlacementSpread, PlacementPack} {
			b.Run(fleet.name+"/"+map[Placement]string{PlacementSpread: "spread", PlacementPack: "pack"}[p], func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.ChunkOPages = 4
				cfg.Placement = p
				sh := bareShard(b, cfg, []int{1, 1, 1, 1, 1, 1})
				rng := stats.NewRNG(1)
				for _, n := range sh.nodes {
					for md := 0; md < fleet.disks; md++ {
						sh.addTarget(n.id, 0, blockdev.MinidiskInfo{ID: blockdev.MinidiskID(md), LBAs: fleet.lbas})
					}
				}
				for _, tg := range sh.allTargets() {
					for n := rng.Intn(fleet.lbas / cfg.ChunkOPages); n > 0; n-- {
						sh.led.alloc(tg.key)
					}
				}
				exclude := map[NodeID]bool{}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if len(sh.pickTargets(3, exclude)) != 3 {
						b.Fatal("short pick")
					}
				}
			})
		}
	}
}
