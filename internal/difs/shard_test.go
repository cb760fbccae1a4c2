package difs

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"salamander/internal/stats"
)

// TestShardOfGolden pins the name→shard hash ring. These values are part of
// the on-disk contract: manifests live under their shard's prefix, so a
// changed mapping (new Go version, "improved" hash) would silently strand
// every stored object. If this test fails, the ring changed — that is a data
// migration, not a refactor.
func TestShardOfGolden(t *testing.T) {
	golden := []struct {
		name         string
		s4, s16, s1k int
	}{
		{"", 1, 13, 266},
		{"a", 2, 12, 163},
		{"obj", 0, 11, 660},
		{"alpha/beta", 2, 15, 111},
		{"o0", 0, 4, 316},
		{"o1", 2, 2, 78},
		{"o2", 2, 12, 149},
		{"o3", 0, 0, 192},
		{"manifest.json", 1, 13, 379},
		{"salamander", 2, 11, 820},
		{"difs/shard/42", 2, 2, 158},
		{"wear-level-report", 1, 13, 375},
		{"x", 3, 3, 955},
		{"yz", 3, 3, 418},
		{"pg_0001", 1, 5, 832},
		{"pg_0002", 1, 6, 625},
	}
	for _, g := range golden {
		if got := ShardOf(g.name, 4); got != g.s4 {
			t.Errorf("ShardOf(%q, 4) = %d, want %d", g.name, got, g.s4)
		}
		if got := ShardOf(g.name, 16); got != g.s16 {
			t.Errorf("ShardOf(%q, 16) = %d, want %d", g.name, got, g.s16)
		}
		if got := ShardOf(g.name, 1024); got != g.s1k {
			t.Errorf("ShardOf(%q, 1024) = %d, want %d", g.name, got, g.s1k)
		}
	}
	// Degenerate ring: everything maps to shard 0.
	for _, n := range []int{1, 0, -5} {
		if got := ShardOf("anything", n); got != 0 {
			t.Errorf("ShardOf(_, %d) = %d, want 0", n, got)
		}
	}
	// Jump hash is monotone-consistent: growing the ring only ever moves a
	// name to a NEW shard, never shuffles it among old ones.
	for _, g := range golden {
		prev := ShardOf(g.name, 4)
		for n := 5; n <= 64; n++ {
			cur := ShardOf(g.name, n)
			if cur != prev && cur != n-1 {
				t.Fatalf("ShardOf(%q) moved %d→%d when growing ring to %d", g.name, prev, cur, n)
			}
			prev = cur
		}
	}
}

func TestShardOfCoversRing(t *testing.T) {
	hit := make([]int, 16)
	for i := 0; i < 4096; i++ {
		hit[ShardOf(fmt.Sprintf("obj-%d", i), 16)]++
	}
	for s, n := range hit {
		if n == 0 {
			t.Errorf("shard %d never chosen across 4096 names", s)
		}
	}
}

// TestShardConformanceAcrossCounts runs one workload at shards ∈ {1,4,16}
// and demands identical observable behavior: same contents, same invariant
// health, same object count. The shard layer is a pure partitioning of the
// namespace — clients must not be able to tell how many shards serve them.
func TestShardConformanceAcrossCounts(t *testing.T) {
	type result struct {
		objects map[string][]byte
		infos   int
	}
	run := func(t *testing.T, shards int) result {
		cfg := DefaultConfig()
		cfg.Shards = shards
		cfg.ChunkOPages = 4
		c, _ := memCluster(t, cfg, 5, 4, 64)
		rng := stats.NewRNG(77)
		model := map[string][]byte{}
		for step := 0; step < 120; step++ {
			name := fmt.Sprintf("o%d", rng.Intn(20))
			switch rng.Intn(5) {
			case 0, 1:
				data := objData(rng, rng.Intn(30000))
				if err := c.ReplaceCtx(context.Background(), name, data); err == nil {
					model[name] = data
				}
			case 2:
				if err := c.Delete(name); err == nil {
					delete(model, name)
				}
			default:
				want, ok := model[name]
				got, err := c.Get(name)
				if ok && (err != nil || !bytes.Equal(got, want)) {
					t.Fatalf("shards=%d step %d get %q: %v", shards, step, name, err)
				}
				if !ok && err == nil {
					t.Fatalf("shards=%d step %d: deleted %q still served", shards, step, name)
				}
			}
		}
		if bad := c.CheckInvariants(); len(bad) > 0 {
			t.Fatalf("shards=%d invariants: %v", shards, bad)
		}
		if got := int(c.Stats().ShardOps); got == 0 {
			t.Fatalf("shards=%d: shard ops counter never advanced", shards)
		}
		got := map[string][]byte{}
		for name := range model {
			data, err := c.Get(name)
			if err != nil {
				t.Fatalf("shards=%d final get %q: %v", shards, name, err)
			}
			got[name] = data
		}
		return result{objects: got, infos: len(shardInfos(c))}
	}
	base := run(t, 1)
	if base.infos != 1 {
		t.Fatalf("standalone reports %d shards", base.infos)
	}
	for _, n := range []int{4, 16} {
		r := run(t, n)
		if r.infos != n {
			t.Fatalf("shards=%d reports %d shards", n, r.infos)
		}
		if len(r.objects) != len(base.objects) {
			t.Fatalf("shards=%d holds %d objects, standalone %d", n, len(r.objects), len(base.objects))
		}
		for name, want := range base.objects {
			if !bytes.Equal(r.objects[name], want) {
				t.Fatalf("shards=%d: %q diverges from standalone run", n, name)
			}
		}
	}
}

// TestCrossShardReplaceAtomicity hammers ReplaceCtx from several writers
// while readers spin across all 16 shards: a Get must never observe
// NotFound mid-replace, and must always return exactly the old or the new
// bytes — never a mix.
func TestCrossShardReplaceAtomicity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 16
	c, _ := memCluster(t, cfg, 6, 4, 128)
	rng := stats.NewRNG(31)
	const n = 24
	names := make([]string, n)
	old := map[string][]byte{}
	neu := map[string][]byte{}
	for i := range names {
		name := fmt.Sprintf("r%02d", i)
		names[i] = name
		old[name] = objData(rng, 3000)
		neu[name] = objData(rng, 3500)
		if err := c.Put(name, old[name]); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	errc := make(chan error, 64)
	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			r := stats.NewRNG(uint64(100 + g))
			for {
				select {
				case <-done:
					return
				default:
				}
				name := names[r.Intn(n)]
				got, err := c.GetCtx(ctx, name)
				if err != nil {
					errc <- fmt.Errorf("get %q mid-replace: %w", name, err)
					return
				}
				if !bytes.Equal(got, old[name]) && !bytes.Equal(got, neu[name]) {
					errc <- fmt.Errorf("get %q: bytes match neither version", name)
					return
				}
			}
		}(g)
	}
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := g; i < n; i += 4 {
				if err := c.ReplaceCtx(ctx, names[i], neu[names[i]]); err != nil {
					errc <- fmt.Errorf("replace %q: %w", names[i], err)
				}
			}
		}(g)
	}
	writers.Wait()
	close(done)
	readers.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for _, name := range names {
		got, err := c.Get(name)
		if err != nil || !bytes.Equal(got, neu[name]) {
			t.Fatalf("final get %q: err=%v new-bytes=%v", name, err, bytes.Equal(got, neu[name]))
		}
	}
	if bad := c.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants after concurrent replaces: %v", bad)
	}
}

// TestShardedMixedOpsRace is the -race stress battery: goroutines issue
// mixed Put/Get/Replace/Delete traffic over namespaces that hash across all
// shards, concurrently with repair sweeps. Run with -race this proves the
// facade's lock split (per-shard mutex + slot ledger + event fan-out) has no
// data races; without -race it still checks linearizable per-name behavior.
func TestShardedMixedOpsRace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 16
	cfg.ChunkOPages = 4
	c, _ := memCluster(t, cfg, 6, 4, 64)
	var wg sync.WaitGroup
	errc := make(chan error, 128)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(1000 + g))
			model := map[string][]byte{}
			for step := 0; step < 60; step++ {
				// Per-goroutine namespace: linearizability per name is then
				// checkable without cross-goroutine coordination.
				name := fmt.Sprintf("g%d/o%d", g, rng.Intn(8))
				switch rng.Intn(6) {
				case 0, 1:
					data := objData(rng, rng.Intn(12000))
					if err := c.ReplaceCtx(context.Background(), name, data); err == nil {
						model[name] = data
					}
				case 2:
					if err := c.Delete(name); err == nil {
						delete(model, name)
					}
				case 3:
					if _, err := c.Repair(); err != nil {
						errc <- fmt.Errorf("g%d repair: %w", g, err)
						return
					}
				default:
					want, ok := model[name]
					got, err := c.Get(name)
					if ok && (err != nil || !bytes.Equal(got, want)) {
						errc <- fmt.Errorf("g%d step %d get %q: err=%v", g, step, name, err)
						return
					}
					if !ok && err == nil {
						errc <- fmt.Errorf("g%d step %d: deleted %q still served", g, step, name)
						return
					}
				}
			}
			for name, want := range model {
				got, err := c.Get(name)
				if err != nil || !bytes.Equal(got, want) {
					errc <- fmt.Errorf("g%d final get %q: err=%v", g, name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if bad := c.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants after mixed-op stress: %v", bad)
	}
}

// TestShardBoundaryTornManifests (shard-boundary recovery): torn manifests
// planted in two different shards' prefixes are quarantined independently —
// each shard's report entry shows its own damage, the healthy shards recover
// clean, and the aggregated counter reflects both.
func TestShardBoundaryTornManifests(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 16
	c1, devs, st := metaCluster(t, cfg, 5, 4, 64)
	rng := stats.NewRNG(41)
	want := map[string][]byte{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("o%d", i)
		want[name] = objData(rng, 20000)
		if err := c1.Put(name, want[name]); err != nil {
			t.Fatal(err)
		}
	}
	// o0 and o1 live in different shards (pinned by TestShardOfGolden).
	sa, sb := ShardOf("o0", 16), ShardOf("o1", 16)
	if sa == sb {
		t.Fatalf("test needs distinct shards, got %d == %d", sa, sb)
	}
	for _, name := range []string{"o0", "o1"} {
		key := fmt.Sprintf("s%d/", ShardOf(name, 16)) + objKey(name)
		raw, err := st.Get(key)
		if err != nil {
			t.Fatalf("manifest of %q not under its shard prefix: %v", name, err)
		}
		if err := st.Put(key, raw[:len(raw)/2]); err != nil {
			t.Fatal(err)
		}
	}

	c2, rep := restartCluster(t, cfg, devs, st)
	if rep.BadManifests != 2 {
		t.Fatalf("bad manifests = %d, want 2 (report %+v)", rep.BadManifests, rep)
	}
	if rep.Objects != len(want)-2 {
		t.Fatalf("recovered %d objects, want %d", rep.Objects, len(want)-2)
	}
	if len(rep.Shards) != 16 {
		t.Fatalf("report has %d shard entries, want 16", len(rep.Shards))
	}
	for _, ss := range rep.Shards {
		wantBad := 0
		if ss.Shard == sa || ss.Shard == sb {
			wantBad = 1
		}
		if ss.BadManifests != wantBad {
			t.Errorf("shard %d: bad manifests = %d, want %d", ss.Shard, ss.BadManifests, wantBad)
		}
	}
	if got := c2.Stats().RecoverQuarantined; got < 2 {
		t.Errorf("difs.recover_quarantined = %d, want >= 2", got)
	}
	// The torn names are gone; everything else survived untouched.
	for name, w := range want {
		got, err := c2.Get(name)
		if name == "o0" || name == "o1" {
			if err == nil {
				t.Fatalf("torn-manifest object %q served", name)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("intact object %q lost alongside torn shards: %v", name, err)
		}
	}
	// Both shards preserved the untrusted bytes for the operator.
	if quar := listMeta(t, c2, quarPrefix); len(quar) != 2 {
		t.Fatalf("quarantine keys = %v, want 2", quar)
	}
	if bad := c2.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants: %v", bad)
	}
}

// TestManifestLayouts pins the two on-disk manifest layouts by key name —
// Shards=1 is the unprefixed pre-sharding v1 layout, Shards>1 stamps the
// count and prefixes every shard — and that the shard count is part of a
// store's identity: each store reopens and recovers under its own count and
// is refused under every other. No cluster may silently reinterpret a
// namespace laid out for a different ring; resharding is an explicit
// migration, never an accident.
func TestManifestLayouts(t *testing.T) {
	counts := []int{1, 4, 16}
	for _, n := range counts {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Shards = n
			c, devs, st := metaCluster(t, cfg, 4, 2, 64)
			rng := stats.NewRNG(uint64(60 + n))
			content := map[string][]byte{}
			for i := 0; i < 6; i++ {
				name := fmt.Sprintf("o%d", i)
				content[name] = objData(rng, 9000)
				if err := c.Put(name, content[name]); err != nil {
					t.Fatal(err)
				}
			}
			content["o1"] = objData(rng, 5000)
			if err := c.ReplaceCtx(context.Background(), "o1", content["o1"]); err != nil {
				t.Fatal(err)
			}
			if err := c.Delete("o2"); err != nil {
				t.Fatal(err)
			}
			delete(content, "o2")

			want := map[string]string{} // key -> required value ("" = any)
			if n == 1 {
				want[metaFormatKey] = metaFormatV1
				for name := range content {
					want[objKey(name)] = ""
				}
			} else {
				want[metaShardsKey] = fmt.Sprint(n)
				for i := 0; i < n; i++ {
					want[fmt.Sprintf("s%d/%s", i, metaFormatKey)] = metaFormatV1
				}
				for name := range content {
					want[fmt.Sprintf("s%d/%s", ShardOf(name, n), objKey(name))] = ""
				}
			}
			keys, err := st.List("")
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				val, ok := want[k]
				if !ok {
					t.Errorf("unexpected key %q in a Shards=%d store", k, n)
					continue
				}
				if raw, _ := st.Get(k); val != "" && string(raw) != val {
					t.Errorf("key %q = %q, want %q", k, raw, val)
				}
				delete(want, k)
			}
			for k := range want {
				t.Errorf("key %q missing from a Shards=%d store", k, n)
			}

			for _, other := range counts {
				ocfg := cfg
				ocfg.Shards = other
				oc, err := NewCluster(ocfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range devs {
					oc.AddNode(d)
				}
				_, err = oc.AttachMeta(st.Reopen())
				if other != n {
					if err == nil {
						t.Errorf("Shards=%d store attached by a Shards=%d cluster", n, other)
					}
					continue
				}
				if err != nil {
					t.Fatalf("reopen under the same count rejected: %v", err)
				}
				rep, err := oc.Recover()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Objects != len(content) || len(rep.Shards) != n {
					t.Errorf("recovered %d objects in %d shard rows, want %d in %d", rep.Objects, len(rep.Shards), len(content), n)
				}
				for name, w := range content {
					if got, err := oc.Get(name); err != nil || !bytes.Equal(got, w) {
						t.Errorf("object %q after reopen: err=%v", name, err)
					}
				}
			}
		})
	}
}

// TestShardInfosAndEpochs: every shard tracks its own placement epoch, and
// membership changes advance it.
func TestShardInfosAndEpochs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 8
	cfg.ChunkOPages = 4
	c, _ := memCluster(t, cfg, 4, 2, 64)
	infos := shardInfos(c)
	if len(infos) != 8 {
		t.Fatalf("%d shard infos, want 8", len(infos))
	}
	for i, si := range infos {
		if si.ID != i {
			t.Fatalf("shard info %d has ID %d", i, si.ID)
		}
		if si.Epoch == 0 {
			t.Errorf("shard %d epoch still 0 after 4 AddNodes", i)
		}
	}
	rng := stats.NewRNG(51)
	for i := 0; i < 12; i++ {
		if err := c.Put(fmt.Sprintf("e%d", i), objData(rng, 9000)); err != nil {
			t.Fatal(err)
		}
	}
	sum := 0
	for _, si := range shardInfos(c) {
		sum += si.Objects
	}
	if sum != 12 {
		t.Fatalf("shard infos count %d objects, want 12", sum)
	}
	before := shardInfos(c)
	if c.CrashNode(0) == 0 {
		t.Fatal("crash touched nothing")
	}
	after := shardInfos(c)
	bumped := false
	for i := range after {
		if after[i].Epoch > before[i].Epoch {
			bumped = true
		}
		if after[i].Epoch < before[i].Epoch {
			t.Fatalf("shard %d epoch went backwards", i)
		}
	}
	if !bumped {
		t.Error("node crash advanced no shard epoch")
	}
	if got := c.Stats().ShardEpochs; got == 0 {
		t.Error("difs.shard.epochs counter never advanced")
	}
	c.RestartNode(0)
	if _, err := c.Repair(); err != nil {
		t.Fatal(err)
	}
	if bad := c.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants: %v", bad)
	}
}

// TestShardConfigValidation: negative shard counts are rejected; the env
// override only applies when the config leaves Shards unset.
func TestShardConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = -1
	if _, err := NewCluster(cfg); err == nil {
		t.Error("negative shard count accepted")
	}
	t.Setenv("DIFS_SHARDS", "4")
	cfg.Shards = 1
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.shards) != 1 {
		t.Error("explicit Shards=1 overridden by DIFS_SHARDS env")
	}
	cfg.Shards = 0
	c, err = NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.shards) != 4 {
		t.Errorf("DIFS_SHARDS=4 not honored for unset Shards: %d", len(c.shards))
	}
	t.Setenv("DIFS_SHARDS", "banana")
	if _, err := NewCluster(cfg); err == nil {
		t.Error("garbage DIFS_SHARDS accepted")
	}
}

// shardInfo is one owned shard's control-plane summary.
type shardInfo struct {
	ID, Objects, PendingRepairs int
	Epoch                       uint64
}

// shardInfos summarizes every owned shard in shard order, with real shard
// indices (a subset-scoped cluster reports only its subset).
func shardInfos(c *Cluster) []shardInfo {
	out := make([]shardInfo, len(c.owned))
	for i, sh := range c.owned {
		sh.mu.Lock()
		sh.settleLocked()
		out[i] = shardInfo{ID: sh.id, Objects: len(sh.objects), PendingRepairs: len(sh.repairQ), Epoch: sh.epoch}
		sh.mu.Unlock()
	}
	return out
}
