package blockdev_test

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"salamander/internal/blockdev"
	"salamander/internal/store"
)

var errCut = errors.New("store cut")

// cutStore applies the first left mutating calls (Put, Delete) and fails
// every later one: the store as a process killed at that point left it.
// A negative left applies everything.
type cutStore struct {
	store.Store
	left  int
	calls int // mutating calls applied
}

func (s *cutStore) take() error {
	if s.left == 0 {
		return errCut
	}
	s.left--
	s.calls++
	return nil
}

func (s *cutStore) Put(key string, data []byte) error {
	if err := s.take(); err != nil {
		return err
	}
	return s.Store.Put(key, data)
}

func (s *cutStore) Delete(key string) error {
	if err := s.take(); err != nil {
		return err
	}
	return s.Store.Delete(key)
}

type addr struct {
	md  blockdev.MinidiskID
	lba int
}

// crashModel is what a device should hold after a prefix of a script:
// each minidisk (true while draining) and each page the script touched
// (nil once trimmed).
type crashModel struct {
	disks map[blockdev.MinidiskID]bool
	pages map[addr][]byte
}

func (m crashModel) clone() crashModel {
	return crashModel{maps.Clone(m.disks), maps.Clone(m.pages)}
}

// holds reports whether a read of a returning (buf, err) is what m says.
func (m crashModel) holds(a addr, buf []byte, err error) bool {
	if _, ok := m.disks[a.md]; !ok {
		return errors.Is(err, blockdev.ErrNoSuchMinidisk)
	}
	if want := m.pages[a]; want != nil {
		return err == nil && bytes.Equal(buf, want)
	}
	return err == nil && isZero(buf)
}

func (m crashModel) live() []blockdev.MinidiskID {
	var out []blockdev.MinidiskID
	for id, draining := range m.disks {
		if !draining {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

type crashOp struct {
	name  string
	do    func(d durableDev) error
	apply func(m *crashModel)
}

func writeOp(md blockdev.MinidiskID, lba int, seed byte) crashOp {
	return crashOp{
		name:  fmt.Sprintf("write %d/%d", md, lba),
		do:    func(d durableDev) error { return d.Write(md, lba, page(seed)) },
		apply: func(m *crashModel) { m.pages[addr{md, lba}] = page(seed) },
	}
}

func trimOp(md blockdev.MinidiskID, lba int) crashOp {
	return crashOp{
		name:  fmt.Sprintf("trim %d/%d", md, lba),
		do:    func(d durableDev) error { return d.Trim(md, lba) },
		apply: func(m *crashModel) { m.pages[addr{md, lba}] = nil },
	}
}

// memCrashScript runs on openMem's three minidisks (IDs 0-2): add, write,
// overwrite, trim, fail, drain.
func memCrashScript() []crashOp {
	mem := func(d durableDev) *blockdev.DurableDevice { return d.(*blockdev.DurableDevice) }
	return []crashOp{
		{
			name: "add 3",
			do: func(d durableDev) error {
				id, err := mem(d).AddMinidisk(16, 0)
				if err == nil && id != 3 {
					return fmt.Errorf("added minidisk %d, want 3", id)
				}
				return err
			},
			apply: func(m *crashModel) { m.disks[3] = false },
		},
		writeOp(3, 0, 1),
		writeOp(0, 1, 2),
		writeOp(1, 2, 3),
		writeOp(3, 0, 4),
		trimOp(0, 1),
		{
			name:  "fail 1",
			do:    func(d durableDev) error { return mem(d).FailMinidisk(1) },
			apply: func(m *crashModel) { delete(m.disks, 1) },
		},
		{
			name:  "drain 3",
			do:    func(d durableDev) error { return mem(d).DrainMinidisk(3) },
			apply: func(m *crashModel) { m.disks[3] = true },
		},
	}
}

// coreCrashScript writes enough pages over two minidisks to cross a wear
// checkpoint, trims one, and flushes.
func coreCrashScript() []crashOp {
	var ops []crashOp
	for i := 0; i < 70; i++ {
		ops = append(ops, writeOp(blockdev.MinidiskID(i%2), i%16, byte(i)))
	}
	flush := func(d durableDev) error { return d.(interface{ Flush() error }).Flush() }
	return append(ops, trimOp(1, 5), crashOp{name: "flush", do: flush, apply: func(*crashModel) {}})
}

// TestDurableEveryCrashPoint cuts the store after every mutating call of a
// fixed op script and reopens what the cut left. Open must succeed with
// nothing damaged, every acked op must read back, the op in flight at the
// cut must read as its before or its after state, and an acked fail must
// leave no pages behind.
func TestDurableEveryCrashPoint(t *testing.T) {
	scripts := map[string][]crashOp{"mem": memCrashScript(), "core": coreCrashScript()}
	for _, k := range durableKinds {
		t.Run(k.name, func(t *testing.T) {
			script := scripts[k.name]
			total := runCut(t, k, script, -1)
			for n := 0; n <= total; n++ {
				runCut(t, k, script, n)
			}
		})
	}
}

// runCut runs script on a fresh device whose store is cut after n mutating
// calls (never if n < 0), checks a reopen of what the cut left, and returns
// how many mutating calls the script made.
func runCut(t *testing.T, k durableKind, script []crashOp, n int) int {
	t.Helper()
	st := store.NewMem()
	cut := &cutStore{Store: st, left: -1}
	d := k.open(t, cut)
	before := crashModel{disks: map[blockdev.MinidiskID]bool{}, pages: map[addr][]byte{}}
	for _, m := range d.Minidisks() {
		before.disks[m.ID] = false
	}
	initial := before.clone()
	cut.left, cut.calls = n, 0
	i := 0
	for ; i < len(script) && script[i].do(d) == nil; i++ {
		script[i].apply(&before)
	}
	if n < 0 && i < len(script) {
		t.Fatalf("uncut run failed at %s", script[i].name)
	}
	after := before.clone()
	at := "nothing"
	if i < len(script) {
		script[i].apply(&after)
		at = script[i].name
	}
	at = fmt.Sprintf("cut after %d calls, %s in flight", n, at)
	checkCrashPoint(t, at, k.open(t, st.Reopen()), st, initial, before, after)
	return cut.calls
}

func checkCrashPoint(t *testing.T, at string, d durableDev, st store.Store, initial, before, after crashModel) {
	t.Helper()
	if dmg := d.Damaged(); len(dmg) != 0 {
		t.Fatalf("%s: reopen damaged %v", at, dmg)
	}
	var live []blockdev.MinidiskID
	for _, m := range d.Minidisks() {
		live = append(live, m.ID)
	}
	if !slices.Equal(live, before.live()) && !slices.Equal(live, after.live()) {
		t.Fatalf("%s: minidisks %v, want %v or %v", at, live, before.live(), after.live())
	}
	addrs := map[addr]bool{}
	for _, m := range []crashModel{initial, before, after} {
		for a := range m.pages {
			addrs[a] = true
		}
		for md := range m.disks {
			addrs[addr{md, 0}] = true
		}
	}
	buf := make([]byte, blockdev.OPageSize)
	for a := range addrs {
		err := d.Read(a.md, a.lba, buf)
		if !before.holds(a, buf, err) && !after.holds(a, buf, err) {
			t.Fatalf("%s: md %d lba %d reads neither its before nor its after state (err %v)", at, a.md, a.lba, err)
		}
	}
	for md := range initial.disks {
		if _, ok := before.disks[md]; ok {
			continue
		}
		if keys, _ := st.List(fmt.Sprintf("pg/%d/", md)); len(keys) != 0 {
			t.Fatalf("%s: failed minidisk %d left pages %v", at, md, keys)
		}
	}
}
