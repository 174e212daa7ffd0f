package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"draco/internal/hashes"
	"draco/internal/seccomp"
	"draco/internal/syscalls"
)

func figure1Profile() *seccomp.Profile {
	return &seccomp.Profile{
		Name:          "figure1",
		DefaultAction: seccomp.ActKillProcess,
		Rules: []seccomp.Rule{
			{Syscall: syscalls.MustByName("getppid")},
			{
				Syscall:     syscalls.MustByName("personality"),
				CheckedArgs: []int{0},
				AllowedSets: [][]uint64{{0xffffffff}, {0x20008}},
			},
		},
	}
}

func newChecker(t *testing.T, p *seccomp.Profile) *Checker {
	t.Helper()
	f, err := seccomp.NewFilter(p, seccomp.ShapeLinear)
	if err != nil {
		t.Fatal(err)
	}
	return NewChecker(p, seccomp.Chain{f})
}

func TestIDOnlyCaching(t *testing.T) {
	c := newChecker(t, figure1Profile())
	getppid := syscalls.MustByName("getppid").Num

	// First call: miss, filter runs, entry cached.
	out := c.Check(getppid, hashes.Args{})
	if !out.Allowed || !out.FilterRan || out.SPTHit {
		t.Fatalf("first call: %+v", out)
	}
	// Second call: SPT hit, no filter.
	out = c.Check(getppid, hashes.Args{})
	if !out.Allowed || out.FilterRan || !out.SPTHit {
		t.Fatalf("second call: %+v", out)
	}
	if c.Stats.SPTHits != 1 || c.Stats.FilterRuns != 1 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestArgCaching(t *testing.T) {
	c := newChecker(t, figure1Profile())
	sid := 135 // personality

	out := c.Check(sid, hashes.Args{0xffffffff})
	if !out.Allowed || !out.FilterRan || !out.Inserted || !out.ArgsChecked {
		t.Fatalf("first call: %+v", out)
	}
	if out.Hash == 0 {
		t.Fatal("no hash recorded on insert")
	}
	out2 := c.Check(sid, hashes.Args{0xffffffff})
	if !out2.Allowed || out2.FilterRan || !out2.VATHit {
		t.Fatalf("second call: %+v", out2)
	}
	if out2.Hash != out.Hash {
		t.Fatalf("hash changed between insert (%#x) and hit (%#x)", out.Hash, out2.Hash)
	}
	// A different allowed value is a separate VAT entry.
	out3 := c.Check(sid, hashes.Args{0x20008})
	if !out3.Allowed || !out3.FilterRan || !out3.Inserted {
		t.Fatalf("third call: %+v", out3)
	}
	// Disallowed value: filter runs every time, never cached.
	for i := 0; i < 3; i++ {
		bad := c.Check(sid, hashes.Args{0x1234})
		if bad.Allowed || !bad.FilterRan || bad.Inserted {
			t.Fatalf("bad call %d: %+v", i, bad)
		}
	}
	if c.Stats.Denied != 3 {
		t.Fatalf("denied = %d, want 3", c.Stats.Denied)
	}
}

func TestDeniedSyscallNeverCached(t *testing.T) {
	c := newChecker(t, figure1Profile())
	ptrace := syscalls.MustByName("ptrace").Num
	for i := 0; i < 2; i++ {
		out := c.Check(ptrace, hashes.Args{})
		if out.Allowed || out.SPTHit {
			t.Fatalf("call %d: %+v", i, out)
		}
	}
	if c.SPT.Len() != 0 {
		t.Fatal("denied syscall created SPT entries")
	}
}

// TestEquivalenceWithSeccomp is the core correctness property (paper §V):
// because Seccomp filters are stateless, Draco's cached decisions must be
// identical to running the filter every time.
func TestEquivalenceWithSeccomp(t *testing.T) {
	p := figure1Profile()
	c := newChecker(t, p)
	f, err := seccomp.NewFilter(p, seccomp.ShapeLinear)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	sids := []int{110, 135, 101, 0} // getppid, personality, ptrace, read
	values := []uint64{0, 0xffffffff, 0x20008, 0x1234}
	for i := 0; i < 5000; i++ {
		sid := sids[rng.Intn(len(sids))]
		var args hashes.Args
		args[0] = values[rng.Intn(len(values))]
		out := c.Check(sid, args)
		d := &seccomp.Data{Nr: int32(sid), Arch: seccomp.AuditArchX8664, Args: args}
		want := f.Check(d).Action.Allows()
		if out.Allowed != want {
			t.Fatalf("divergence at %d: sid=%d args0=%#x draco=%v seccomp=%v",
				i, sid, args[0], out.Allowed, want)
		}
	}
	if c.Stats.VATHits == 0 || c.Stats.SPTHits == 0 {
		t.Fatalf("caching never engaged: %+v", c.Stats)
	}
}

func TestQuickEquivalenceRandomProfiles(t *testing.T) {
	allCalls := syscalls.All()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &seccomp.Profile{Name: "q", DefaultAction: seccomp.ActKillProcess}
		perm := rng.Perm(len(allCalls))
		for i := 0; i < 10; i++ {
			in := allCalls[perm[i]]
			r := seccomp.Rule{Syscall: in}
			if ch := in.CheckedArgs(); len(ch) > 0 && rng.Intn(2) == 0 {
				r.CheckedArgs = ch[:1]
				r.AllowedSets = [][]uint64{{uint64(rng.Intn(3))}, {uint64(3 + rng.Intn(3))}}
			}
			p.Rules = append(p.Rules, r)
		}
		filt, err := seccomp.NewFilter(p, seccomp.ShapeLinear)
		if err != nil {
			return false
		}
		c := NewChecker(p, seccomp.Chain{filt})
		for i := 0; i < 400; i++ {
			in := allCalls[perm[rng.Intn(14)]]
			var args hashes.Args
			for j := range args {
				args[j] = uint64(rng.Intn(6))
			}
			out := c.Check(in.Num, args)
			d := &seccomp.Data{Nr: int32(in.Num), Arch: seccomp.AuditArchX8664, Args: args}
			if out.Allowed != filt.Check(d).Action.Allows() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSPTAccessedBits(t *testing.T) {
	c := newChecker(t, figure1Profile())
	getppid := syscalls.MustByName("getppid").Num
	c.Check(getppid, hashes.Args{})
	saved := c.SPT.AccessedEntries()
	if len(saved) != 1 {
		t.Fatalf("accessed entries = %d, want 1", len(saved))
	}
	c.SPT.ClearAccessed()
	if len(c.SPT.AccessedEntries()) != 0 {
		t.Fatal("ClearAccessed left accessed bits")
	}
	// A hit after clearing re-sets the bit.
	c.Check(getppid, hashes.Args{})
	if len(c.SPT.AccessedEntries()) != 1 {
		t.Fatal("hit did not re-set accessed bit")
	}
}

func TestVATLayout(t *testing.T) {
	v := NewVAT()
	b1 := v.CreateTable(135, 4, 0xff)
	b2 := v.CreateTable(56, 8, 0xff)
	if b1 == 0 || b2 == 0 {
		t.Fatal("zero base address")
	}
	if b2 <= b1 {
		t.Fatalf("tables overlap: %#x then %#x", b1, b2)
	}
	if b2-b1 < uint64(v.Table(135).SizeBytes()) {
		t.Fatalf("second table overlaps first: gap %d < size %d", b2-b1, v.Table(135).SizeBytes())
	}
	// SlotAddr stays within the section.
	for h := uint64(0); h < 100; h++ {
		addr := v.SlotAddr(135, h*2654435761)
		if addr < b1 || addr >= b1+uint64(v.Table(135).SizeBytes()) {
			t.Fatalf("slot address %#x outside section [%#x,%#x)", addr, b1, b1+uint64(v.Table(135).SizeBytes()))
		}
	}
	// Re-creating returns the same base.
	if again := v.CreateTable(135, 4, 0xff); again != b1 {
		t.Fatalf("re-create moved table: %#x vs %#x", again, b1)
	}
}

func TestVATSizeBytes(t *testing.T) {
	v := NewVAT()
	v.CreateTable(1, 4, 0xff) // 8 slots
	v.CreateTable(2, 2, 0xff) // 4 slots
	want := 8*SlotBytes + 4*SlotBytes
	if got := v.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
	if v.NumTables() != 2 {
		t.Fatalf("NumTables = %d", v.NumTables())
	}
	if s := v.SIDs(); len(s) != 2 || s[0] != 1 || s[1] != 2 {
		t.Fatalf("SIDs = %v", s)
	}
}

func TestResetClearsCaches(t *testing.T) {
	c := newChecker(t, figure1Profile())
	c.Check(135, hashes.Args{0xffffffff})
	c.Reset()
	if c.SPT.Len() != 0 || c.VAT.NumTables() != 0 {
		t.Fatal("Reset left state")
	}
	out := c.Check(135, hashes.Args{0xffffffff})
	if !out.FilterRan {
		t.Fatal("post-reset check skipped the filter")
	}
}

// TestHitReachesTableThroughSPTEntry pins the hit path's one pointer: the
// SPT entry holds the syscall's VAT table, and keeps holding the right one
// when the SPT reallocates under it and when Reset replaces both tables.
func TestHitReachesTableThroughSPTEntry(t *testing.T) {
	c := newChecker(t, figure1Profile())
	personality, getppid := 135, syscalls.MustByName("getppid").Num
	mustHit := func(when string) {
		t.Helper()
		e := c.SPT.Lookup(personality)
		if e == nil || e.table == nil || e.table != c.VAT.Table(personality) {
			t.Fatalf("%s: SPT entry does not hold the VAT's table: %+v", when, e)
		}
		// Empty the VAT's index: a hit can now only come through the entry.
		sections := c.VAT.sections
		c.VAT.sections = nil
		out := c.Check(personality, hashes.Args{0x20008})
		c.VAT.sections = sections
		if !out.VATHit || out.FilterRan {
			t.Fatalf("%s: warm check did not hit through the SPT entry: %+v", when, out)
		}
	}
	if getppid >= personality {
		t.Fatalf("getppid (%d) must index below personality (%d) for Set to grow the SPT", getppid, personality)
	}
	c.Check(getppid, hashes.Args{})
	c.Check(personality, hashes.Args{0x20008})
	mustHit("after install")

	// A higher syscall number makes Set reallocate the entries.
	before := &c.SPT.entries[personality]
	c.SPT.Set(4*personality, SPTEntry{Valid: true})
	if before == &c.SPT.entries[personality] {
		t.Fatal("SPT did not reallocate")
	}
	mustHit("after SPT growth")

	old := c.VAT.Table(personality)
	c.Reset()
	if out := c.Check(personality, hashes.Args{0x20008}); !out.FilterRan || !out.Inserted {
		t.Fatalf("first check after Reset: %+v", out)
	}
	if c.VAT.Table(personality) == old {
		t.Fatal("Reset kept the old table")
	}
	mustHit("after Reset")
}

// TestMaskedRuleTableHasHeadroom: a rule with masked conditions and no
// exact sets (Docker's clone) gets room for the values that pass, instead
// of the two slots its empty AllowedSets would size.
func TestMaskedRuleTableHasHeadroom(t *testing.T) {
	p := seccomp.DockerDefaultMasked()
	c := newChecker(t, p)
	clone := syscalls.MustByName("clone").Num
	flags := make([]uint64, 16)
	for i := range flags {
		// Distinct values with no denied namespace bit set.
		flags[i] = uint64(i+1) << 8 &^ seccomp.CloneDeniedNamespaceBits
	}
	for _, f := range flags {
		if out := c.Check(clone, hashes.Args{f}); !out.Allowed || !out.Inserted {
			t.Fatalf("first clone(%#x): %+v", f, out)
		}
	}
	for _, f := range flags {
		if out := c.Check(clone, hashes.Args{f}); !out.VATHit {
			t.Fatalf("second clone(%#x) missed the VAT: %+v", f, out)
		}
	}
	if ev := c.VAT.Table(clone).Evictions(); ev != 0 {
		t.Fatalf("%d evictions among %d values", ev, len(flags))
	}
}

// TestDroppedSetIsNotReportedInserted overfills a masked rule's table: a
// set its own relocation chain dropped is allowed, but not in the VAT, so
// the outcome must carry neither Inserted nor a hash.
func TestDroppedSetIsNotReportedInserted(t *testing.T) {
	c := newChecker(t, seccomp.DockerDefaultMasked())
	clone := syscalls.MustByName("clone").Num
	dropped, inserted := 0, uint64(0)
	for i := uint64(1); i <= 400; i++ {
		args := hashes.Args{i << 8 &^ seccomp.CloneDeniedNamespaceBits}
		out := c.Check(clone, args)
		if !out.Allowed {
			t.Fatalf("clone(%#x) denied", args[0])
		}
		if out.VATHit {
			continue // i<<8 collided with an earlier value once masked
		}
		found, _, _ := c.VAT.Lookup(clone, args)
		if out.Inserted != found {
			t.Fatalf("clone(%#x): Inserted=%v, resident=%v", args[0], out.Inserted, found)
		}
		if out.Inserted {
			inserted++
		} else {
			dropped++
			if out.Hash != 0 {
				t.Fatalf("clone(%#x): dropped set reported under hash %#x", args[0], out.Hash)
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no set was dropped: the table is no longer overfilled")
	}
	if c.Stats.Inserts != inserted {
		t.Fatalf("Stats.Inserts = %d, outcomes reported %d", c.Stats.Inserts, inserted)
	}
}

func TestSPTEntryArgCount(t *testing.T) {
	e := SPTEntry{ArgBitmask: 0xff | 0xff<<16} // args 0 and 2
	if e.ArgCount() != 2 {
		t.Fatalf("ArgCount = %d, want 2", e.ArgCount())
	}
	if (SPTEntry{}).ArgCount() != 0 {
		t.Fatal("empty entry has nonzero arg count")
	}
}

func BenchmarkCheckSPTHit(b *testing.B) {
	p := figure1Profile()
	f, _ := seccomp.NewFilter(p, seccomp.ShapeLinear)
	c := NewChecker(p, seccomp.Chain{f})
	getppid := syscalls.MustByName("getppid").Num
	c.Check(getppid, hashes.Args{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Check(getppid, hashes.Args{})
	}
}

// BenchmarkCheckerVATHit is the warm argument-checked hit: SPT index, the
// entry's table, two CRCs, one masked compare. It must not allocate.
func BenchmarkCheckerVATHit(b *testing.B) {
	p := figure1Profile()
	f, _ := seccomp.NewFilter(p, seccomp.ShapeLinear)
	c := NewChecker(p, seccomp.Chain{f})
	sets := [2]hashes.Args{{0xffffffff}, {0x20008}}
	for _, a := range sets {
		c.Check(135, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if c.Check(135, sets[i&1]).VATHit {
			hits++
		}
	}
	b.StopTimer()
	if hits != b.N {
		b.Fatalf("%d of %d checks hit the VAT", hits, b.N)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Check(135, sets[0]) }); allocs != 0 {
		b.Fatalf("VAT hit allocates %.1f times per check", allocs)
	}
}

func BenchmarkCheckMissFilterRun(b *testing.B) {
	p := figure1Profile()
	f, _ := seccomp.NewFilter(p, seccomp.ShapeLinear)
	c := NewChecker(p, seccomp.Chain{f})
	args := hashes.Args{0x1234} // never cached
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Check(135, args)
	}
}

func TestBitmaskForSubsetOfInfoBitmask(t *testing.T) {
	// The SPT bitmask derived from any profile rule must select a subset of
	// the syscall's own checkable-byte bitmask (pointer bytes never leak in).
	for _, in := range syscalls.All() {
		checked := in.CheckedArgs()
		if len(checked) == 0 {
			continue
		}
		rule := seccomp.Rule{Syscall: in, CheckedArgs: checked,
			AllowedSets: [][]uint64{make([]uint64, len(checked))}}
		m := BitmaskFor(rule)
		if m&^in.ArgBitmask() != 0 {
			t.Fatalf("%s: rule bitmask %#x escapes info bitmask %#x",
				in.Name, m, in.ArgBitmask())
		}
		if m == 0 {
			t.Fatalf("%s: empty rule bitmask for %d checked args", in.Name, len(checked))
		}
	}
}

func TestMaskedConditionDracoCaching(t *testing.T) {
	// Values passing a masked condition (SCMP_CMP_MASKED_EQ, the real
	// docker clone rule shape) are cached as exact tuples: repeat calls
	// skip the filter while the mask semantics stay enforced.
	clone := syscalls.MustByName("clone")
	prof := &seccomp.Profile{
		Name:          "masked",
		DefaultAction: seccomp.ActKillProcess,
		Rules: []seccomp.Rule{{
			Syscall:    clone,
			MaskedSets: [][]seccomp.MaskCond{{{ArgIndex: 0, Mask: 0x7E020000, Value: 0}}},
		}},
	}
	f, err := seccomp.NewFilter(prof, seccomp.ShapeLinear)
	if err != nil {
		t.Fatal(err)
	}
	chk := NewChecker(prof, seccomp.Chain{f})
	good := hashes.Args{0x01200011}
	first := chk.Check(clone.Num, good)
	if !first.Allowed || !first.FilterRan || !first.Inserted {
		t.Fatalf("first: %+v", first)
	}
	second := chk.Check(clone.Num, good)
	if !second.Allowed || second.FilterRan || !second.VATHit {
		t.Fatalf("second: %+v", second)
	}
	bad := chk.Check(clone.Num, hashes.Args{0x01200011 | 0x10000000})
	if bad.Allowed || bad.Inserted {
		t.Fatalf("bad clone: %+v", bad)
	}
	// A second distinct passing value is its own VAT entry.
	other := chk.Check(clone.Num, hashes.Args{0x003d0f00})
	if !other.Allowed || !other.Inserted {
		t.Fatalf("other: %+v", other)
	}
}
