package main

// Workload inputs: every call a run issues, its tenant, and the decision
// the oracle expects, all derived from the seed alone. WORKLOADS.md records
// why each workload exists.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"draco/internal/engine"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/trace"
	"draco/internal/workloads"
)

// blockCalls is the in-process timing block and the batch size of
// shm-batch64; the churn workload visits one tenant per block.
const blockCalls = 64

// spec describes one workload's load shape.
type spec struct {
	name string
	// edge is how calls reach the engine: "inproc", "shm" or "wire".
	edge string
	// callers is the number of closed-loop caller goroutines.
	callers int
	// block is the calls per caller-visible request.
	block int
	// perCall divides a request's time by block: in-process a clock pair
	// per call would double a ~160 ns check, so blocks are timed instead.
	perCall bool
	noArgs  bool
	churn   bool
	why     string
}

var specs = []spec{
	{name: "inproc-argcheck", edge: "inproc", callers: 1, block: blockCalls, perCall: true,
		why: "arg-checked profile in-process: hash, shard lock, SPT and VAT cuckoo probe do all the work, edges none"},
	{name: "inproc-idonly", edge: "inproc", callers: 1, block: blockCalls, perCall: true, noArgs: true,
		why: "ID-only profile: every call is a decision-plane constant, so hash, VAT and lock work is bypassed"},
	{name: "inproc-churn", edge: "inproc", callers: 1, block: blockCalls, perCall: true, churn: true,
		why: "16 tenants, 10% denied calls, a profile swap every 100000 checks: inserts, filter runs and rebuilds beside hits"},
	{name: "shm-single", edge: "shm", callers: 1, block: 1,
		why: "one Check per ring round trip: ring, doorbell or spin, session hub and reap dominate, the engine is ~5%"},
	{name: "shm-batch64", edge: "shm", callers: 1, block: blockCalls,
		why: "64 calls per ring round trip: the crossing is amortised, batch codec and CheckBatch dominate"},
	{name: "wire-single", edge: "wire", callers: 2, block: 1,
		why: "single Check over TCP loopback from 2 callers: socket path, framing and the coalescer dominate, shm is bypassed"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// op is one call with the decision the oracle expects for it.
type op struct {
	tenant int32
	sid    int32
	allow  bool
	args   engine.Args
}

// inputs is everything a workload run feeds the program.
type inputs struct {
	// ops is the call sequence, visited cyclically; every blockCalls-aligned
	// block belongs to one tenant.
	ops []op
	// profiles holds each tenant's profile A and, on the churn workload,
	// the profile B that SetProfile alternates with (same decisions).
	profiles [][2]*seccomp.Profile
}

const churnTenants = 16

// buildInputs generates a workload's inputs from the seed. events is the
// total call count, rounded down to whole blocks.
func buildInputs(s spec, seed int64, events int) (*inputs, error) {
	events -= events % blockCalls
	if events < blockCalls*churnTenants {
		return nil, fmt.Errorf("%d events is under one block per tenant", events)
	}
	if s.churn {
		return buildChurn(seed, events)
	}
	tr, err := generate("httpd", events, seed)
	if err != nil {
		return nil, err
	}
	opts := profilegen.Options{IncludeRuntime: true}
	p := profilegen.Complete("httpd", tr, opts)
	if s.noArgs {
		p = profilegen.NoArgs("httpd", tr, opts)
	}
	in := &inputs{ops: make([]op, len(tr)), profiles: [][2]*seccomp.Profile{{p, nil}}}
	for i, e := range tr {
		in.ops[i] = oracle(p, 0, e)
	}
	return in, nil
}

func generate(name string, n int, seed int64) (trace.Trace, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown trace workload %q", name)
	}
	return w.Generate(n, seed), nil
}

// oracle precomputes the expected decision of one call under profile p.
func oracle(p *seccomp.Profile, tenant int, e trace.Event) op {
	act := p.Evaluate(&seccomp.Data{Nr: int32(e.SID), Arch: seccomp.AuditArchX8664, Args: e.Args})
	return op{tenant: int32(tenant), sid: int32(e.SID), allow: act.Allows(), args: e.Args}
}

// buildChurn lays out the churn workload: block b belongs to tenant
// b mod 16 and continues that tenant's own trace; one call in ten is
// replaced by a call from a foreign workload's trace that the tenant's
// profile denies.
func buildChurn(seed int64, events int) (*inputs, error) {
	macro := workloads.MacroWorkloads()
	blocks := events / blockCalls
	perTenant := (blocks + churnTenants - 1) / churnTenants * blockCalls
	traces := make([]trace.Trace, churnTenants)
	in := &inputs{ops: make([]op, 0, events), profiles: make([][2]*seccomp.Profile, churnTenants)}
	issued := map[int]bool{}
	for t := range traces {
		w := macro[t%len(macro)]
		traces[t] = w.Generate(perTenant, seed+int64(100*(t/len(macro))))
		in.profiles[t][0] = profilegen.Complete(fmt.Sprintf("%s-%d", w.Name, t), traces[t], profilegen.Options{IncludeRuntime: true})
		for _, e := range traces[t] {
			issued[e.SID] = true
		}
	}
	extra, err := unusedRule(in.profiles, issued)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for t, a := range in.profiles {
		b := *a[0]
		b.Name += "-b"
		b.Rules = append(append([]seccomp.Rule(nil), a[0].Rules...), extra)
		b.SortRules()
		in.profiles[t][1] = &b
	}
	denied := make([][]op, churnTenants)
	for t := range denied {
		for _, e := range traces[(t+1)%churnTenants] {
			if o := oracle(in.profiles[t][0], t, e); !o.allow {
				denied[t] = append(denied[t], o)
			}
		}
		if len(denied[t]) == 0 {
			return nil, fmt.Errorf("tenant %d denies no call of its foreign trace", t)
		}
	}
	next := make([]int, churnTenants)
	for b := 0; b < blocks; b++ {
		t := b % churnTenants
		for _, e := range traces[t][next[t] : next[t]+blockCalls] {
			if rng.Float64() < 0.10 {
				in.ops = append(in.ops, denied[t][rng.Intn(len(denied[t]))])
			} else {
				in.ops = append(in.ops, oracle(in.profiles[t][0], t, e))
			}
		}
		next[t] += blockCalls
	}
	return in, nil
}

// unusedRule finds an ID-only rule for a syscall that no tenant profile
// whitelists and no trace issues: adding it changes no decision. It is
// borrowed from the Docker default profile so the benchmark does not
// depend on the syscall table package.
func unusedRule(profiles [][2]*seccomp.Profile, issued map[int]bool) (seccomp.Rule, error) {
next:
	for _, r := range seccomp.DockerDefault().Rules {
		if issued[r.Syscall.Num] {
			continue
		}
		for _, p := range profiles {
			if _, ok := p[0].RuleFor(r.Syscall.Num); ok {
				continue next
			}
		}
		return seccomp.Rule{Syscall: r.Syscall}, nil
	}
	return seccomp.Rule{}, fmt.Errorf("no syscall left unused by every tenant")
}

// profileJSON renders a profile the way it is uploaded to the server.
func profileJSON(p *seccomp.Profile) ([]byte, error) {
	var b bytes.Buffer
	if err := seccomp.WriteJSON(&b, p); err != nil {
		return nil, fmt.Errorf("encoding profile %s: %w", p.Name, err)
	}
	return b.Bytes(), nil
}

// sha256Hex fingerprints the inputs: every call with its expected
// decision, then every profile as uploaded.
func (in *inputs) sha256Hex() (string, error) {
	h := sha256.New()
	var rec [4 + 4 + 1 + 8*len(engine.Args{})]byte
	for i := range in.ops {
		o := &in.ops[i]
		binary.LittleEndian.PutUint32(rec[0:], uint32(o.tenant))
		binary.LittleEndian.PutUint32(rec[4:], uint32(o.sid))
		rec[8] = 0
		if o.allow {
			rec[8] = 1
		}
		for k, a := range o.args {
			binary.LittleEndian.PutUint64(rec[9+8*k:], a)
		}
		h.Write(rec[:])
	}
	for _, ab := range in.profiles {
		for _, p := range ab {
			if p == nil {
				continue
			}
			js, err := profileJSON(p)
			if err != nil {
				return "", err
			}
			h.Write(js)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
