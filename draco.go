// Package draco is a library reproduction of "Draco: Architectural and
// Operating System Support for System Call Security" (MICRO 2020).
//
// Draco accelerates system call checking by caching system call IDs and
// argument values after a Seccomp-style filter has validated them once.
// This package exposes the reproduction's public surface:
//
//   - Security policies: exact-value whitelist profiles (Docker's default,
//     gVisor's, Firecracker's, or application-specific profiles generated
//     from recorded traces), compiled to classic-BPF filters.
//   - The Draco software checker (Checker): a System Call Permissions
//     Table plus a per-syscall cuckoo-hashed Validated Argument Table
//     consulted before the filter, shared by every calling goroutine and
//     hot-swappable, as the dracod service runs it per tenant. FilterOnly
//     is the uncached filter baseline.
//   - The Draco hardware model: SLB/STB/SPT structures evaluated by a
//     cycle-accounting full-system simulator over statistical workload
//     models of the paper's fifteen benchmarks.
//   - The experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	profile := draco.DockerDefaultProfile()
//	chk, _ := draco.NewChecker(profile)
//	dec := chk.Check(draco.Syscall("read").Num, draco.Args{3, 0, 4096})
//	fmt.Println(dec.Allowed, dec.Cached)
package draco

import (
	"fmt"
	"io"

	"draco/internal/concurrent"
	"draco/internal/core"
	"draco/internal/engine"
	"draco/internal/experiments"
	"draco/internal/hashes"
	"draco/internal/kernelmodel"
	"draco/internal/mitigations"
	"draco/internal/pledge"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/sim"
	"draco/internal/syscalls"
	"draco/internal/trace"
	"draco/internal/workloads"
)

// Args is a system call argument vector (up to six 64-bit values).
type Args = hashes.Args

// Profile is an exact-value whitelist security policy.
type Profile = seccomp.Profile

// Trace is a recorded system call stream.
type Trace = trace.Trace

// SyscallInfo describes one system call.
type SyscallInfo = syscalls.Info

// Syscall looks up a system call by name and panics if unknown; use
// LookupSyscall for fallible lookup.
func Syscall(name string) SyscallInfo {
	return syscalls.MustByName(name)
}

// LookupSyscall looks up a system call by name.
func LookupSyscall(name string) (SyscallInfo, bool) {
	return syscalls.ByName(name)
}

// SyscallByNum looks up a system call by number.
func SyscallByNum(num int) (SyscallInfo, bool) {
	return syscalls.ByNum(num)
}

// AllSyscalls returns the full x86-64 system call table, ordered by number.
func AllSyscalls() []SyscallInfo {
	return syscalls.All()
}

// --- policies -------------------------------------------------------------

// DockerDefaultProfile returns Docker's default container profile: a broad
// syscall-ID whitelist with argument checks on clone and personality.
func DockerDefaultProfile() *Profile { return seccomp.DockerDefault() }

// DockerDefaultMaskedProfile is DockerDefault with the authentic clone
// rule: allow clone only when the namespace-creating flag bits are clear
// (SCMP_CMP_MASKED_EQ), as the deployed Moby profile does.
func DockerDefaultMaskedProfile() *Profile { return seccomp.DockerDefaultMasked() }

// MaskCond is a masked argument comparison (args[i] & Mask == Value).
type MaskCond = seccomp.MaskCond

// GVisorProfile returns the gVisor Sentry whitelist (74 calls).
func GVisorProfile() *Profile { return seccomp.GVisorDefault() }

// FirecrackerProfile returns the Firecracker microVM whitelist (37 calls).
func FirecrackerProfile() *Profile { return seccomp.Firecracker() }

// ProfileFromTrace builds an application-specific profile that whitelists
// exactly the system calls — and, when withArgs is set, exactly the
// argument value tuples — observed in a trace, plus the container-runtime
// baseline set (the paper's §X-B toolkit).
func ProfileFromTrace(name string, tr Trace, withArgs bool) *Profile {
	opts := profilegen.Options{IncludeRuntime: true}
	if withArgs {
		return profilegen.Complete(name, tr, opts)
	}
	return profilegen.NoArgs(name, tr, opts)
}

// PledgeProfile lowers an OpenBSD-style promise string (e.g. "stdio rpath
// inet") to a whitelist profile, demonstrating the paper's §VIII claim that
// Draco generalizes beyond Seccomp to other checking mechanisms.
func PledgeProfile(promises string) (*Profile, error) {
	return pledge.Pledge(promises)
}

// PledgePromises lists the supported promise names.
func PledgePromises() []string { return pledge.Promises() }

// Mitigation is a CVE-derived filtering rule (paper §III).
type Mitigation = mitigations.Mitigation

// MitigationOutcome reports how a mitigation narrowed a profile.
type MitigationOutcome = mitigations.Outcome

// KnownMitigations returns the §III CVE case studies.
func KnownMitigations() []Mitigation { return mitigations.Known() }

// ApplyMitigation narrows a profile to enforce one CVE mitigation.
func ApplyMitigation(p *Profile, m Mitigation) (*Profile, MitigationOutcome, error) {
	return mitigations.Apply(p, m)
}

// ApplyAllMitigations applies every known mitigation.
func ApplyAllMitigations(p *Profile) (*Profile, map[string]MitigationOutcome, error) {
	return mitigations.ApplyAll(p)
}

// WriteProfileJSON / ReadProfileJSON serialize profiles in the Docker
// seccomp JSON format.
func WriteProfileJSON(w io.Writer, p *Profile) error { return seccomp.WriteJSON(w, p) }

// ReadProfileJSON parses a Docker-format JSON profile.
func ReadProfileJSON(r io.Reader, name string) (*Profile, error) {
	return seccomp.ReadJSON(r, name)
}

// --- checking -------------------------------------------------------------

// Decision reports one checked system call: whether it may proceed, whether
// Draco's tables served the decision without running the filter, the BPF
// instructions executed when the filter ran, and the effective action.
type Decision = core.Decision

// Call names one system call invocation in a CheckBatch request.
type Call = concurrent.Call

// CheckerStats aggregates checker behaviour over a run: total checks, SPT
// and VAT hits, filter executions, inserts, and denials.
type CheckerStats = core.Stats

// Checker validates system calls with Draco's software fast path (paper
// §V): one System Call Permissions Table and one cuckoo-hashed Validated
// Argument Table shared by every caller, consulted before the compiled
// Seccomp filter. It is the checker the dracod service holds per tenant.
//
// A Checker is safe for concurrent use: any number of goroutines may call
// Check and CheckBatch while another hot-swaps the profile with
// SetProfile. Cached hits take no lock.
type Checker struct {
	chk *concurrent.Checker
}

// NewChecker compiles the profile and builds the Draco state.
func NewChecker(p *Profile) (*Checker, error) {
	chk, err := concurrent.NewCheckerConfig(p, concurrent.Config{})
	if err != nil {
		return nil, err
	}
	return &Checker{chk: chk}, nil
}

// Check validates a system call invocation.
func (c *Checker) Check(sid int, args Args) Decision { return c.chk.CheckDecision(sid, &args) }

// CheckBatch validates a batch of calls in one pass and returns the
// decisions in call order.
func (c *Checker) CheckBatch(calls []Call) []Decision {
	return c.chk.CheckBatchDecisions(calls, nil)
}

// SetProfile hot-swaps the checker's profile without dropping in-flight
// checks; cached validations are discarded (the new policy revalidates).
func (c *Checker) SetProfile(p *Profile) error { return c.chk.SetProfile(p) }

// Stats returns cumulative statistics across profile swaps.
func (c *Checker) Stats() CheckerStats { return c.chk.Stats() }

// VATBytes returns the current memory footprint of the checker's Validated
// Argument Table.
func (c *Checker) VATBytes() int { return c.chk.VATBytes() }

// FilterOnly wraps a compiled Seccomp filter without Draco caching, for
// baseline comparisons: the filter-only engine.
type FilterOnly struct {
	eng engine.Engine
}

// NewFilterOnly compiles a profile to a plain filter.
func NewFilterOnly(p *Profile) (*FilterOnly, error) {
	eng, err := engine.New("filter-only", engine.Options{Profile: p})
	if err != nil {
		return nil, err
	}
	return &FilterOnly{eng: eng}, nil
}

// Check runs the filter.
func (f *FilterOnly) Check(sid int, args Args) Decision { return f.eng.Check(sid, args) }

// --- workloads and traces ---------------------------------------------------

// Workload is one of the paper's fifteen benchmark models.
type Workload = workloads.Workload

// Workloads returns all fifteen benchmark models (eight macro, seven micro).
func Workloads() []*Workload { return workloads.All() }

// WorkloadByName finds a benchmark model.
func WorkloadByName(name string) (*Workload, bool) { return workloads.ByName(name) }

// GenerateTrace produces a deterministic system call trace for a workload.
func GenerateTrace(w *Workload, events int, seed int64) Trace {
	return w.Generate(events, seed)
}

// GenerateTraceWithColdStart prepends the process-startup prologue (execve,
// heap setup, nLibs library mappings) to the steady-state trace: the shape
// of a short-lived FaaS invocation, and the phase in which Draco's tables
// populate (§X-C).
func GenerateTraceWithColdStart(w *Workload, events, nLibs int, seed int64) Trace {
	return w.GenerateWithColdStart(events, nLibs, seed)
}

// WriteTrace / ReadTrace serialize traces in the toolkit's text format.
func WriteTrace(w io.Writer, tr Trace) error { return trace.Write(w, tr) }

// ReadTrace parses a serialized trace.
func ReadTrace(r io.Reader) (Trace, error) { return trace.Read(r) }

// --- simulation -------------------------------------------------------------

// Mechanism selects the checking machinery simulated on the syscall path.
type Mechanism int

const (
	// Insecure performs no checking (the baseline).
	Insecure Mechanism = iota
	// Seccomp runs the compiled filter on every call.
	Seccomp
	// SoftwareDraco is the kernel-only implementation (paper §V).
	SoftwareDraco
	// HardwareDraco adds the SLB/STB/SPT hardware (paper §VI).
	HardwareDraco
)

// mechanismModes maps the Mechanism selectors onto the kernel model's
// checking modes.
var mechanismModes = map[Mechanism]kernelmodel.Mode{
	Insecure:      kernelmodel.ModeInsecure,
	Seccomp:       kernelmodel.ModeSeccomp,
	SoftwareDraco: kernelmodel.ModeDracoSW,
	HardwareDraco: kernelmodel.ModeDracoHW,
}

// PolicyKind selects the profile used in a simulation.
type PolicyKind int

const (
	// NoPolicy disables checking.
	NoPolicy PolicyKind = iota
	// DockerDefault is the generic container profile.
	DockerDefault
	// AppNoArgs is the application-specific ID-only whitelist.
	AppNoArgs
	// AppComplete checks IDs and argument values.
	AppComplete
	// AppComplete2x attaches the complete profile twice.
	AppComplete2x
)

// SimResult summarizes a simulation run.
type SimResult struct {
	// Slowdown is execution time normalized to the insecure baseline.
	Slowdown float64
	// CheckCyclesPerSyscall is the average checking cost.
	CheckCyclesPerSyscall float64
	// STBHitRate / SLBAccessHitRate / SLBPreloadHitRate report the
	// hardware structures' behaviour (hardware mechanism only).
	STBHitRate, SLBAccessHitRate, SLBPreloadHitRate float64
	// VATBytes is the process's Validated Argument Table footprint.
	VATBytes int
	// Denied counts rejected system calls.
	Denied uint64
}

// simConfig maps the Mechanism and PolicyKind selectors onto a simulator
// configuration and the insecure baseline it is normalized against,
// rejecting unknown values. Simulate and SimulateMulticore share it.
func simConfig(mech Mechanism, policy PolicyKind, events int, seed int64) (cfg, base sim.Config, err error) {
	cfg = sim.DefaultConfig()
	cfg.Events = events
	cfg.Seed = seed
	mode, ok := mechanismModes[mech]
	if !ok {
		return cfg, base, fmt.Errorf("draco: unknown mechanism %d", mech)
	}
	cfg.Mode = mode
	switch policy {
	case NoPolicy:
		cfg.Profile = sim.ProfileInsecure
	case DockerDefault:
		cfg.Profile = sim.ProfileDockerDefault
	case AppNoArgs:
		cfg.Profile = sim.ProfileNoArgs
	case AppComplete:
		cfg.Profile = sim.ProfileComplete
	case AppComplete2x:
		cfg.Profile = sim.ProfileComplete2x
	default:
		return cfg, base, fmt.Errorf("draco: unknown policy %d", policy)
	}
	base = cfg
	base.Mode = kernelmodel.ModeInsecure
	base.Profile = sim.ProfileInsecure
	return cfg, base, nil
}

// Simulate runs a workload under the given mechanism and policy with the
// paper's Table II configuration and returns normalized results.
func Simulate(w *Workload, mech Mechanism, policy PolicyKind, events int, seed int64) (SimResult, error) {
	cfg, baseCfg, err := simConfig(mech, policy, events, seed)
	if err != nil {
		return SimResult{}, err
	}
	base, err := sim.Run(w, baseCfg)
	if err != nil {
		return SimResult{}, err
	}
	m, err := sim.Run(w, cfg)
	if err != nil {
		return SimResult{}, err
	}
	res := SimResult{
		Slowdown: m.Slowdown(base),
		Denied:   m.Denied,
		VATBytes: m.VATBytes,
	}
	if m.Syscalls > 0 {
		res.CheckCyclesPerSyscall = float64(m.CheckCycles) / float64(m.Syscalls)
	}
	res.STBHitRate = m.HW.STBHitRate()
	res.SLBAccessHitRate = m.HW.SLBAccessHitRate()
	res.SLBPreloadHitRate = m.HW.SLBPreloadHitRate()
	return res, nil
}

// SimulateMulticore runs threads of one process across nCores cores
// sharing an L3 and the process's VAT (the paper's Figure 10 chip
// organization), returning the mean slowdown across cores relative to an
// insecure multicore baseline.
func SimulateMulticore(w *Workload, nCores int, mech Mechanism, policy PolicyKind, events int, seed int64) (float64, error) {
	cfg, baseCfg, err := simConfig(mech, policy, events, seed)
	if err != nil {
		return 0, err
	}
	base, err := sim.RunMulticoreShared(w, nCores, baseCfg)
	if err != nil {
		return 0, err
	}
	res, err := sim.RunMulticoreShared(w, nCores, cfg)
	if err != nil {
		return 0, err
	}
	return res.MeanSlowdown(base), nil
}

// --- experiments ------------------------------------------------------------

// ExperimentIDs lists the regenerable tables and figures.
func ExperimentIDs() []string {
	reg := experiments.Registry()
	out := make([]string, len(reg))
	for i, r := range reg {
		out[i] = r.ID
	}
	return out
}

// RunExperiment regenerates one paper table/figure and returns its text
// rendering. Set quick for reduced event counts.
func RunExperiment(id string, quick bool) (string, error) {
	r, ok := experiments.ByID(id)
	if !ok {
		return "", fmt.Errorf("draco: unknown experiment %q", id)
	}
	opts := experiments.DefaultOptions()
	if quick {
		opts = experiments.QuickOptions()
	}
	res, err := r.Run(opts)
	if err != nil {
		return "", err
	}
	return res.String(), nil
}
