package engine

import (
	"fmt"
	"sort"
	"sync"

	"draco/internal/concurrent"
	"draco/internal/ebpf"
	"draco/internal/seccomp"
)

// Options parameterizes engine construction. Zero values select defaults,
// so callers set only what their mechanism uses.
type Options struct {
	// Profile is the policy to enforce (required).
	Profile *seccomp.Profile
	// Shards is the VAT shard fan-out for sharded engines (0 selects the
	// mechanism's default; must be a power of two).
	Shards int
	// Routing selects the shard-routing key for sharded engines:
	// "" or "syscall" (decision-exact), or "args" (spread hot syscalls).
	Routing string
	// Observer receives one callback per check (nil: none is made).
	Observer Observer
	// BPFExec selects how filters execute on the miss path: "" or "bitmap"
	// (compiled code plus the per-syscall constant-action bitmap, the
	// default), "compiled" (direct-threaded code only), or "interp" (the
	// generic interpreter — the escape hatch and differential baseline).
	BPFExec string
	// Program optionally attaches a programmable policy (internal/ebpf) on
	// top of the profile's whitelist, overriding any program the profile
	// itself carries. Profiles swapped in later via SetProfile use their own
	// Programmable field.
	Program *ebpf.Source
	// NoFastPath disables the lock-free decision plane in draco-concurrent:
	// every check takes the locked shard path. The
	// measurement baseline for the fastpath benchmark; decisions and Stats
	// are identical either way.
	NoFastPath bool
}

// execMode parses the BPFExec option. The engine layer defaults to the
// bitmap tier (seccomp.NewFilter itself defaults to plain compiled, which
// is Executed-count-identical to the interpreter).
func (o Options) execMode() (seccomp.ExecMode, error) {
	if o.BPFExec == "" {
		return seccomp.ExecBitmap, nil
	}
	m, err := seccomp.ParseExecMode(o.BPFExec)
	if err != nil {
		return 0, fmt.Errorf("engine: %v", err)
	}
	return m, nil
}

// routing parses the Routing option.
func (o Options) routing() (concurrent.Routing, error) {
	switch o.Routing {
	case "", "syscall":
		return concurrent.RouteBySyscall, nil
	case "args":
		return concurrent.RouteByArgs, nil
	default:
		return 0, fmt.Errorf("engine: unknown routing %q (syscall or args)", o.Routing)
	}
}

// Constructor builds one engine instance.
type Constructor func(opts Options) (Engine, error)

// Info describes a registered mechanism.
type Info struct {
	// Name is the registry key.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Concurrent reports whether instances are safe for concurrent use as
	// built; wrap others with Synchronized before sharing.
	Concurrent bool
	// New constructs an instance.
	New Constructor
}

var (
	regMu    sync.RWMutex
	registry = map[string]Info{}
)

// Register adds a mechanism to the registry. It panics on a duplicate or
// empty name: registration is program wiring, not runtime input.
func Register(info Info) {
	if info.Name == "" || info.New == nil {
		panic("engine: Register with empty name or nil constructor")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("engine: duplicate registration of %q", info.Name))
	}
	registry[info.Name] = info
}

// Lookup returns a mechanism's registration.
func Lookup(name string) (Info, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	info, ok := registry[name]
	return info, ok
}

// Names lists the registered mechanisms, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Infos lists the registrations, sorted by name.
func Infos() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Info, 0, len(registry))
	for _, info := range registry {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// New builds an engine by registry name.
func New(name string, opts Options) (Engine, error) {
	info, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (have %v)", name, Names())
	}
	if opts.Profile == nil {
		return nil, fmt.Errorf("engine: %s: nil profile", name)
	}
	if opts.Program != nil {
		// Apply the override by shallow-copying the profile, so every
		// constructor — and every layer that consults Profile.Programmable —
		// sees one consistent policy without its own override plumbing.
		p := *opts.Profile
		p.Programmable = opts.Program
		opts.Profile = &p
	}
	return info.New(opts)
}

// attachProgram builds the live programmable policy for a profile under the
// selected BPF execution mode — the programmable tiers track the -bpfexec
// tiers: "interp" runs the program interpreter, "compiled" the
// direct-threaded tier, and "bitmap" adds constant-action extraction. Nil
// when the profile has no program.
func attachProgram(p *seccomp.Profile, mode seccomp.ExecMode) *ebpf.Attached {
	if p.Programmable == nil {
		return nil
	}
	return p.Programmable.Attach(ebpf.AttachOpts{
		Interp:    mode == seccomp.ExecInterp,
		NoExtract: mode != seccomp.ExecBitmap,
	})
}
