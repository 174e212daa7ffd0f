package engine

import (
	"fmt"
	"sort"
	"sync"

	"draco/internal/ebpf"
	"draco/internal/seccomp"
)

// Options parameterizes engine construction. Zero values select defaults,
// so callers set only what their mechanism uses.
type Options struct {
	// Profile is the policy to enforce (required).
	Profile *seccomp.Profile
	// Shards is ignored: no engine shards its tables.
	//
	// Deprecated: kept only for the contract benchmark, which still sets
	// it; it goes with ROADMAP item 1(a).
	Shards int
	// Routing is ignored, like Shards.
	//
	// Deprecated: see Shards.
	Routing string
	// Observer receives one callback per check (nil: none is made).
	Observer Observer
	// Program optionally attaches a programmable policy (internal/ebpf) on
	// top of the profile's whitelist, overriding any program the profile
	// itself carries. Profiles swapped in later via SetProfile use their own
	// Programmable field.
	Program *ebpf.Source
}

// Constructor builds one engine instance.
type Constructor func(opts Options) (Engine, error)

// Info describes a registered mechanism.
type Info struct {
	// Name is the registry key.
	Name string
	// Concurrent reports whether instances are safe for concurrent use as
	// built; the others serve one caller at a time.
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

// attachProgram builds the live programmable policy for a profile in the
// tier every registry engine runs: compiled, with constant-action
// extraction. Nil when the profile has no program.
func attachProgram(p *seccomp.Profile) *ebpf.Attached {
	if p.Programmable == nil {
		return nil
	}
	return p.Programmable.Attach(ebpf.AttachOpts{})
}
