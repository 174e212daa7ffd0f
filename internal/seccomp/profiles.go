package seccomp

import (
	"draco/internal/syscalls"
)

// dockerBlocked is the set of system calls Docker's default profile (the
// Moby project profile, §II-C) denies: obscure, privileged, or
// kernel-surface-expanding calls. Everything else in the syscall table is
// allowed, which is how the real JSON profile is structured.
var dockerBlocked = []string{
	"acct", "add_key", "afs_syscall", "bpf", "clock_adjtime",
	"clock_settime", "create_module", "delete_module", "finit_module",
	"get_kernel_syms", "get_mempolicy", "getpmsg", "init_module",
	"ioperm", "iopl", "kcmp", "kexec_file_load", "kexec_load", "keyctl",
	"lookup_dcookie", "mbind", "mount", "move_mount", "move_pages",
	"name_to_handle_at", "nfsservctl", "open_by_handle_at", "open_tree",
	"perf_event_open", "pivot_root", "process_vm_readv",
	"process_vm_writev", "ptrace", "putpmsg", "query_module", "quotactl",
	"reboot", "request_key", "security", "set_mempolicy", "setns",
	"settimeofday", "swapoff", "swapon", "sysfs", "_sysctl", "tuxcall",
	"umount2", "unshare", "uselib", "userfaultfd", "ustat", "vhangup",
	"vserver", "fsopen", "fsconfig", "fsmount", "fspick",
}

// PersonalityAllowed are the five persona values Docker's default profile
// admits for the personality system call.
var PersonalityAllowed = []uint64{0x0, 0x0008, 0x20000, 0x20008, 0xffffffff}

// CloneAllowed are the two clone flag sets the default profile admits in
// this reproduction: the common glibc fork() and pthread_create() flag
// combinations. (The real profile expresses clone as a flag-mask condition;
// Seccomp whitelists in this repo are exact-value, so the two ubiquitous
// values stand in. Together with PersonalityAllowed this yields the paper's
// "7 unique argument values of the clone and personality system calls".)
var CloneAllowed = []uint64{
	0x01200011, // fork: SIGCHLD | CLONE_CHILD_SETTID | CLONE_CHILD_CLEARTID
	0x003d0f00, // pthread_create: CLONE_VM|FS|FILES|SIGHAND|THREAD|SYSVSEM|SETTLS|PARENT_SETTID|CHILD_CLEARTID
}

// DockerDefault builds the docker-default profile: a broad syscall-ID
// whitelist with argument checks only on personality and clone.
func DockerDefault() *Profile {
	blocked := map[string]bool{}
	for _, n := range dockerBlocked {
		blocked[n] = true
	}
	p := &Profile{Name: "docker-default", DefaultAction: Errno(1)} // EPERM
	for _, in := range syscalls.All() {
		if blocked[in.Name] {
			continue
		}
		switch in.Name {
		case "personality":
			p.Rules = append(p.Rules, Rule{
				Syscall:     in,
				CheckedArgs: []int{0},
				AllowedSets: sets1(PersonalityAllowed),
			})
		case "clone":
			p.Rules = append(p.Rules, Rule{
				Syscall:     in,
				CheckedArgs: []int{0},
				AllowedSets: sets1(CloneAllowed),
			})
		default:
			p.Rules = append(p.Rules, Rule{Syscall: in})
		}
	}
	p.SortRules()
	return p
}

func sets1(values []uint64) [][]uint64 {
	out := make([][]uint64, len(values))
	for i, v := range values {
		out[i] = []uint64{v}
	}
	return out
}

// gvisorSyscalls is the Sentry's host-syscall whitelist (74 calls, §II-C).
var gvisorSyscalls = []string{
	"read", "write", "close", "fstat", "lseek", "mmap", "mprotect",
	"munmap", "brk", "rt_sigaction", "rt_sigprocmask", "rt_sigreturn",
	"ioctl", "pread64", "pwrite64", "readv", "writev", "sched_yield",
	"mremap", "madvise", "shutdown", "nanosleep", "getpid", "socket",
	"connect", "accept", "sendto", "recvfrom", "sendmsg", "recvmsg",
	"bind", "listen", "getsockname", "getpeername", "socketpair",
	"setsockopt", "getsockopt", "clone", "execve", "exit", "wait4",
	"kill", "fcntl", "fsync", "fdatasync", "ftruncate", "getcwd",
	"chdir", "fchdir", "fchmod", "fchown", "umask", "gettimeofday",
	"getrlimit", "sigaltstack", "arch_prctl", "gettid", "futex",
	"sched_getaffinity", "epoll_create", "getdents64",
	"clock_gettime", "exit_group", "epoll_wait", "epoll_ctl", "tgkill",
	"openat", "newfstatat", "unlinkat", "ppoll", "dup3", "pipe2",
	"getrandom", "memfd_create",
}

// GVisorDefault reconstructs the gVisor Sentry profile: 74 syscalls with
// roughly 130 argument checks. The precise gVisor argument conditions are
// mask/compare rules on specific calls; this reconstruction distributes
// exact-value checks over the checkable (non-pointer) arguments of the
// whitelist in a deterministic way until the published count is reached.
func GVisorDefault() *Profile {
	return synthesizeArgChecks("gvisor-default", gvisorSyscalls, 130, 2)
}

// firecrackerSyscalls is the microVM whitelist (37 calls, §II-C).
var firecrackerSyscalls = []string{
	"read", "write", "open", "close", "stat", "fstat", "lseek", "mmap",
	"mprotect", "munmap", "brk", "rt_sigaction", "rt_sigprocmask",
	"rt_sigreturn", "ioctl", "readv", "writev", "pipe", "dup",
	"socket", "accept", "bind", "listen", "exit", "fcntl", "timerfd_create",
	"timerfd_settime", "epoll_create1", "epoll_ctl", "epoll_wait",
	"eventfd2", "futex", "exit_group", "openat", "recvfrom", "mremap",
	"madvise",
}

// Firecracker reconstructs the AWS Firecracker profile: 37 syscalls and 8
// argument checks.
func Firecracker() *Profile {
	return synthesizeArgChecks("firecracker", firecrackerSyscalls, 8, 1)
}

// synthesizeArgChecks builds a whitelist over names and deterministically
// adds exact-value checks on checkable arguments until argChecks
// (syscall,arg-index) pairs are checked, with valuesPerArg allowed values
// each.
func synthesizeArgChecks(name string, names []string, argChecks, valuesPerArg int) *Profile {
	p := &Profile{Name: name, DefaultAction: ActKillThread}
	remaining := argChecks
	for _, n := range names {
		in := syscalls.MustByName(n)
		r := Rule{Syscall: in}
		if remaining > 0 {
			checked := in.CheckedArgs()
			if len(checked) > remaining {
				checked = checked[:remaining]
			}
			if len(checked) > 0 {
				r.CheckedArgs = checked
				for v := 0; v < valuesPerArg; v++ {
					set := make([]uint64, len(checked))
					for i := range set {
						// Deterministic, distinct, small values typical of
						// fd/flag/cmd arguments.
						set[i] = uint64(v*8 + i)
					}
					r.AllowedSets = append(r.AllowedSets, set)
				}
				remaining -= len(checked)
			}
		}
		p.Rules = append(p.Rules, r)
	}
	p.SortRules()
	return p
}

// StripArgs returns a copy of the profile with all argument checks removed:
// the syscall-noargs variant of an application profile (§IV-A).
func StripArgs(p *Profile) *Profile {
	out := &Profile{Name: p.Name + "-noargs", DefaultAction: p.DefaultAction}
	for _, r := range p.Rules {
		out.Rules = append(out.Rules, Rule{Syscall: r.Syscall})
	}
	return out
}

// CloneDeniedNamespaceBits are the namespace-creating clone flags the real
// Moby profile denies via SCMP_CMP_MASKED_EQ: CLONE_NEWUSER, CLONE_NEWPID,
// CLONE_NEWNET, CLONE_NEWIPC, CLONE_NEWUTS, CLONE_NEWNS, CLONE_NEWCGROUP.
const CloneDeniedNamespaceBits = 0x7E020000

// DockerDefaultMasked is DockerDefault with the authentic clone rule: the
// real profile does not enumerate clone flag values, it allows clone
// whenever (flags & CloneDeniedNamespaceBits) == 0. The exact-value variant
// in DockerDefault preserves the paper's "7 unique argument values"
// accounting; this variant preserves the deployed semantics.
func DockerDefaultMasked() *Profile {
	p := DockerDefault()
	for i := range p.Rules {
		if p.Rules[i].Syscall.Name != "clone" {
			continue
		}
		p.Rules[i] = Rule{
			Syscall: p.Rules[i].Syscall,
			MaskedSets: [][]MaskCond{
				{{ArgIndex: 0, Mask: CloneDeniedNamespaceBits, Value: 0}},
			},
		}
	}
	return p
}
