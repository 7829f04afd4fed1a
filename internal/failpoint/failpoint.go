// Package failpoint is a tiny, dependency-free fault-injection
// registry: named sites threaded through the networked referee's
// production code (internal/wire, internal/server, internal/client)
// that do nothing — one atomic load, zero allocations — unless a test
// arms them with a hook.
//
// The paper's model assumes each site delivers exactly one sketch
// message to the referee, reliably. The chaos suites exercise what a
// real deployment must instead survive — failed dials, interrupted
// writes, corrupted frames, absorb-time errors, slow drains — and they
// need those failures to strike deterministically at a named point,
// not whenever the scheduler happens to misbehave. A failpoint is that
// named point:
//
//	// production code
//	if err := failpoint.Inject(failpoint.ClientDial); err != nil {
//		return err
//	}
//
//	// test
//	failpoint.Enable(failpoint.ClientDial, failpoint.Times(2, errFlaky))
//	defer failpoint.Disable(failpoint.ClientDial)
//
// Sites are values of type Site, and only this package can make one,
// so production code and tests can name only declared sites: a
// misspelt site does not compile. The registry is process-global (the
// production code it is threaded through is, too); tests that arm
// sites must disarm them, and must not run in t.Parallel with other
// failpoint users of the same site.
package failpoint

import (
	"sync"
	"sync/atomic"
	"time"
)

// A Site is one declared injection point. Its field is unexported and
// the only constructor is declare, so every Site other than the zero
// value is one of the variables below. The zero Site names no site;
// test tables use it for legs that arm nothing.
type Site struct{ name string }

// String returns the site's "<package>/<operation>" name.
func (s Site) String() string { return s.name }

// declared holds every site name, so two sites cannot share one.
var declared = map[string]bool{}

// declare returns the site with the given name. It panics on a name
// declared before, which is a build mistake, not a runtime condition.
func declare(name string) Site {
	if declared[name] {
		panic("failpoint: site " + name + " declared twice")
	}
	declared[name] = true
	return Site{name}
}

// The injection sites threaded through the networked referee. The
// convention is "<package>/<operation>".
var (
	// ServerAccept fires in the coordinator's accept loop, after a
	// connection is accepted and before it is handed to a reader
	// goroutine; an error closes the connection unserved.
	ServerAccept = declare("server/accept")
	// ServerAbsorb fires in the per-group absorb path, after the
	// sketch decodes and before any group state is touched; an error
	// fails the absorb (the group must be left untouched).
	ServerAbsorb = declare("server/absorb")
	// ServerDrain fires at the start of Shutdown's connection drain;
	// hooks typically Sleep to widen the drain window. Its error is
	// ignored — a drain cannot be refused.
	ServerDrain = declare("server/drain")
	// ServerRelayFlush fires at the start of each relay flush cycle,
	// before any group is snapshotted; an error skips the whole cycle
	// (the groups stay dirty and the next cycle retries them).
	ServerRelayFlush = declare("server/relay-flush")
	// ServerRelayPush fires before each per-group upstream push in a
	// relay flush; an error fails that group's push (the group stays
	// dirty — at-least-once delivery, made safe by idempotent merges).
	ServerRelayPush = declare("server/relay-push")
	// WALAppend fires in wal.(*Log).AppendNamed and AppendFrame before
	// the record frame is written; an error fails the append (the absorb
	// is refused with a transient ack and no group or log state changes).
	WALAppend = declare("wal/append")
	// WALFsync fires before each append's fsync (SyncAlways only; the
	// seal, snapshot and close syncs do not pass through it); an error
	// fails the append after the bytes were written — the record may
	// or may not survive a crash, which idempotent replay makes safe
	// either way.
	WALFsync = declare("wal/fsync")
	// WALRotate fires before a full segment is rotated; an error skips
	// the rotation (appends continue into the oversized segment and the
	// next append retries).
	WALRotate = declare("wal/rotate")
	// WALSnapshot fires at the start of wal.(*Log).Snapshot, before the
	// temp file is created; an error skips the snapshot round (segments
	// are kept and the next round retries).
	WALSnapshot = declare("wal/snapshot")
	// WALDirSync fires before each fsync of the log directory: after a
	// rotation opens the next segment, after a snapshot's rename, and
	// after a prune. An error fails that step — a rotation counts it
	// in rotate_errors (its append still succeeds), and a snapshot
	// returns it before pruning anything.
	WALDirSync = declare("wal/dirsync")
	// WALReplay fires once before the snapshot and once before each
	// segment is replayed at boot; an error aborts recovery (the
	// coordinator refuses to serve rather than serve partial state).
	WALReplay = declare("wal/replay")
	// ClientDial fires before each dial attempt; an error counts as a
	// transient dial failure (retried with backoff).
	ClientDial = declare("client/dial")
	// ClientWrite fires before each request frame write.
	ClientWrite = declare("client/write")
	// ClientRead fires before each response frame read.
	ClientRead = declare("client/read")
	// WireEncode fires before wire.WriteFrame and wire.WriteAck write.
	WireEncode = declare("wire/encode")
	// WireDecode fires at the top of wire.Reader.Next, which every
	// frame read runs (wire.ReadFrame included).
	WireDecode = declare("wire/decode")
)

// A Hook decides what an armed site does on each hit: return an error
// to inject a failure, nil to let the call proceed (possibly after a
// side effect such as sleeping).
type Hook func() error

// hooked is one armed injection point.
type hooked struct {
	hook Hook
	hits atomic.Int64
}

// registry is the process-global site table. armed counts enabled
// sites so the disabled fast path is a single atomic load.
type registry struct {
	armed atomic.Int32
	mu    sync.Mutex // guards: sites
	sites map[Site]*hooked
}

var reg = registry{sites: make(map[Site]*hooked)}

// Inject is the call production code places at a site. With no hook
// armed anywhere it is a no-op: one atomic load, no allocation.
func Inject(site Site) error {
	if reg.armed.Load() == 0 {
		return nil
	}
	// The slow path is armed only in chaos runs.
	return inject(site)
}

// inject is the slow path: look up and run the site's hook.
func inject(site Site) error {
	reg.mu.Lock()
	s := reg.sites[site]
	reg.mu.Unlock()
	if s == nil {
		return nil
	}
	s.hits.Add(1)
	return s.hook()
}

// Enable arms a site with a hook, replacing any previous hook (and
// resetting the site's hit count).
func Enable(site Site, h Hook) {
	if h == nil {
		panic("failpoint: Enable with nil hook")
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, ok := reg.sites[site]; !ok {
		reg.armed.Add(1)
	}
	reg.sites[site] = &hooked{hook: h}
}

// Disable disarms a site. Disabling an unarmed site is a no-op.
func Disable(site Site) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, ok := reg.sites[site]; ok {
		delete(reg.sites, site)
		reg.armed.Add(-1)
	}
}

// Reset disarms every site.
func Reset() {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.sites = make(map[Site]*hooked)
	reg.armed.Store(0)
}

// Hits returns how many times the site fired since it was enabled (0
// if unarmed).
func Hits(site Site) int64 {
	reg.mu.Lock()
	s := reg.sites[site]
	reg.mu.Unlock()
	if s == nil {
		return 0
	}
	return s.hits.Load()
}

// Armed reports whether any site is currently enabled.
func Armed() bool { return reg.armed.Load() > 0 }

// Error returns a hook that always injects err.
func Error(err error) Hook {
	return func() error { return err }
}

// Times returns a hook that injects err on the first n hits and then
// lets every later hit proceed — the canonical "transient failure,
// then recovery" schedule.
func Times(n int, err error) Hook {
	var hits atomic.Int64
	return func() error {
		if hits.Add(1) <= int64(n) {
			return err
		}
		return nil
	}
}

// Sleep returns a hook that delays the call by d and proceeds.
func Sleep(d time.Duration) Hook {
	return func() error {
		time.Sleep(d)
		return nil
	}
}
