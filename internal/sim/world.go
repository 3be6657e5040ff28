package sim

import (
	"bytes"
	"fmt"
	"time"

	"backtrace/internal/clock"
	"backtrace/internal/cluster"
	"backtrace/internal/ids"
	"backtrace/internal/msg"
	"backtrace/internal/obs"
	"backtrace/internal/site"
	"backtrace/internal/wire"
)

// Config parameterizes one simulated world. The zero value is usable;
// WithDefaults fills it in. The world build is a pure function of Config —
// the seed drives only the scheduler's choices — so a schedule file's config
// block reconstructs the exact same initial state on replay.
type Config struct {
	// Sites is the number of sites (minimum 2).
	Sites int `json:"sites"`
	// Seed drives the generating scheduler's choices. Replay ignores it.
	Seed int64 `json:"seed"`
	// Steps bounds the generated event count per run.
	Steps int `json:"steps"`
	// Threshold is the suspicion threshold T; BackThreshold is T2.
	Threshold     int `json:"threshold"`
	BackThreshold int `json:"back_threshold"`
	// ChainLen is the length of the planted live cross-site chain. Every
	// hop crosses sites, so distance estimates along it climb past the
	// thresholds and the collector back-traces live suspects — the state
	// the Section 6 barriers exist to protect.
	ChainLen int `json:"chain_len"`
	// Rings is the number of planted garbage cycles, each spanning every
	// site. The completeness oracle requires them all collected by the end
	// of the run.
	Rings int `json:"rings"`
	// Faults is the fault-schedule DSL (see faults.go). Its timed clauses
	// drive generation only; its planted-bug clauses also shape the world a
	// replay builds.
	Faults string `json:"faults,omitempty"`
	// MaxInflightTraces caps concurrent back traces per site; 0 means no
	// cap. The scheduler's deferral and admission decisions are
	// deterministic, so schedules replay exactly.
	MaxInflightTraces int `json:"max_inflight_traces,omitempty"`
	// TraceBatch groups up to this many overlapping suspects into one
	// multi-suspect back trace; 0 or 1 keeps single-suspect traces.
	TraceBatch int `json:"trace_batch,omitempty"`
	// MemoizeLive turns on generation-stamped Live-verdict memoization, so
	// the model checker exercises the memo short-circuit and its
	// commit-generation invalidation against the safety oracle.
	MemoizeLive bool `json:"memoize_live,omitempty"`
}

// WithDefaults returns the config a run actually uses: every unset field
// takes its default (3 sites, 600 steps, T=2, T2=T+2, a chain long enough
// to be suspected, 2 rings).
func (c Config) WithDefaults() Config {
	if c.Sites < 2 {
		c.Sites = 3
	}
	if c.Steps <= 0 {
		c.Steps = 600
	}
	if c.Threshold <= 0 {
		c.Threshold = 2
	}
	if c.BackThreshold <= 0 {
		c.BackThreshold = c.Threshold + 2
	}
	if c.ChainLen <= 0 {
		c.ChainLen = c.Sites + c.BackThreshold + 1
	}
	if c.Rings < 0 {
		c.Rings = 0
	} else if c.Rings == 0 {
		c.Rings = 2
	}
	return c
}

// quantum is how far virtual time advances per scheduler event.
const quantum = 2 * time.Millisecond

// Back-trace timeouts in virtual time. They are far longer than
// Steps×quantum, so they fire only when the drain phase advances the clock
// deliberately — i.e. timeouts rescue crashed-participant traces but never
// interfere with healthy runs.
const (
	simCallTimeout   = 30 * time.Second
	simReportTimeout = 60 * time.Second
)

// world is the mutable state of one simulation run: the cluster under test
// plus the bookkeeping the scheduler and the oracles need (agent variables,
// planted structures, crash checkpoints, fault state).
type world struct {
	cfg     Config
	clk     *clock.Virtual
	cluster *cluster.Cluster
	spans   *recorder

	// roots is each site's persistent root object.
	roots map[ids.SiteID]ids.Ref
	// vars is each site agent's variable multiset: references the agent
	// legally holds (each entry backed by one heap app-root count). Only
	// references in vars∪{root} may be operands of mutator events — the
	// model's stand-in for "you cannot name an object you never reached".
	vars map[ids.SiteID][]ids.Ref
	// chain and rings record the planted structures for the oracles.
	chain []ids.Ref
	rings []ids.Ref

	// begun marks sites with a computed-but-uncommitted local trace.
	begun map[ids.SiteID]bool
	// crashed sites and their crash-time durable images.
	crashed     map[ids.SiteID]bool
	checkpoints map[ids.SiteID][]byte
	// crashLost names objects destroyed by a crash: present in the dying
	// site's heap but absent from its durable checkpoint. References to
	// them dangle forever, and the safety oracle must not read that as an
	// unsafe collection — the crash, not the collector, took them.
	crashLost map[ids.Ref]struct{}
	// partitioned tracks cut links (for heal-all at drain).
	partitioned map[[2]ids.SiteID]bool
	// lossy records whether any drop/dup/crash/partition happened; it
	// scopes the completeness oracle (the paper assumes reliable links, so
	// unlimited-loss runs only promise planted-cycle collection).
	lossy bool
}

// recorder implements obs.Observer, collecting every span and typed event
// emitted anywhere in the cluster in emission order. The simulation is
// single-threaded, so the order — and, under the virtual clock, every
// timestamp — is deterministic; the digest hashes the serialized spans, and
// tests assert against the typed event stream (trace verdicts, collections).
type recorder struct {
	spans  []obs.Span
	events []obs.Event
}

func (r *recorder) OnEvent(e obs.Event) { r.events = append(r.events, e) }
func (r *recorder) OnSpan(sp obs.Span)  { r.spans = append(r.spans, sp) }

// newWorld builds the deterministic initial state:
//
//   - one persistent root per site;
//   - a live chain hanging off site 1's root whose every hop crosses sites,
//     long enough that its distance estimates exceed both thresholds —
//     suspected yet live, the state the Section 6 barriers protect (no
//     variables hold chain objects: an application root would anchor the
//     distance estimate at zero and end the suspicion);
//   - per-site bait containers: site B's agent holds a variable on a local
//     object whose only field points at a deep chain object owned elsewhere.
//     Reading the bait is the one legal way an agent acquires a reference
//     to a suspect, which it can then transfer while unlinks sever the old
//     paths — the Section 6.1 races the barriers exist to survive. (The
//     bait registers B as a source with an unknown distance, so it does not
//     lower the target's estimate until B commits a trace while the bait
//     edge or a variable still supports it.)
//   - Config.Rings garbage cycles spanning every site (the planted cycles
//     the completeness oracle tracks).
func newWorld(cfg Config) *world {
	cfg = cfg.WithDefaults()
	w := &world{
		cfg:         cfg,
		clk:         clock.NewVirtual(time.Time{}),
		spans:       &recorder{},
		roots:       make(map[ids.SiteID]ids.Ref),
		vars:        make(map[ids.SiteID][]ids.Ref),
		begun:       make(map[ids.SiteID]bool),
		crashed:     make(map[ids.SiteID]bool),
		checkpoints: make(map[ids.SiteID][]byte),
		crashLost:   make(map[ids.Ref]struct{}),
		partitioned: make(map[[2]ids.SiteID]bool),
	}
	// With no latency, loss or mailboxes the cluster is stepped: the
	// scheduler alone decides which message is delivered next. Every
	// message round-trips through the binary codec, a pure function of the
	// message, so the model checker exercises the bytes a TCP link carries.
	w.cluster = cluster.New(cluster.Options{
		NumSites: cfg.Sites,
		Codec:    wire.Binary{},
		Site: site.Config{
			Clock:              w.clk,
			SuspicionThreshold: cfg.Threshold,
			BackThreshold:      cfg.BackThreshold,
			AutoBackTrace:      true,
			CallTimeout:        simCallTimeout,
			ReportTimeout:      simReportTimeout,
			Faults:             plantedIn(cfg.Faults),
			MaxInflightTraces:  cfg.MaxInflightTraces,
			TraceBatch:         cfg.TraceBatch,
			MemoizeLive:        cfg.MemoizeLive,
			Observer:           w.spans,
		},
	})

	for i := 1; i <= cfg.Sites; i++ {
		id := ids.SiteID(i)
		w.roots[id] = w.cluster.Site(id).NewRootObject()
	}

	// Planted live chain: root@S1 → c0@S2 → c1@S3 → … with every link
	// crossing sites.
	prev := w.roots[1]
	for i := 0; i < cfg.ChainLen; i++ {
		owner := ids.SiteID(i%cfg.Sites + 1)
		if owner == prev.Site { // force an inter-site hop
			owner = owner%ids.SiteID(cfg.Sites) + 1
		}
		obj := w.cluster.Site(owner).NewObject()
		w.cluster.MustLink(prev, obj)
		w.chain = append(w.chain, obj)
		prev = obj
	}

	// Bait containers: hand each agent one deep chain object it may legally
	// reach. Targets are distinct and deeper than the back threshold, so
	// they are exactly the suspects back traces will run on.
	target := cfg.ChainLen - 1
	for i := 1; i <= cfg.Sites && target >= cfg.BackThreshold; i++ {
		b := ids.SiteID(i)
		x := w.chain[target]
		if x.Site == b { // bait must point at a remote suspect
			if target-1 < cfg.BackThreshold {
				continue
			}
			target--
			x = w.chain[target]
		}
		y := w.cluster.Site(b).NewObject()
		w.cluster.Site(b).AddAppRoot(y)
		w.vars[b] = append(w.vars[b], y)
		w.cluster.MustLink(y, x)
		target--
	}

	// Planted cycles, each with a bait of its own: the agent at the first
	// ring node's site holds a variable on a local container whose only
	// field is the ring's first cross-site edge — the same outref the cycle
	// edge ring[0]→ring[1] uses. The bait keeps the cycle live (and its
	// distance estimates anchored) until the agent unlinks it, at which
	// point the estimates climb and the cycle becomes exactly the suspect
	// state of Section 6.1: reading the bait first hands the agent a
	// reference into the cycle that it can transfer across sites while the
	// old path disappears. The drain phase drops every variable, so the
	// completeness oracle still requires all rings collected by run end.
	for r := 0; r < cfg.Rings; r++ {
		ring := w.cluster.BuildRing()
		w.rings = append(w.rings, ring...)
		b := ring[0].Site
		y := w.cluster.Site(b).NewObject()
		w.cluster.Site(b).AddAppRoot(y)
		w.vars[b] = append(w.vars[b], y)
		w.cluster.MustLink(y, ring[1])
	}
	w.cluster.Settle()
	return w
}

func (w *world) close() { w.cluster.Close() }

// holdsVar reports whether the site's agent may legally use ref: it is the
// site's root or appears in the agent's variable set.
func (w *world) holdsVar(s ids.SiteID, ref ids.Ref) bool {
	if w.roots[s] == ref {
		return true
	}
	for _, v := range w.vars[s] {
		if v == ref {
			return true
		}
	}
	return false
}

// dropVar removes one instance of ref from the agent's variable set.
func (w *world) dropVar(s ids.SiteID, ref ids.Ref) bool {
	for i, v := range w.vars[s] {
		if v == ref {
			w.vars[s] = append(w.vars[s][:i], w.vars[s][i+1:]...)
			return true
		}
	}
	return false
}

// crash checkpoints the site's durable state, marks it crashed, and loses
// everything volatile: the agent's variables, and every message in flight to
// or from the dead incarnation (the session layer's crash-epoch reset in
// miniature — see transport/reliable.go).
func (w *world) crash(s ids.SiteID) error {
	pre := w.cluster.Site(s).AuditSnapshot()
	var buf bytes.Buffer
	if err := w.cluster.Site(s).WriteCheckpoint(&buf); err != nil {
		return fmt.Errorf("sim: crash %v: %w", s, err)
	}
	w.checkpoints[s] = buf.Bytes()
	if _, ck, err := site.DecodeCheckpointAudit(bytes.NewReader(buf.Bytes())); err == nil {
		for obj := range pre.Objects {
			if _, survives := ck.Objects[obj]; !survives {
				w.crashLost[ids.MakeRef(s, obj)] = struct{}{}
			}
		}
		// An Insert in flight to the dying site records a remote holder the
		// durable image knows nothing about; the crash destroys it together
		// with the (volatile) sender-side pin that was bridging the gap. If
		// the checkpoint has no other recorded source for the target, the
		// restored incarnation will legitimately collect it and the remote
		// holder's reference dangles — crash amnesia, not unsafe collection,
		// so excuse the target like any other crash casualty. Only a third
		// party's transfer leaves such a gap: an owner lists the receiver of
		// its own transfer at send time, so the checkpoint taken here
		// already records it.
		for _, env := range w.cluster.Net().Pending() {
			if env.To != s {
				continue
			}
			ins, isInsert := env.M.(msg.Insert)
			if isInsert && ins.Target.Site == s && len(ck.InrefSources[ins.Target.Obj]) == 0 {
				w.crashLost[ins.Target] = struct{}{}
			}
		}
	}
	w.cluster.Net().Crash(s)
	w.cluster.Net().DropMatching(func(e msg.Envelope) bool {
		return e.From == s || e.To == s
	})
	w.vars[s] = nil
	w.begun[s] = false
	w.crashed[s] = true
	w.lossy = true
	return nil
}

// restart resurrects a crashed site from its checkpoint: a fresh Site with
// only the durable state, registered on the network in place of the dead
// incarnation. Restored iorefs are barrier-clean until its first local trace
// (see site/persist.go). Restore announces the new incarnation to every
// live peer over the stepped network (transport.Net.AnnounceRestart), which
// is sound because the crash dropped every message to or from the dead one.
func (w *world) restart(s ids.SiteID) error {
	data, ok := w.checkpoints[s]
	if !ok {
		return fmt.Errorf("sim: restart %v: no checkpoint", s)
	}
	ns, err := site.Restore(w.cluster.SiteConfig(s), bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("sim: restart %v: %w", s, err)
	}
	w.cluster.ReplaceSite(s, ns)
	w.cluster.Net().Restart(s)
	delete(w.checkpoints, s)
	w.crashed[s] = false
	return nil
}

// heldRefs returns every reference the site's agent may name: the site's
// root followed by its variables, in a deterministic order.
func (w *world) heldRefs(s ids.SiteID) []ids.Ref {
	out := make([]ids.Ref, 0, 1+len(w.vars[s]))
	out = append(out, w.roots[s])
	return append(out, w.vars[s]...)
}

// localContainers returns the held references that are local objects — the
// legal containers for link/unlink/read.
func (w *world) localContainers(s ids.SiteID) []ids.Ref {
	out := []ids.Ref{w.roots[s]}
	for _, v := range w.vars[s] {
		if v.Site == s {
			out = append(out, v)
		}
	}
	return out
}

// peekLink returns the head (oldest pending) message of the A→B link.
func (w *world) peekLink(a, b ids.SiteID) (msg.Envelope, bool) {
	for _, env := range w.cluster.Net().Pending() {
		if env.From == a && env.To == b {
			return env, true
		}
	}
	return msg.Envelope{}, false
}

// liveSites returns the non-crashed site identifiers in order.
func (w *world) liveSites() []ids.SiteID {
	out := make([]ids.SiteID, 0, w.cfg.Sites)
	for i := 1; i <= w.cfg.Sites; i++ {
		if !w.crashed[ids.SiteID(i)] {
			out = append(out, ids.SiteID(i))
		}
	}
	return out
}
