// Package faultinject is a deterministic, seed-driven failpoint registry.
// Layers declare named sites ("flash.read.transient", "core.event.drop");
// a chaos driver arms them with a Plan — a per-hit probability, an explicit
// hit schedule, or both — and the instrumented code asks Fire() on every
// pass through the site. Everything is reproducible: a site's decisions are
// a pure function of (registry seed, site name, hit ordinal), so the same
// seed replays the same fault schedule regardless of how many other sites
// exist or in what order they were created.
//
// Zero overhead when disarmed is a hard requirement — failpoints live on
// device hot paths that the telemetry overhead budget already polices.
// Fire() on a nil *Site is a no-op returning false, so layers can hold
// possibly-nil sites and call unconditionally; on a disarmed site it is a
// single atomic pointer load.
//
// Sites are virtual-time aware: a registry given a clock (SetClock) stamps
// fault events with the emitting device's virtual time and honors a plan's
// [NotBefore, NotAfter) window. Because clocks are per-device, a registry
// should serve exactly one device; bind many registries to one shared
// telemetry registry for the fleet view.
package faultinject

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"salamander/internal/sim"
	"salamander/internal/stats"
	"salamander/internal/telemetry"
)

// Plan describes when an armed site fires. The zero Plan never fires; arm
// with at least Prob or Hits.
type Plan struct {
	// Prob fires the site with this probability on each hit, decided by a
	// deterministic per-site RNG. Must be in [0, 1].
	Prob float64
	// Hits fires the site on exactly these 1-based hit ordinals (counted
	// from arming), independent of Prob. Useful for scripted schedules.
	Hits []uint64
	// After suppresses all firing for the first After hits.
	After uint64
	// MaxFires caps the total number of fires; 0 means unlimited.
	MaxFires uint64
	// NotBefore/NotAfter bound firing to the virtual-time window
	// [NotBefore, NotAfter). Zero NotAfter means no upper bound. The window
	// is ignored when the registry has no clock.
	NotBefore, NotAfter sim.Time
}

func (p Plan) validate() error {
	if p.Prob < 0 || p.Prob > 1 {
		return fmt.Errorf("faultinject: probability %v out of [0,1]", p.Prob)
	}
	if p.NotAfter != 0 && p.NotAfter <= p.NotBefore {
		return fmt.Errorf("faultinject: empty time window [%v, %v)", p.NotBefore, p.NotAfter)
	}
	return nil
}

// armedPlan is the immutable state swapped in atomically when a site is
// armed. Mutable counters live on the Site so re-arming resets them.
type armedPlan struct {
	plan Plan
	hits map[uint64]bool
}

// Site is one named failpoint. Obtain sites from a Registry; the zero value
// is unusable, but a nil *Site is valid and never fires.
type Site struct {
	name  string
	layer string // name prefix before the first dot
	reg   *Registry

	armed atomic.Pointer[armedPlan]

	mu    sync.Mutex
	rng   *stats.RNG
	hits  uint64
	fires uint64
}

// Fire reports whether the fault should trigger on this pass. It counts the
// hit, applies the armed plan, and — when firing — increments the layer's
// faults_injected counter and emits a fault_injected trace event. Safe to
// call on a nil site (returns false) and from multiple goroutines.
func (s *Site) Fire() bool {
	if s == nil {
		return false
	}
	ap := s.armed.Load()
	if ap == nil {
		return false
	}
	return s.fireSlow(ap)
}

func (s *Site) fireSlow(ap *armedPlan) bool {
	s.mu.Lock()
	s.hits++
	hit := s.hits
	fire := false
	if hit > ap.plan.After && (ap.plan.MaxFires == 0 || s.fires < ap.plan.MaxFires) {
		if ap.hits[hit] {
			fire = true
		} else if ap.plan.Prob > 0 && s.rng.Float64() < ap.plan.Prob {
			fire = true
		}
	}
	var now sim.Time
	if fire && s.reg.clock != nil {
		now = s.reg.clock()
		if now < ap.plan.NotBefore || (ap.plan.NotAfter != 0 && now >= ap.plan.NotAfter) {
			fire = false
		}
	}
	if fire {
		s.fires++
	}
	s.mu.Unlock()
	if fire {
		s.reg.recordFire(s, now)
	}
	return fire
}

// Fires returns how many times the site has fired since it was last armed.
func (s *Site) Fires() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fires
}

// Registry owns a set of failpoint sites sharing one seed.
type Registry struct {
	mu    sync.Mutex
	seed  uint64
	sites map[string]*Site
	clock func() sim.Time

	teleMu   sync.Mutex
	teleReg  *telemetry.Registry
	tr       *telemetry.Tracer
	injected map[string]*telemetry.Counter // layer -> <layer>.faults_injected
}

// New returns a registry whose sites derive their randomness from seed.
func New(seed uint64) *Registry {
	return &Registry{seed: seed, sites: map[string]*Site{}}
}

// SetClock attaches a virtual-time source (typically a device engine's Now).
// Fault events are stamped with it and plan time windows are enforced
// against it. Registries are per-device precisely because clocks are.
func (r *Registry) SetClock(fn func() sim.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock = fn
}

// Instrument routes fault telemetry into a shared registry and tracer
// (either may be nil): every fire increments "<layer>.faults_injected" and
// emits a KindFaultInjected event with the site name as Detail.
func (r *Registry) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	r.teleMu.Lock()
	defer r.teleMu.Unlock()
	r.teleReg = reg
	r.tr = tr
	r.injected = map[string]*telemetry.Counter{}
}

// siteSeed derives a per-site seed from the registry seed and the site name,
// so decisions are independent of site creation order.
func (r *Registry) siteSeed(name string) uint64 {
	// FNV-1a over the name, mixed with the registry seed.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h ^ r.seed
}

// Site returns the named failpoint, creating it (disarmed) on first use.
// The layer prefix is everything before the first '.'.
func (r *Registry) Site(name string) *Site {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sites[name]; ok {
		return s
	}
	layer := name
	if i := strings.IndexByte(name, '.'); i > 0 {
		layer = name[:i]
	}
	s := &Site{name: name, layer: layer, reg: r, rng: stats.NewRNG(r.siteSeed(name))}
	r.sites[name] = s
	return s
}

// Arm activates the named site with the given plan, resetting its hit and
// fire counts (and its RNG, so re-arming replays identically).
func (r *Registry) Arm(name string, p Plan) error {
	if err := p.validate(); err != nil {
		return err
	}
	s := r.Site(name)
	ap := &armedPlan{plan: p}
	if len(p.Hits) > 0 {
		ap.hits = make(map[uint64]bool, len(p.Hits))
		for _, h := range p.Hits {
			ap.hits[h] = true
		}
	}
	s.mu.Lock()
	s.hits, s.fires = 0, 0
	s.rng = stats.NewRNG(r.siteSeed(name))
	s.mu.Unlock()
	s.armed.Store(ap)
	return nil
}

// recordFire publishes one injected fault to the bound telemetry.
func (r *Registry) recordFire(s *Site, now sim.Time) {
	r.teleMu.Lock()
	var c *telemetry.Counter
	if r.teleReg != nil {
		c = r.injected[s.layer]
		if c == nil {
			c = r.teleReg.Counter(s.layer + ".faults_injected")
			r.injected[s.layer] = c
		}
	}
	tr := r.tr
	r.teleMu.Unlock()
	if c != nil {
		c.Inc()
	}
	tr.Emit(telemetry.Event{
		T: now, Kind: telemetry.KindFaultInjected, Layer: s.layer, Detail: s.name,
	})
}

// Recovered increments "<layer>.faults_recovered" — called by the layer
// whose retry/remap/repair path absorbed an injected fault, so recovery
// rate (faults_recovered / faults_injected) is visible per layer.
func (r *Registry) Recovered(layer string) {
	if r == nil {
		return
	}
	r.teleMu.Lock()
	defer r.teleMu.Unlock()
	if r.teleReg == nil {
		return
	}
	r.teleReg.Counter(layer + ".faults_recovered").Inc()
}
