// Package faults is the deterministic fault-injection subsystem: a
// seed-driven injector that perturbs the simulated machine's inter-chiplet
// links and the global CP's SRAM state so the robustness machinery (the CP
// watchdog, retry/backoff, and graceful degradation to the baseline
// flush+invalidate) can be exercised and measured.
//
// Three fault classes are modeled:
//
//   - Message loss and delay on the global CP <-> local CP path: an implicit
//     acquire/release request can be dropped before it reaches the local CP
//     (the operation never executes) or its completion ack can be dropped or
//     delayed on the way back (the operation executed but the CP cannot know).
//   - Transient link degradation: for a window of cycles the inter-chiplet
//     links run at a latency/bandwidth multiplier, as after a lane failure or
//     thermal throttle.
//   - Chiplet Coherence Table parity errors: an SRAM row is detected corrupt
//     at launch time, so none of the table's tracked state can be trusted for
//     that boundary.
//
// Every decision is drawn from a splitmix64 stream seeded by Config.Seed, so
// a fault schedule is a pure function of (seed, simulation event order):
// campaigns are reproducible and failures bisectable. A nil *Injector is a
// valid no-fault sink, mirroring the stats.Sheet and trace.Recorder
// conventions, so instrumented paths pay one nil check when injection is off
// and are byte-identical to an uninstrumented build.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Config selects the fault campaign. The zero value injects nothing;
// Enabled reports whether any fault class is active.
type Config struct {
	// Seed seeds the injector's deterministic RNG stream.
	Seed uint64 `json:"seed,omitempty"`

	// ReqDropRate is the probability that a synchronization request (an
	// implicit acquire/release sent to a local CP) is lost before it
	// executes; the CP watchdog times out and retries.
	ReqDropRate float64 `json:"req_drop_rate,omitempty"`
	// AckDropRate is the probability that an executed operation's ack is
	// lost on the way back; the operation happened but the CP must assume
	// it did not.
	AckDropRate float64 `json:"ack_drop_rate,omitempty"`
	// AckDelayRate is the probability a delivered ack is late by
	// AckDelayCycles (exposed serially, no retry).
	AckDelayRate float64 `json:"ack_delay_rate,omitempty"`
	// AckDelayCycles is the extra latency of a delayed ack. Default 500.
	AckDelayCycles int `json:"ack_delay_cycles,omitempty"`

	// LinkDegradeRate is the per-kernel-boundary probability that a link
	// degradation window opens (when none is active).
	LinkDegradeRate float64 `json:"link_degrade_rate,omitempty"`
	// LinkDegradeFactor multiplies remote latency and divides inter-chiplet
	// bandwidth while a window is active. Default 4.
	LinkDegradeFactor float64 `json:"link_degrade_factor,omitempty"`
	// LinkDegradeCycles is the window length in core cycles. Default 50000.
	LinkDegradeCycles uint64 `json:"link_degrade_cycles,omitempty"`

	// TableParityRate is the per-kernel-launch probability that a Chiplet
	// Coherence Table parity error is detected, forcing the conservative
	// reset and a baseline-equivalent full synchronization for that boundary.
	TableParityRate float64 `json:"table_parity_rate,omitempty"`

	// MaxAttempts bounds the watchdog's retransmissions of one operation;
	// after MaxAttempts un-acked tries the CP degrades gracefully (full
	// L2 flush+invalidate plus a conservative table mark). Default 4.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// TimeoutCycles is the watchdog's initial ack timeout; it backs off
	// exponentially (x2 per retry) up to BackoffCapCycles. Default 2000.
	TimeoutCycles int `json:"timeout_cycles,omitempty"`
	// BackoffCapCycles caps the exponential backoff. Default 16x
	// TimeoutCycles.
	BackoffCapCycles int `json:"backoff_cap_cycles,omitempty"`
}

// Enabled reports whether the configuration injects any fault at all.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return c.ReqDropRate > 0 || c.AckDropRate > 0 || c.AckDelayRate > 0 ||
		c.LinkDegradeRate > 0 || c.TableParityRate > 0
}

// withDefaults fills the magnitude/watchdog knobs that are zero.
func (c Config) withDefaults() Config {
	if c.AckDelayCycles <= 0 {
		c.AckDelayCycles = 500
	}
	if c.LinkDegradeFactor <= 1 {
		c.LinkDegradeFactor = 4
	}
	if c.LinkDegradeCycles == 0 {
		c.LinkDegradeCycles = 50_000
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.TimeoutCycles <= 0 {
		c.TimeoutCycles = 2000
	}
	if c.BackoffCapCycles <= 0 {
		c.BackoffCapCycles = 16 * c.TimeoutCycles
	}
	return c
}

// Canonical returns the configuration with every defaultable knob made
// explicit, so equivalent spellings (zero vs. explicit default) hash alike
// in content-addressed job keys.
func (c Config) Canonical() Config { return c.withDefaults() }

// ParseSpec parses a comma-separated fault specification like
//
//	drop=0.1,delay=0.05,link=0.01,parity=0.002
//
// into a Config. Recognized keys (rates are probabilities in [0,1]):
//
//	drop=R          both req-drop and ack-drop
//	req-drop=R      request loss rate
//	ack-drop=R      ack loss rate
//	delay=R         ack delay rate
//	delay-cycles=N  delayed-ack latency
//	link=R          link-degradation window rate (per kernel boundary)
//	link-factor=F   degradation latency multiplier / bandwidth divisor
//	link-window=N   degradation window length in cycles
//	parity=R        table parity-error rate (per launch)
//	attempts=N      watchdog attempts before graceful degradation
//	timeout=N       initial watchdog timeout in cycles
//	backoff-cap=N   backoff cap in cycles
func ParseSpec(spec string) (*Config, error) {
	c := &Config{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faults: field %q is not key=value", field)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		setRate := func(dst ...*float64) error {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return fmt.Errorf("faults: %s=%q is not a rate in [0,1]", key, val)
			}
			for _, d := range dst {
				*d = f
			}
			return nil
		}
		setInt := func(dst *int) error {
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fmt.Errorf("faults: %s=%q is not a non-negative integer", key, val)
			}
			*dst = n
			return nil
		}
		var err error
		switch key {
		case "drop":
			err = setRate(&c.ReqDropRate, &c.AckDropRate)
		case "req-drop":
			err = setRate(&c.ReqDropRate)
		case "ack-drop":
			err = setRate(&c.AckDropRate)
		case "delay":
			err = setRate(&c.AckDelayRate)
		case "delay-cycles":
			err = setInt(&c.AckDelayCycles)
		case "link":
			err = setRate(&c.LinkDegradeRate)
		case "link-factor":
			f, ferr := strconv.ParseFloat(val, 64)
			if ferr != nil || f < 1 {
				err = fmt.Errorf("faults: link-factor=%q must be >= 1", val)
			} else {
				c.LinkDegradeFactor = f
			}
		case "link-window":
			n, nerr := strconv.ParseUint(val, 10, 64)
			if nerr != nil {
				err = fmt.Errorf("faults: link-window=%q is not a cycle count", val)
			} else {
				c.LinkDegradeCycles = n
			}
		case "parity":
			err = setRate(&c.TableParityRate)
		case "attempts":
			err = setInt(&c.MaxAttempts)
		case "timeout":
			err = setInt(&c.TimeoutCycles)
		case "backoff-cap":
			err = setInt(&c.BackoffCapCycles)
		default:
			err = fmt.Errorf("faults: unknown key %q (want %s)", key, strings.Join(specKeys, ", "))
		}
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

var specKeys = func() []string {
	ks := []string{"drop", "req-drop", "ack-drop", "delay", "delay-cycles",
		"link", "link-factor", "link-window", "parity", "attempts", "timeout", "backoff-cap"}
	sort.Strings(ks)
	return ks
}()

// Counters tallies what the injector and the watchdog actually did.
type Counters struct {
	ReqDrops      uint64 `json:"req_drops"`
	AckDrops      uint64 `json:"ack_drops"`
	AckDelays     uint64 `json:"ack_delays"`
	DelayCycles   uint64 `json:"delay_cycles"`
	LinkWindows   uint64 `json:"link_windows"`
	ParityErrors  uint64 `json:"parity_errors"`
	Retries       uint64 `json:"retries"`
	BackoffCycles uint64 `json:"backoff_cycles"`
	Degradations  uint64 `json:"degradations"`
}

// Injector draws fault decisions from a deterministic stream and accounts
// them into the run's stats sheet and trace. It is single-threaded, like the
// simulator that consults it. A nil *Injector injects nothing.
type Injector struct {
	cfg   Config
	state uint64 // splitmix64 state
	sheet *stats.Sheet
	rec   *trace.Recorder

	now       uint64
	linkUntil uint64

	c Counters
}

// NewInjector builds an injector for cfg, accounting into sheet and rec
// (either may be nil).
func NewInjector(cfg Config, sheet *stats.Sheet, rec *trace.Recorder) *Injector {
	cfg = cfg.withDefaults()
	return &Injector{cfg: cfg, state: cfg.Seed, sheet: sheet, rec: rec}
}

// next advances the splitmix64 stream: deterministic, platform-independent,
// and independent of Go's math/rand versioning.
func (i *Injector) next() uint64 {
	i.state += 0x9e3779b97f4a7c15
	z := i.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance draws one uniform variate and reports whether it fell under p.
// p <= 0 consumes nothing, so enabling one fault class does not shift the
// streams of the others.
func (i *Injector) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(i.next()>>11)/(1<<53) < p
}

// SetNow advances the injector's clock; the CP runner drives this at every
// dispatch step, like the trace recorder's clock.
func (i *Injector) SetNow(t uint64) {
	if i == nil {
		return
	}
	i.now = t
}

// MaxAttempts returns the watchdog's attempt bound (>= 1).
func (i *Injector) MaxAttempts() int { return i.cfg.MaxAttempts }

// TimeoutCycles returns the watchdog's initial ack timeout.
func (i *Injector) TimeoutCycles() int { return i.cfg.TimeoutCycles }

// BackoffCapCycles returns the exponential-backoff cap.
func (i *Injector) BackoffCapCycles() int { return i.cfg.BackoffCapCycles }

// DropRequest decides whether a synchronization request to chiplet's local
// CP is lost before executing.
func (i *Injector) DropRequest(chiplet int) bool {
	if i == nil || !i.chance(i.cfg.ReqDropRate) {
		return false
	}
	i.c.ReqDrops++
	i.sheet.Inc(stats.FaultReqDrops)
	i.rec.Fault(chiplet, "req-drop", 0)
	return true
}

// DropAck decides whether an executed operation's completion ack is lost.
func (i *Injector) DropAck(chiplet int) bool {
	if i == nil || !i.chance(i.cfg.AckDropRate) {
		return false
	}
	i.c.AckDrops++
	i.sheet.Inc(stats.FaultAckDrops)
	i.rec.Fault(chiplet, "ack-drop", 0)
	return true
}

// AckDelay returns the extra cycles a delivered ack is late by (0 = on time).
func (i *Injector) AckDelay(chiplet int) int {
	if i == nil || !i.chance(i.cfg.AckDelayRate) {
		return 0
	}
	d := i.cfg.AckDelayCycles
	i.c.AckDelays++
	i.c.DelayCycles += uint64(d)
	i.sheet.Inc(stats.FaultAckDelays)
	i.sheet.Add(stats.FaultDelayCycles, uint64(d))
	i.rec.Fault(chiplet, "ack-delay", uint64(d))
	return d
}

// TableParity decides whether this kernel launch detects a Chiplet Coherence
// Table parity error.
func (i *Injector) TableParity() bool {
	if i == nil || !i.chance(i.cfg.TableParityRate) {
		return false
	}
	i.c.ParityErrors++
	i.sheet.Inc(stats.FaultTableParity)
	i.rec.Fault(-1, "table-parity", 0)
	return true
}

// OnKernelBoundary rolls for a new link-degradation window at a kernel
// boundary (when none is active).
func (i *Injector) OnKernelBoundary() {
	if i == nil || i.now < i.linkUntil || !i.chance(i.cfg.LinkDegradeRate) {
		return
	}
	i.linkUntil = i.now + i.cfg.LinkDegradeCycles
	i.c.LinkWindows++
	i.sheet.Inc(stats.FaultLinkWindows)
	i.rec.Fault(-1, "link-degrade", i.cfg.LinkDegradeCycles)
}

// LinkDegraded reports whether a link-degradation window is active.
func (i *Injector) LinkDegraded() bool {
	return i != nil && i.now < i.linkUntil
}

// LinkFactor returns the active latency multiplier (and bandwidth divisor)
// of the inter-chiplet links: 1 when healthy.
func (i *Injector) LinkFactor() float64 {
	if i.LinkDegraded() {
		return i.cfg.LinkDegradeFactor
	}
	return 1
}

// NoteRetry accounts one watchdog retransmission of an un-acked operation
// after waiting timeout cycles.
func (i *Injector) NoteRetry(chiplet int, timeout uint64) {
	if i == nil {
		return
	}
	i.c.Retries++
	i.c.BackoffCycles += timeout
	i.sheet.Inc(stats.WatchdogRetries)
	i.sheet.Add(stats.WatchdogBackoffCycles, timeout)
	i.rec.Fault(chiplet, "watchdog-retry", timeout)
}

// NoteDegradation accounts one graceful degradation: the watchdog gave up on
// targeted synchronization for chiplet and fell back to the baseline full
// L2 flush+invalidate.
func (i *Injector) NoteDegradation(chiplet int) {
	if i == nil {
		return
	}
	i.c.Degradations++
	i.sheet.Inc(stats.WatchdogDegradations)
	i.rec.Fault(chiplet, "watchdog-degrade", 0)
}

// Counters returns a snapshot of the injection tallies.
func (i *Injector) Counters() Counters {
	if i == nil {
		return Counters{}
	}
	return i.c
}
