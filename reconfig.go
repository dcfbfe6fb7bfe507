package robustatomic

import (
	"errors"
	"fmt"
	"time"

	"robustatomic/internal/config"
	"robustatomic/internal/obs"
	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
)

// Dynamic reconfiguration observability: refetches triggered by wrong-epoch
// redirects, configurations adopted (the client-side epoch transitions), and
// register instances migrated to incoming daemons.
var (
	mCfgRefetch  = obs.Default.Counter("cluster_config_refetch_total")
	mCfgAdopted  = obs.Default.Counter("cluster_config_adopted_total")
	mMigrateRegs = obs.Default.Counter("cluster_migrate_registers_total")
)

// The configuration plane: the cluster's membership lives in a quorum-
// replicated CONFIG REGISTER — an ordinary robust MWMR atomic register
// instance at the reserved id config.Reg, hosted on the same S objects as
// the data, holding the encoded {epoch, slot→address} configuration.
// Membership transitions (Join/Leave/Move) are certified read-modify-writes
// of that register decided by the existing multi-writer write protocol: no
// consensus, no Paxos — registers cannot solve consensus, so two operators
// racing conflicting transitions resolve by register order (last writer
// wins) and must serialize themselves; what the register DOES guarantee is
// that every adopted configuration derives from a genuine, certified
// predecessor, that epochs only grow, and that S never changes (the
// fixed-S rule: one slot joins, leaves or moves per epoch, so consecutive
// epochs' quorums always intersect in ≥ t+1 common members — see DESIGN.md
// for the handoff safety argument).
//
// Objects learn the new epoch from the config write itself (the daemon
// re-derives its active epoch whenever its config instance mutates) and
// from then on refuse data-plane requests stamped with a superseded epoch.
// Clients react to the refusal (tcpnet.WrongEpochError) with refreshConfig:
// re-read the config register — a certified quorum read, never a trusted
// hint — adopt the newer membership into the shared mux, and retry the
// operation. Config-plane rounds themselves carry the epoch-0 wildcard
// stamp, so the configuration stays readable ACROSS the epoch change.

// maxEpochRetries bounds how many wrong-epoch redirects one operation will
// chase. Each retry adopts a strictly newer epoch (refreshConfig fails
// otherwise), so the bound only bites under a pathological storm of
// back-to-back reconfigurations.
const maxEpochRetries = 4

// retryEpoch runs op, reacting to wrong-epoch redirects with a config
// refetch and an immediate retry (a superseded epoch is cured by
// refetching, not by waiting). Any other outcome — success, or any other
// failure — passes through untouched.
// Retrying at the OPERATION level is deliberate: a redirected round's
// accumulators are bound to the superseded membership view, so the
// operation restarts from scratch against the adopted one.
func (c *Cluster) retryEpoch(op func() error) error {
	err := op()
	for attempt := 0; err != nil && attempt < maxEpochRetries; attempt++ {
		var we *tcpnet.WrongEpochError
		if !errors.As(err, &we) {
			return err
		}
		if rerr := c.refreshConfig(we); rerr != nil {
			if we.Cause != nil {
				// The refusals were too few to prove a newer configuration
				// and the refetch found none: the round actually died of
				// we.Cause (connection losses, unsatisfied accumulator).
				// Surface THAT — it classifies Transient/Degraded, so the
				// caller's ordinary retry loop applies — instead of turning
				// a lone forged refusal into an operation-level error.
				return we.Cause
			}
			return fmt.Errorf("%w (config refetch: %v)", err, rerr)
		}
		err = op()
	}
	return err
}

// readConfig runs the config register's one-round certified read over r:
// collect (pw, w) states from a quorum and certify (certifiedConfigPair).
// One round suffices where the data plane needs two: the caller does not
// need atomicity, only a GENUINE configuration no older than whatever is
// refusing it — and any epoch that actually blocks a data round is held by
// more than t objects, hence by at least t+1 of them, hence certifiable from
// one quorum of states (see refreshConfig). ok is false when the register
// was never written.
func (c *Cluster) readConfig(r proto.Rounder) (cfg config.Config, carrier types.Pair, ok bool, err error) {
	spec, acc := regular.Read1Spec(c.th, types.WriterReg)
	spec.Label = "CFGREAD"
	if err := r.Round(spec); err != nil {
		return config.Config{}, types.Pair{}, false, fmt.Errorf("config read: %w", err)
	}
	cfg, carrier, ok = certifiedConfigPair(c.th, acc.Replies)
	return cfg, carrier, ok, nil
}

// certifiedConfigPair extracts the newest certified configuration from a
// quorum of config-register states: among w-pairs reported by at least t+1
// distinct objects — so at least one reporter is correct and the pair is
// genuinely written, not a Byzantine fabrication — decode and return the
// one with the highest epoch, alongside the register pair that carries it
// (ReseedConfig installs exactly that pair into an unseeded newcomer). ok
// is false when no non-⊥ pair certifies (a freshly-bootstrapped cluster
// whose config register was never written).
func certifiedConfigPair(th quorum.Thresholds, replies map[int]types.Message) (config.Config, types.Pair, bool) {
	counts := make(map[types.Pair]int, len(replies))
	for _, m := range replies {
		if !m.W.IsBottom() {
			counts[m.W]++
		}
	}
	var best config.Config
	var bestPair types.Pair
	found := false
	for p, n := range counts {
		if n < th.Certify() {
			continue
		}
		cfg, err := config.Decode(p.Val)
		if err != nil {
			continue // fabricated bytes cannot reach t+1 reporters, but stay hostile-proof
		}
		if !found || best.Epoch < cfg.Epoch {
			best, bestPair, found = cfg, p, true
		}
	}
	return best, bestPair, found
}

// ConfigQuery returns the cluster's active configuration: the newest
// certified content of the config register, or the bootstrap configuration
// (epoch 1, the address list the cluster was built with) if the register was
// never written.
func (c *Cluster) ConfigQuery() (config.Config, error) {
	cfg, _, ok, err := c.readConfig(c.rounder(types.Reader(c.readerID()), config.Reg))
	if err != nil {
		return config.Config{}, fmt.Errorf("robustatomic: %w", err)
	}
	if !ok {
		cfg = config.Bootstrap(c.addrs)
	}
	return cfg, nil
}

// queryConfigOver runs the certified config read as a round of m: the
// cluster's own mux (its current view), or a throwaway one on a fresh link to
// a redirect hint's address set, so an unverified hint never touches the
// cluster's own connections.
func (c *Cluster) queryConfigOver(m *tcpnet.Mux) (config.Config, bool) {
	rc := proto.Observe(m.Client(types.Reader(c.readerID()), config.Reg), config.Reg, c.opts.RoundHook, c.opts.Tracer)
	cfg, _, ok, err := c.readConfig(rc)
	return cfg, ok && err == nil
}

// refreshConfig reacts to a wrong-epoch redirect: learn a certified
// configuration strictly newer than the mux's and adopt it. Hints are
// trust-but-VERIFY — a Byzantine refuser can fabricate both the epoch and
// the hinted membership, so a hint only nominates an address set to run the
// certified quorum read over (at least t+1 matching reporters there make
// the result genuine regardless of who suggested the addresses). The current
// view is asked FIRST: more than t refusals imply the newer config is
// certifiable from the very objects that refused, over connections already
// open — whereas a hint's address set is whatever one refuser, possibly a lone
// forger, chose to name, and each address that leads nowhere costs a first
// contact (over sockets a dial, up to its timeout). Hints are for the client
// so far behind that fewer than S−t of its addresses still answer: only when
// the view certifies nothing newer are the hinted sets asked.
func (c *Cluster) refreshConfig(we *tcpnet.WrongEpochError) error {
	mCfgRefetch.Inc()
	cur := c.mux.Epoch()
	if we != nil && cur >= we.Epoch {
		// A concurrent operation's refetch already adopted an epoch at least
		// as new as the refusers reported — nothing to learn, just retry the
		// operation on the adopted view.
		return nil
	}
	if cfg, ok := c.queryConfigOver(c.mux); ok && cfg.Epoch > cur {
		return c.adopt(cfg)
	}
	if we != nil {
		for _, h := range we.Hints {
			hint, err := config.Decode(h)
			if err != nil || hint.Epoch <= cur || len(hint.Addrs) != c.th.S {
				continue
			}
			m := c.mux.Fresh(hint.Addrs)
			cfg, ok := c.queryConfigOver(m)
			m.Close()
			if ok && cfg.Epoch > cur {
				return c.adopt(cfg)
			}
		}
	}
	return fmt.Errorf("robustatomic: no certified configuration newer than epoch %d found", cur)
}

// adopt installs a certified configuration into the shared transport.
func (c *Cluster) adopt(cfg config.Config) error {
	if err := c.mux.Reconfigure(cfg.Epoch, cfg.Addrs); err != nil {
		return fmt.Errorf("robustatomic: adopt epoch %d: %w", cfg.Epoch, err)
	}
	mCfgAdopted.Inc()
	return nil
}

// baseConfig resolves the configuration a transition rebases on: the
// decoded current register content, or the bootstrap configuration for a
// never-written register.
func (c *Cluster) baseConfig(cur types.Pair) (config.Config, error) {
	if cur.IsBottom() {
		boot := config.Bootstrap(c.addrs)
		if err := boot.Validate(); err != nil {
			return config.Config{}, fmt.Errorf("robustatomic: bootstrap configuration: %w", err)
		}
		return boot, nil
	}
	cfg, err := config.Decode(cur.Val)
	if err != nil {
		return config.Config{}, fmt.Errorf("robustatomic: config register holds undecodable configuration: %w", err)
	}
	return cfg, nil
}

// transitionConfig runs one membership transition as a certified
// read-modify-write of the config register: certified read of the current
// configuration, transition applied (and therefore re-validated) against
// exactly what was read — so a racing transition that lands first makes
// this one rebase and re-check against the winner — and the result written
// at the successor timestamp. Returns the new configuration and the
// register pair that carries it (Join/Move seed that pair into the
// incoming daemon, which was not a member when the write ran). It runs on the
// process's one config-register writer, so a transition that failed with its
// pair open is finished, at its own timestamp, by the next one
// (Writer.retried) before that one applies its own.
func (c *Cluster) transitionConfig(transition func(config.Config) (config.Config, error)) (config.Config, types.Pair, error) {
	var next config.Config
	p, err := c.cfgWriter().modifyPair(func(cur types.Pair) (types.Value, types.Delta, error) {
		base, err := c.baseConfig(cur)
		if err != nil {
			return "", types.Delta{}, err
		}
		if next, err = transition(base); err != nil {
			return "", types.Delta{}, err
		}
		return next.Encode(), types.Delta{}, nil
	})
	if err != nil {
		return config.Config{}, types.Pair{}, fmt.Errorf("robustatomic: config write: %w", err)
	}
	return next, p, nil
}

// transferRegisters transfers the certified state of register instances
// 0..shards to the daemon at addr — a blank replacement (Repair) or an
// incoming member (Join, Move), reached directly (tcpnet.Direct) since it
// need not be in any configuration yet. Per instance: an atomic read against
// the live members, a cluster-wide re-PREWRITE of the pair it returned (the
// multi-writer decision procedure assumes every w-held pair completed its
// PREWRITE at 2t+1 objects; certification may rest on a thinner original
// quorum, and the target's w-report must not be the one that breaks the
// invariant), then a direct seed into the target. The instance's one register
// is all a correct object holds, so the target ends up holding everything
// completed there. A migration runs BEFORE the config write activates the new
// epoch, so the transfer's own rounds are not refused; writes racing the
// transfer merely leave the target slightly stale, which the protocol
// already tolerates (correct-but-slow).
func (c *Cluster) transferRegisters(addr string, shards int) ([]RepairedRegister, error) {
	if shards < 0 {
		return nil, fmt.Errorf("robustatomic: negative shard count %d", shards)
	}
	d := c.mux.Direct(addr, types.Reader(c.readerID()))
	defer d.Close()
	out := make([]RepairedRegister, 0, shards+1)
	for reg := 0; reg <= shards; reg++ {
		r := c.readerReg(c.readerID(), reg)
		p, err := r.readPair()
		if err != nil {
			return out, fmt.Errorf("robustatomic: transfer instance %d: quorum read: %w", reg, err)
		}
		if p.IsBottom() {
			out = append(out, RepairedRegister{Reg: reg, Skipped: true})
			continue
		}
		// Re-establish the prewrite-support invariant before installing the
		// pair in the target's w: one cluster-wide PREWRITE of the read's pair
		// — monotone, so it can never regress newer state — makes the seeded
		// w-report consistent with the true fault set on every later read.
		rc := c.rounder(types.Reader(c.readerID()), reg)
		err = c.retryEpoch(func() error {
			spec, _ := regular.PreWriteSpec(c.th, p, 0)
			return rc.Round(spec)
		})
		if err != nil {
			return out, fmt.Errorf("robustatomic: transfer instance %d: prewrite support: %w", reg, err)
		}
		if err := d.Seed(reg, p); err != nil {
			return out, fmt.Errorf("robustatomic: transfer instance %d: %w", reg, err)
		}
		mMigrateRegs.Inc()
		out = append(out, RepairedRegister{Reg: reg, TS: p.TS, Bytes: len(p.Val)})
	}
	return out, nil
}

// ErrNewcomerUnseeded marks the one partial-failure state a Join/Move can
// leave behind: the configuration transition is DECIDED cluster-wide (the
// config register's certified write completed), but seeding the winning
// pair into the incoming daemon failed even after retries. The newcomer is
// then a member whose epoch gate never activated — it accepts stale-epoch
// traffic until seeded. The remediation is idempotent: re-run
// `storctl reseed <addr>` (Cluster.ReseedConfig), which re-reads the
// certified configuration and re-installs it; seeding is monotone on the
// daemon side, so repeating it is always safe.
var ErrNewcomerUnseeded = errors.New("robustatomic: configuration decided but newcomer not seeded (its epoch gate is inactive; re-seed with 'storctl reseed <addr>')")

// seedConfig installs the configuration pair into the incoming daemon's
// config register: the daemon was not a member when the config write ran,
// and its epoch gate activates from exactly this instance's state.
func (c *Cluster) seedConfig(addr string, p types.Pair) error {
	d := c.mux.Direct(addr, types.Reader(c.readerID()))
	defer d.Close()
	if err := d.Seed(config.Reg, p); err != nil {
		return fmt.Errorf("robustatomic: seed config: %w", err)
	}
	return nil
}

// Newcomer seeding runs AFTER the transition is decided, so a failure there
// cannot be rolled back — retry it a few times before surfacing the
// decided-but-unseeded state to the operator.
const (
	seedAttempts   = 3
	seedRetryPause = 200 * time.Millisecond
)

// seedNewcomer is seedConfig with retries and the distinguished
// ErrNewcomerUnseeded wrapper (see that error's doc for why this state is
// special: the config write already decided, only the newcomer's copy is
// missing, and re-seeding is idempotent). The pause between attempts is
// waited out on the link's clock, like everything else a client waits for.
func (c *Cluster) seedNewcomer(addr string, p types.Pair) error {
	var err error
	for attempt := 0; attempt < seedAttempts; attempt++ {
		if attempt > 0 && c.mux.Sleep(seedRetryPause) != nil {
			break // closed under us: the last attempt's error stands
		}
		if err = c.seedConfig(addr, p); err == nil {
			return nil
		}
	}
	return fmt.Errorf("%w: %s: %v", ErrNewcomerUnseeded, addr, err)
}

// ReseedConfig re-installs the cluster's newest certified configuration
// into the daemon at addr — the remediation for ErrNewcomerUnseeded.
// Idempotent and safe to run against any member: the daemon's config
// register only moves forward, so re-seeding an already-seeded daemon is a
// no-op.
func (c *Cluster) ReseedConfig(addr string) error {
	_, p, ok, err := c.readConfig(c.rounder(types.Reader(c.readerID()), config.Reg))
	if err != nil {
		return fmt.Errorf("robustatomic: reseed: %w", err)
	}
	if !ok {
		return fmt.Errorf("robustatomic: reseed: no certified configuration (register never written — nothing to seed)")
	}
	return c.seedConfig(addr, p)
}

// Join admits the daemon at addr into the lowest vacant slot of the active
// configuration (see admit). The epoch advances by one; S is fixed, so Join
// only succeeds while a Leave has left a slot vacant. Transitions of one
// Cluster run one at a time: they share its one config-register writer.
func (c *Cluster) Join(addr string, shards int) (config.Config, []RepairedRegister, error) {
	return c.admit(addr, shards, func(base config.Config) (config.Config, error) { return base.Join(addr) })
}

// admit brings the daemon at addr into the configuration transition yields —
// the body of Join and Move: register state for instances 0..shards migrates
// to it first (so it serves reads the moment it is a member), then the
// config register's certified read-modify-write decides the transition, the
// winning configuration is seeded into the newcomer, and the cluster's own
// transport adopts it.
func (c *Cluster) admit(addr string, shards int, transition func(config.Config) (config.Config, error)) (config.Config, []RepairedRegister, error) {
	migrated, err := c.transferRegisters(addr, shards)
	if err != nil {
		return config.Config{}, migrated, err
	}
	next, p, err := c.transitionConfig(transition)
	if err != nil {
		return config.Config{}, migrated, err
	}
	// The transition is decided whatever happens from here on, so adoption
	// runs even when seeding ultimately fails — the caller keeps operating on
	// the winning configuration while the distinguished ErrNewcomerUnseeded
	// tells the operator exactly what is left to remediate (and how).
	serr := c.seedNewcomer(addr, p)
	if aerr := c.adopt(next); aerr != nil {
		return next, migrated, errors.Join(serr, aerr)
	}
	return next, migrated, serr
}

// Leave vacates slot sid: the daemon at that slot stops being a member once
// the decided configuration activates (objects holding the new epoch refuse
// its epoch's traffic; clients drop its connection and dial state on
// adoption). The vacancy counts against the fault budget — a vacant slot is
// a permanently-crashed object — so at most t slots may be vacant at a
// time, which Leave's transition validation enforces. Transitions of one
// Cluster run one at a time (see Join).
func (c *Cluster) Leave(sid int) (config.Config, error) {
	next, _, err := c.transitionConfig(func(base config.Config) (config.Config, error) {
		return base.Leave(sid)
	})
	if err != nil {
		return config.Config{}, err
	}
	return next, c.adopt(next)
}

// Move atomically replaces slot sid's address with addr — the live-replace
// flow (see admit), deciding the single-slot swap on the config register.
// Unlike Leave-then-Join there is no vacancy window: the slot is always
// populated, so the fault budget never pays for the handoff, and old- and
// new-epoch quorums intersect in ≥ t+1 common members throughout (see
// DESIGN.md). Transitions of one Cluster run one at a time (see Join).
func (c *Cluster) Move(sid int, addr string, shards int) (config.Config, []RepairedRegister, error) {
	return c.admit(addr, shards, func(base config.Config) (config.Config, error) { return base.Move(sid, addr) })
}
