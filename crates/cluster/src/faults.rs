//! Deterministic fault injection: seeded, reproducible fault plans the
//! runner threads through devices and links, plus the structured reports
//! every induced failure is converted into.
//!
//! The fault layer is strictly opt-in: an empty [`FaultPlan`] leaves the
//! emulator bit-identical to the fault-free build (the
//! `simulator_matches_emulator` property), while a populated plan lets a
//! run answer "what happens to this schedule when a device straggles 10×,
//! a link stalls, or memory headroom shrinks?" — and guarantees the answer
//! is a terminating run with a [`FaultReport`], never a hang or a panic.

use mario_ir::{
    DeviceId, InstrKind, LinkSlack, Nanos, PerturbationProfile, Schedule, SlowdownWindow,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Compute on `device` runs `factor`× slower for instructions with
    /// `from_pc <= pc < until_pc` (a transient straggler).
    Slowdown {
        /// The straggling device.
        device: DeviceId,
        /// Slowdown multiplier (e.g. 10.0).
        factor: f64,
        /// First affected instruction index.
        from_pc: usize,
        /// One past the last affected instruction index.
        until_pc: usize,
    },
    /// `device` aborts immediately before executing instruction `pc`.
    Crash {
        /// The crashing device.
        device: DeviceId,
        /// Instruction index at which the device dies.
        pc: usize,
    },
    /// The `nth` packet `src` sends to `dst` (counting all classes and
    /// parts, 0-based) departs `extra_ns` late in virtual time. The run
    /// completes; the fault is absorbed and logged.
    LinkDelay {
        /// Sending side of the link.
        src: DeviceId,
        /// Receiving side of the link.
        dst: DeviceId,
        /// 0-based index of the affected packet on the `src → dst` pair.
        nth: usize,
        /// Extra virtual latency, ns.
        extra_ns: Nanos,
    },
    /// The `nth` packet `src` sends to `dst` is lost: the receiver's
    /// blocking recv can never pair and the stall is reported against
    /// this fault.
    LinkStall {
        /// Sending side of the link.
        src: DeviceId,
        /// Receiving side of the link.
        dst: DeviceId,
        /// 0-based index of the dropped packet on the `src → dst` pair.
        nth: usize,
    },
    /// `device`'s memory capacity is clamped to `capacity` bytes for the
    /// whole run (a mid-fleet headroom squeeze).
    MemSqueeze {
        /// The squeezed device.
        device: DeviceId,
        /// New capacity, bytes.
        capacity: u64,
    },
}

impl FaultKind {
    /// The device at the fault site (for links: the sender).
    pub fn site(&self) -> DeviceId {
        match *self {
            FaultKind::Slowdown { device, .. }
            | FaultKind::Crash { device, .. }
            | FaultKind::MemSqueeze { device, .. } => device,
            FaultKind::LinkDelay { src, .. } | FaultKind::LinkStall { src, .. } => src,
        }
    }

    /// True for faults a healthy schedule absorbs without failing
    /// (slowdowns and finite link delays).
    pub fn is_absorbable(&self) -> bool {
        matches!(
            self,
            FaultKind::Slowdown { .. } | FaultKind::LinkDelay { .. }
        )
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultKind::Slowdown {
                device,
                factor,
                from_pc,
                until_pc,
            } => write!(f, "slowdown {factor}x on {device} pcs {from_pc}..{until_pc}"),
            FaultKind::Crash { device, pc } => write!(f, "crash of {device} at #{pc}"),
            FaultKind::LinkDelay {
                src,
                dst,
                nth,
                extra_ns,
            } => write!(f, "delay +{extra_ns}ns on packet {nth} of {src}->{dst}"),
            FaultKind::LinkStall { src, dst, nth } => {
                write!(f, "stall dropping packet {nth} of {src}->{dst}")
            }
            FaultKind::MemSqueeze { device, capacity } => {
                write!(f, "memory squeeze of {device} to {capacity} B")
            }
        }
    }
}

/// A named set of faults injected together because they share a physical
/// root cause (one rack losing power takes its devices *and* their links).
/// Groups exist for attribution: a [`FaultReport`] whose fault belongs to
/// a group names the group, so a sweep can count "rack-3 failures" rather
/// than unrelated-looking crashes and stalls.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultGroup {
    /// Human-readable group name (e.g. `rack-1`).
    pub name: String,
    /// The member faults (each also present in [`FaultPlan::faults`]).
    pub members: Vec<FaultKind>,
}

/// A reproducible set of faults to inject into one run. Plans built from
/// the same seed are identical, so every failure they induce is
/// re-observable.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The faults to inject.
    pub faults: Vec<FaultKind>,
    /// Iteration (0-based) during which slowdown/crash/link faults fire;
    /// memory squeezes clamp capacity for the whole run.
    pub iteration: u32,
    /// Correlated-fault groups for attribution (possibly empty; every
    /// member fault is also listed in `faults`).
    #[serde(default)]
    pub groups: Vec<FaultGroup>,
    /// A cascading follow-up: once this plan's hard fault fires and the
    /// run restarts (or reconfigures), the armed plan becomes the active
    /// one for the next attempt — a failure whose trigger arms a second
    /// failure. Plans are plain data, so a seeded cascade replays
    /// bit-identically.
    #[serde(default)]
    pub armed: Option<Box<FaultPlan>>,
}

impl FaultPlan {
    /// The empty plan: emulation behaves exactly as without the fault
    /// layer.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no fault is injected.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds a fault.
    pub fn with(mut self, fault: FaultKind) -> Self {
        self.faults.push(fault);
        self
    }

    /// Draws one random single-fault plan for `schedule`, uniformly over
    /// fault kinds and sites. Deterministic in `seed`.
    pub fn single_random(seed: u64, schedule: &Schedule) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let kind = rng.gen_range(0u32..5);
        Self::default().with(draw_fault(&mut rng, schedule, kind))
    }

    /// Draws a random crash or link-stall plan (the two hard-failure
    /// kinds). Deterministic in `seed`.
    pub fn single_crash_or_stall(seed: u64, schedule: &Schedule) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let kind = if rng.gen_bool(0.5) { 1 } else { 3 };
        Self::default().with(draw_fault(&mut rng, schedule, kind))
    }

    /// Draws a random absorbable plan (a slowdown or a finite link
    /// delay — the faults a run completes through). Deterministic in
    /// `seed`.
    pub fn single_absorbable(seed: u64, schedule: &Schedule) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let kind = if rng.gen_bool(0.5) { 0 } else { 2 };
        let fault = draw_fault(&mut rng, schedule, kind);
        // A communication-free schedule degrades `kind 2` to a crash;
        // fall back to a slowdown so the plan stays absorbable.
        if fault.is_absorbable() {
            Self::default().with(fault)
        } else {
            Self::default().with(draw_fault(&mut rng, schedule, 0))
        }
    }

    /// True when every fault in the plan is absorbable (the run completes
    /// and logs them instead of failing).
    pub fn is_absorbable(&self) -> bool {
        self.faults.iter().all(FaultKind::is_absorbable)
    }

    /// Number of hard (non-absorbable) faults in the plan — the failures
    /// that kill an attempt and force a restart. This is the fault count
    /// the checkpoint-interval tuner turns into a rate.
    pub fn hard_faults(&self) -> usize {
        self.faults.iter().filter(|f| !f.is_absorbable()).count()
    }

    /// Moves the plan's transient faults to iteration `iter`.
    pub fn at_iteration(mut self, iter: u32) -> Self {
        self.iteration = iter;
        self
    }

    /// Arms `next` as the cascading follow-up plan: it activates on the
    /// attempt after this plan's hard fault fires.
    pub fn arming(mut self, next: FaultPlan) -> Self {
        self.armed = Some(Box::new(next));
        self
    }

    /// Consumes the plan after its fault fired, yielding what the next
    /// attempt must enforce: the armed follow-up if one exists, else the
    /// empty plan.
    pub fn take_armed(&mut self) -> FaultPlan {
        match self.armed.take() {
            Some(next) => *next,
            None => FaultPlan::none(),
        }
    }

    /// A correlated multi-fault plan modeling a whole rack losing power:
    /// one device of the seeded rack crashes, and every inter-rack link
    /// touching the rack stalls (its first packet of the fault iteration
    /// is lost). All members share one [`FaultGroup`] named `rack-<r>`,
    /// so any surfaced [`FaultReport`] attributes back to the rack.
    /// Racks partition devices into pairs `{2r, 2r+1}`; deterministic in
    /// `seed`.
    pub fn rack_failure(seed: u64, schedule: &Schedule) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let devices = schedule.devices();
        let racks = devices.div_ceil(2).max(1);
        let rack = rng.gen_range(0..racks);
        let in_rack = |d: DeviceId| d.0 / 2 == rack;

        // The crashing device: a seeded member of the rack, at a seeded pc.
        let members: Vec<DeviceId> = (0..devices).map(DeviceId).filter(|&d| in_rack(d)).collect();
        let victim = members[rng.gen_range(0..members.len())];
        let len = schedule.program(victim).len().max(1);
        let mut faults = vec![FaultKind::Crash {
            device: victim,
            pc: rng.gen_range(0..len),
        }];

        // Every directed link with exactly one endpoint in the rack loses
        // its first packet (links internal to the rack die with the rack
        // and need no separate stall to surface).
        let mut stalled: Vec<(DeviceId, DeviceId)> = Vec::new();
        for (src, dst, nth) in send_sites(schedule) {
            if nth == 0 && (in_rack(src) != in_rack(dst)) && !stalled.contains(&(src, dst)) {
                stalled.push((src, dst));
                faults.push(FaultKind::LinkStall { src, dst, nth: 0 });
            }
        }

        Self {
            groups: vec![FaultGroup {
                name: format!("rack-{rack}"),
                members: faults.clone(),
            }],
            faults,
            iteration: 0,
            armed: None,
        }
    }

    /// A correlated multi-fault plan modeling a top-of-node switch dying:
    /// every directed link crossing the seeded node's boundary stalls
    /// (its first packet of the fault iteration is lost). Nodes partition
    /// devices into groups of `node_size`; only nodes with crossing
    /// traffic are candidates, so the plan always surfaces. No device
    /// crashes — the switch takes the links, not the hosts — and the
    /// teardown stays deterministic: every induced stall
    /// is attributed to the one `switch-<n>` group. Returns the empty
    /// plan when no link crosses any node boundary (a single-node
    /// cluster). Deterministic in `seed`.
    pub fn switch_failure(seed: u64, schedule: &Schedule, node_size: u32) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let node_size = node_size.max(1);
        let node_of = |d: DeviceId| d.0 / node_size;

        // Candidate nodes: those with at least one link crossing their
        // boundary in this schedule.
        let sites = send_sites(schedule);
        let mut candidates: Vec<u32> = sites
            .iter()
            .flat_map(|&(src, dst, _)| [node_of(src), node_of(dst)])
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        candidates.retain(|&n| {
            sites
                .iter()
                .any(|&(src, dst, _)| (node_of(src) == n) != (node_of(dst) == n))
        });
        if candidates.is_empty() {
            return Self::none();
        }
        let node = candidates[rng.gen_range(0..candidates.len())];

        let mut stalled: Vec<(DeviceId, DeviceId)> = Vec::new();
        let mut faults = Vec::new();
        for (src, dst, nth) in sites {
            if nth == 0
                && (node_of(src) == node) != (node_of(dst) == node)
                && !stalled.contains(&(src, dst))
            {
                stalled.push((src, dst));
                faults.push(FaultKind::LinkStall { src, dst, nth: 0 });
            }
        }
        Self {
            groups: vec![FaultGroup {
                name: format!("switch-{node}"),
                members: faults.clone(),
            }],
            faults,
            iteration: 0,
            armed: None,
        }
    }

    /// The name of the correlated group `fault` belongs to, if any.
    pub fn group_of(&self, fault: &FaultKind) -> Option<String> {
        self.groups
            .iter()
            .find(|g| g.members.contains(fault))
            .map(|g| g.name.clone())
    }

    /// The [`PerturbationProfile`] this plan imposes on the cluster: the
    /// profile `run_with` times the plan's absorbable faults through, so
    /// a simulation under it predicts a faulted run.
    ///
    /// Only absorbable faults (slowdowns, finite link delays) translate;
    /// hard faults (crashes, stalls, squeezes) have no timing-only
    /// equivalent and are skipped — call [`FaultPlan::is_absorbable`]
    /// first when exact agreement is required. Duplicate link delays on
    /// the same `(src, dst, nth)` packet keep only the first, the one a
    /// run reports. Every window carries the plan's fault iteration —
    /// agreement holds for any iteration count as long as the simulator
    /// models the same number of iterations (`SimOptions::iterations` of
    /// `mario-core`'s `simulate`).
    pub fn perturbation_profile(&self) -> PerturbationProfile {
        let mut profile = PerturbationProfile::identity();
        for &fault in &self.faults {
            match fault {
                FaultKind::Slowdown {
                    device,
                    factor,
                    from_pc,
                    until_pc,
                } => {
                    profile.slowdowns.push(SlowdownWindow {
                        device,
                        factor,
                        from_pc,
                        until_pc,
                        iteration: Some(self.iteration),
                    });
                }
                FaultKind::LinkDelay {
                    src,
                    dst,
                    nth,
                    extra_ns,
                } => {
                    let dup = profile.link_slack.iter().any(|s| {
                        s.src == src && s.dst == dst && s.nth == Some(nth)
                    });
                    if !dup {
                        profile.link_slack.push(LinkSlack {
                            src,
                            dst,
                            nth: Some(nth),
                            extra_ns,
                            iteration: Some(self.iteration),
                        });
                    }
                }
                FaultKind::Crash { .. }
                | FaultKind::LinkStall { .. }
                | FaultKind::MemSqueeze { .. } => {}
            }
        }
        profile
    }

    /// The slice of this plan one device must enforce.
    pub fn for_device(&self, device: DeviceId) -> DeviceFaults {
        let mut df = DeviceFaults {
            iteration: self.iteration,
            ..DeviceFaults::default()
        };
        for &fault in &self.faults {
            match fault {
                FaultKind::Slowdown { device: d, .. } if d == device => {
                    df.slowdowns.push(fault)
                }
                FaultKind::Crash { device: d, .. } if d == device => df.crash = Some(fault),
                FaultKind::MemSqueeze { device: d, .. } if d == device => {
                    df.squeeze = Some(fault)
                }
                FaultKind::LinkDelay { src, .. } | FaultKind::LinkStall { src, .. }
                    if src == device =>
                {
                    df.send_faults.push(fault)
                }
                _ => {}
            }
            if let FaultKind::LinkStall { dst, .. } = fault {
                if dst == device {
                    df.recv_stalls.push(fault);
                }
            }
        }
        df
    }
}

/// Picks a fault of the requested kind (0 slowdown, 1 crash, 2 delay,
/// 3 stall, 4 squeeze) at a random admissible site of `schedule`.
fn draw_fault(rng: &mut StdRng, schedule: &Schedule, kind: u32) -> FaultKind {
    let device = DeviceId(rng.gen_range(0..schedule.devices()));
    let len = schedule.program(device).len().max(1);
    match kind {
        0 => {
            let from_pc = rng.gen_range(0..len);
            let until_pc = (from_pc + 1 + rng.gen_range(0..len)).min(len);
            FaultKind::Slowdown {
                device,
                factor: 10.0,
                from_pc,
                until_pc,
            }
        }
        1 => FaultKind::Crash {
            device,
            pc: rng.gen_range(0..len),
        },
        2 | 3 => {
            // Pick a random send instruction anywhere in the schedule and
            // target the packet it will produce.
            let sends: Vec<(DeviceId, DeviceId, usize)> = send_sites(schedule);
            if sends.is_empty() {
                // Degenerate schedule without communication: fall back to
                // a crash so the plan still has a single admissible fault.
                return FaultKind::Crash {
                    device,
                    pc: rng.gen_range(0..len),
                };
            }
            let (src, dst, nth) = sends[rng.gen_range(0..sends.len())];
            if kind == 2 {
                FaultKind::LinkDelay {
                    src,
                    dst,
                    nth,
                    extra_ns: 1_000 * (1 + rng.gen_range(0u64..50)),
                }
            } else {
                FaultKind::LinkStall { src, dst, nth }
            }
        }
        _ => FaultKind::MemSqueeze {
            device,
            capacity: 0,
        },
    }
}

/// Every `(src, dst, nth)` packet a schedule will send, in program order
/// per sender (the admissible link-fault sites).
fn send_sites(schedule: &Schedule) -> Vec<(DeviceId, DeviceId, usize)> {
    let mut sites = Vec::new();
    for prog in schedule.programs() {
        let mut per_dst: std::collections::HashMap<DeviceId, usize> =
            std::collections::HashMap::new();
        for (_, instr) in prog.iter() {
            let peer = match instr.kind {
                InstrKind::SendAct { peer } | InstrKind::SendGrad { peer } => peer,
                _ => continue,
            };
            let nth = per_dst.entry(peer).or_insert(0);
            sites.push((prog.device, peer, *nth));
            *nth += 1;
        }
    }
    sites
}

/// The faults one device enforces and reports while executing (a
/// projection of the plan computed by [`FaultPlan::for_device`]). It
/// times nothing: slowdowns and link delays take effect through the
/// plan's [`FaultPlan::perturbation_profile`], and only decide here which
/// faults a run reports as absorbed.
#[derive(Debug, Clone, Default)]
pub struct DeviceFaults {
    /// Iteration during which transient faults fire.
    pub iteration: u32,
    /// [`FaultKind::Slowdown`]s for this device, to report.
    pub slowdowns: Vec<FaultKind>,
    /// Pending [`FaultKind::Crash`] for this device.
    pub crash: Option<FaultKind>,
    /// Pending [`FaultKind::MemSqueeze`] for this device.
    pub squeeze: Option<FaultKind>,
    /// Link faults where this device is the sender.
    pub send_faults: Vec<FaultKind>,
    /// Link stalls where this device is the receiver (used to attribute
    /// the resulting blocked recv to the injected fault).
    pub recv_stalls: Vec<FaultKind>,
}

impl DeviceFaults {
    /// True when this device has nothing to enforce.
    pub fn is_empty(&self) -> bool {
        self.slowdowns.is_empty()
            && self.crash.is_none()
            && self.squeeze.is_none()
            && self.send_faults.is_empty()
            && self.recv_stalls.is_empty()
    }

    /// Capacity clamp from a pending squeeze, if any.
    pub fn squeezed_capacity(&self) -> Option<u64> {
        match self.squeeze {
            Some(FaultKind::MemSqueeze { capacity, .. }) => Some(capacity),
            _ => None,
        }
    }

    /// The send fault hitting the `nth` packet to `dst` in iteration
    /// `iter`, if any.
    pub fn send_fault(&self, iter: u32, dst: DeviceId, nth: usize) -> Option<FaultKind> {
        if iter != self.iteration {
            return None;
        }
        self.send_faults.iter().copied().find(|f| match *f {
            FaultKind::LinkDelay { dst: d, nth: n, .. }
            | FaultKind::LinkStall { dst: d, nth: n, .. } => d == dst && n == nth,
            _ => false,
        })
    }

    /// The injected stall on the incoming link from `src`, if any (any
    /// failure to receive from `src` is then attributed to it).
    pub fn recv_stall_from(&self, src: DeviceId) -> Option<FaultKind> {
        self.recv_stalls.iter().copied().find(|f| match *f {
            FaultKind::LinkStall { src: s, .. } => s == src,
            _ => false,
        })
    }
}

/// The structured outcome of an induced failure: which fault fired, who
/// observed it, where, and when (virtual time). Two runs of the same
/// seeded plan produce identical reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// The injected fault this failure is attributed to.
    pub fault: FaultKind,
    /// The device that observed the failure.
    pub device: DeviceId,
    /// Instruction index at which the failure surfaced.
    pub pc: usize,
    /// The surfacing instruction (rendered), if the device got that far.
    pub instr: String,
    /// The peer the observer was blocked on, for communication stalls.
    pub blocked_peer: Option<DeviceId>,
    /// Virtual time of the failure, ns.
    pub vtime: Nanos,
    /// Iteration (0-based) during which the failure surfaced.
    pub iteration: u32,
    /// Iterations covered by the last checkpoint the *whole cluster* had
    /// completed when the failure surfaced (0 when no checkpoint policy
    /// was active or nothing was saved yet) — where a resume restarts.
    /// Stamped with the device-local value at construction; the runner's
    /// root-cause attribution replaces it with the cluster-durable one.
    #[serde(default)]
    pub last_checkpoint: u32,
    /// Checkpoint write time actually paid across the cluster when this
    /// failure surfaced, ns (stamped by the runner's root-cause
    /// attribution) — what the failed attempt's writes cost even though
    /// some never became cluster-durable.
    #[serde(default)]
    pub ckpt_paid_ns: Nanos,
    /// The correlated [`FaultGroup`] this fault belongs to, if any.
    #[serde(default)]
    pub group: Option<String>,
    /// Normalized cause description.
    pub detail: String,
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} at #{} ({}) t={}ns iter {}: {}",
            self.fault, self.device, self.pc, self.instr, self.vtime, self.iteration, self.detail
        )?;
        if let Some(g) = &self.group {
            write!(f, " (group {g})")?;
        }
        if let Some(p) = self.blocked_peer {
            write!(f, " (blocked on {p})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::SchemeKind;
    use mario_schedules::{generate, ScheduleConfig};

    #[test]
    fn same_seed_same_plan() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        for seed in 0..64 {
            let a = FaultPlan::single_random(seed, &s);
            let b = FaultPlan::single_random(seed, &s);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(a.faults.len(), 1);
        }
    }

    #[test]
    fn seeds_cover_every_fault_kind() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let mut seen = [false; 5];
        for seed in 0..256 {
            let p = FaultPlan::single_random(seed, &s);
            let i = match p.faults[0] {
                FaultKind::Slowdown { .. } => 0,
                FaultKind::Crash { .. } => 1,
                FaultKind::LinkDelay { .. } => 2,
                FaultKind::LinkStall { .. } => 3,
                FaultKind::MemSqueeze { .. } => 4,
            };
            seen[i] = true;
        }
        assert_eq!(seen, [true; 5]);
    }

    #[test]
    fn device_projection_routes_faults() {
        let d0 = DeviceId(0);
        let d1 = DeviceId(1);
        let plan = FaultPlan::none()
            .with(FaultKind::Crash { device: d0, pc: 3 })
            .with(FaultKind::LinkStall {
                src: d0,
                dst: d1,
                nth: 2,
            })
            .with(FaultKind::MemSqueeze {
                device: d1,
                capacity: 64,
            });
        let f0 = plan.for_device(d0);
        assert!(f0.crash.is_some());
        assert_eq!(f0.send_faults.len(), 1);
        assert!(f0.recv_stalls.is_empty());
        let f1 = plan.for_device(d1);
        assert!(f1.crash.is_none());
        assert_eq!(f1.squeezed_capacity(), Some(64));
        assert!(f1.recv_stall_from(d0).is_some());
        assert!(f1.recv_stall_from(d1).is_none());
        assert!(plan.for_device(DeviceId(2)).is_empty());
    }

    #[test]
    fn absorbable_plans_translate_to_profiles() {
        let plan = FaultPlan::none()
            .with(FaultKind::Slowdown {
                device: DeviceId(1),
                factor: 10.0,
                from_pc: 2,
                until_pc: 5,
            })
            .with(FaultKind::LinkDelay {
                src: DeviceId(0),
                dst: DeviceId(1),
                nth: 3,
                extra_ns: 7_000,
            });
        assert!(plan.is_absorbable());
        let p = plan.perturbation_profile();
        assert_eq!(p.compute_factor(DeviceId(1), 0, 3), 10.0);
        assert_eq!(p.compute_factor(DeviceId(1), 0, 5), 1.0);
        assert_eq!(p.link_extra(DeviceId(0), DeviceId(1), 0, 3), 7_000);
        assert_eq!(p.link_extra(DeviceId(0), DeviceId(1), 0, 2), 0);
        // The windows are scoped to the plan's fault iteration.
        assert_eq!(p.compute_factor(DeviceId(1), 1, 3), 1.0);
        assert_eq!(p.link_extra(DeviceId(0), DeviceId(1), 1, 3), 0);
    }

    #[test]
    fn profile_windows_follow_the_plan_iteration() {
        let plan = FaultPlan::none()
            .with(FaultKind::Slowdown {
                device: DeviceId(0),
                factor: 4.0,
                from_pc: 0,
                until_pc: 10,
            })
            .at_iteration(2);
        let p = plan.perturbation_profile();
        assert_eq!(p.compute_factor(DeviceId(0), 2, 5), 4.0);
        assert_eq!(p.compute_factor(DeviceId(0), 0, 5), 1.0);
    }

    #[test]
    fn hard_faults_do_not_translate() {
        let plan = FaultPlan::none()
            .with(FaultKind::Crash {
                device: DeviceId(0),
                pc: 1,
            })
            .with(FaultKind::LinkStall {
                src: DeviceId(0),
                dst: DeviceId(1),
                nth: 0,
            })
            .with(FaultKind::MemSqueeze {
                device: DeviceId(1),
                capacity: 64,
            });
        assert!(!plan.is_absorbable());
        assert!(plan.perturbation_profile().is_identity());
    }

    #[test]
    fn duplicate_link_delays_keep_the_first() {
        // A run reports the first matching fault on a packet; the profile
        // that times it must not double-charge the packet.
        let plan = FaultPlan::none()
            .with(FaultKind::LinkDelay {
                src: DeviceId(0),
                dst: DeviceId(1),
                nth: 0,
                extra_ns: 5_000,
            })
            .with(FaultKind::LinkDelay {
                src: DeviceId(0),
                dst: DeviceId(1),
                nth: 0,
                extra_ns: 9_000,
            });
        let p = plan.perturbation_profile();
        assert_eq!(p.link_extra(DeviceId(0), DeviceId(1), 0, 0), 5_000);
    }

    #[test]
    fn rack_failure_is_correlated_and_deterministic() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        for seed in 0..32 {
            let plan = FaultPlan::rack_failure(seed, &s);
            assert_eq!(plan, FaultPlan::rack_failure(seed, &s), "seed {seed}");
            // One crash plus at least one stall (a 4-deep pipeline always
            // has links crossing any rack boundary).
            let crashes = plan
                .faults
                .iter()
                .filter(|f| matches!(f, FaultKind::Crash { .. }))
                .count();
            assert_eq!(crashes, 1, "seed {seed}");
            assert!(plan.hard_faults() >= 2, "seed {seed}: {:?}", plan.faults);
            // Every fault is attributed to the one rack group.
            assert_eq!(plan.groups.len(), 1);
            let name = &plan.groups[0].name;
            assert!(name.starts_with("rack-"), "{name}");
            for f in &plan.faults {
                assert_eq!(plan.group_of(f).as_ref(), Some(name));
            }
            // The crash victim and the stalled links all touch the rack.
            let rack: u32 = name["rack-".len()..].parse().unwrap();
            for f in &plan.faults {
                match *f {
                    FaultKind::Crash { device, .. } => assert_eq!(device.0 / 2, rack),
                    FaultKind::LinkStall { src, dst, .. } => {
                        assert!((src.0 / 2 == rack) != (dst.0 / 2 == rack))
                    }
                    ref other => panic!("unexpected fault {other:?}"),
                }
            }
        }
        // Ungrouped plans attribute to nothing.
        let lone = FaultPlan::single_random(0, &s);
        assert_eq!(lone.group_of(&lone.faults[0]), None);
    }

    #[test]
    fn switch_failure_stalls_every_boundary_crossing_link() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        for seed in 0..32 {
            let plan = FaultPlan::switch_failure(seed, &s, 2);
            assert_eq!(plan, FaultPlan::switch_failure(seed, &s, 2), "seed {seed}");
            // Links only, no host crash; a 4-deep pipeline on 2-device
            // nodes always has boundary-crossing traffic.
            assert!(!plan.faults.is_empty(), "seed {seed}");
            assert_eq!(plan.groups.len(), 1);
            let name = &plan.groups[0].name;
            assert!(name.starts_with("switch-"), "{name}");
            let node: u32 = name["switch-".len()..].parse().unwrap();
            let mut seen = std::collections::HashSet::new();
            for f in &plan.faults {
                assert_eq!(plan.group_of(f).as_ref(), Some(name));
                match *f {
                    FaultKind::LinkStall { src, dst, nth } => {
                        assert_eq!(nth, 0);
                        assert!((src.0 / 2 == node) != (dst.0 / 2 == node));
                        assert!(seen.insert((src, dst)), "duplicate stall {src}->{dst}");
                    }
                    ref other => panic!("unexpected fault {other:?}"),
                }
            }
        }
        // A comm-free schedule has no switch to lose.
        let lone = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 2, 2).comm(false));
        assert_eq!(FaultPlan::switch_failure(0, &lone, 2), FaultPlan::none());
    }

    #[test]
    fn armed_plans_cascade_and_replay_from_the_seed() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let build = |seed: u64| {
            FaultPlan::single_crash_or_stall(seed, &s)
                .arming(FaultPlan::rack_failure(seed + 1, &s).at_iteration(1))
        };
        let mut a = build(7);
        assert_eq!(a, build(7));
        let second = a.take_armed();
        assert_eq!(second, FaultPlan::rack_failure(8, &s).at_iteration(1));
        assert!(second.armed.is_none());
        // A second consumption finds nothing left.
        assert_eq!(a.take_armed(), FaultPlan::none());
    }

    #[test]
    fn single_absorbable_is_always_absorbable() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        for seed in 0..64 {
            let p = FaultPlan::single_absorbable(seed, &s);
            assert!(p.is_absorbable(), "seed {seed}: {:?}", p.faults);
            assert_eq!(p, FaultPlan::single_absorbable(seed, &s));
        }
    }

    #[test]
    fn send_sites_match_schedule_sends() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 2, 2));
        let sites = send_sites(&s);
        let sends: usize = s
            .programs()
            .iter()
            .map(|p| {
                p.count(|i| {
                    matches!(
                        i.kind,
                        InstrKind::SendAct { .. } | InstrKind::SendGrad { .. }
                    )
                })
            })
            .sum();
        assert_eq!(sites.len(), sends);
    }
}
