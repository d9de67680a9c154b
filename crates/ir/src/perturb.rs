//! Degraded-cluster perturbations: the one timing rule for stragglers
//! and slow links.
//!
//! A [`PerturbationProfile`] describes a *known* deviation from the
//! pristine cluster the cost model assumes: per-device compute slowdowns
//! over instruction ranges (stragglers) and extra latency on directed
//! links (either one specific packet or every packet of a pair). The
//! emulator's machine times every slowdown and link delay through
//! [`PerturbationProfile::scaled_compute`] and
//! [`PerturbationProfile::link_extra`], whether the profile came from the
//! caller or from the absorbable faults of a fault plan, and the
//! simulator (`mario-core`) is a zero-jitter run of that machine; the
//! makespan sweep the tuner ranks on calls the same two functions.
//!
//! Slowdown factors multiply per matching window and are applied with an
//! `f64` round-to-nearest; link latency shifts a packet's departure
//! timestamp while leaving the sender's own clock untouched.

use crate::cost::Nanos;
use crate::ids::DeviceId;
use serde::{Deserialize, Serialize};

/// A compute slowdown on one device over an instruction-index window:
/// instructions with `from_pc <= pc < until_pc` run `factor`× slower.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlowdownWindow {
    /// The straggling device.
    pub device: DeviceId,
    /// Slowdown multiplier (e.g. 10.0). Factors of overlapping windows
    /// multiply.
    pub factor: f64,
    /// First affected instruction index.
    pub from_pc: usize,
    /// One past the last affected instruction index.
    pub until_pc: usize,
    /// `Some(i)`: only iteration `i` (0-based) is slowed — the
    /// emulator's per-iteration fault scoping. `None`: every iteration
    /// (a persistent straggler).
    pub iteration: Option<u32>,
}

/// Extra latency on the directed link `src -> dst`: the affected packets
/// depart `extra_ns` later in virtual time (the sender's clock is
/// unaffected — the wire is slow, not the kernel launch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkSlack {
    /// Sending side of the link.
    pub src: DeviceId,
    /// Receiving side of the link.
    pub dst: DeviceId,
    /// `Some(n)`: only the `n`th packet of the pair (0-based, counting
    /// all classes and parts in the sender's program order *within one
    /// iteration* — the emulator's `LinkDelay` numbering, which resets
    /// every iteration). `None`: every packet.
    pub nth: Option<usize>,
    /// Extra virtual latency, ns.
    pub extra_ns: Nanos,
    /// `Some(i)`: only packets of iteration `i` (0-based) are delayed —
    /// the emulator's per-iteration fault scoping. `None`: every
    /// iteration (a persistently slow wire).
    pub iteration: Option<u32>,
}

/// A degraded-cluster description: per-device compute slowdowns plus
/// per-link added latency. The empty profile is the identity — it must
/// not perturb a simulation in any way.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PerturbationProfile {
    /// Active compute slowdowns.
    pub slowdowns: Vec<SlowdownWindow>,
    /// Active link latencies.
    pub link_slack: Vec<LinkSlack>,
}

/// The identity profile behind [`PerturbationProfile::pristine`].
static PRISTINE: PerturbationProfile = PerturbationProfile {
    slowdowns: Vec::new(),
    link_slack: Vec::new(),
};

impl PerturbationProfile {
    /// The identity profile: nothing is perturbed.
    pub fn identity() -> Self {
        Self::default()
    }

    /// The identity profile by `'static` reference, for option defaults
    /// that borrow a profile.
    pub fn pristine() -> &'static Self {
        &PRISTINE
    }

    /// True when this profile perturbs nothing.
    pub fn is_identity(&self) -> bool {
        self.slowdowns.is_empty() && self.link_slack.is_empty()
    }

    /// Adds a slowdown window.
    pub fn with_slowdown(mut self, w: SlowdownWindow) -> Self {
        self.slowdowns.push(w);
        self
    }

    /// Adds a whole-program straggler: every compute instruction on
    /// `device` runs `factor`× slower.
    pub fn with_straggler(self, device: DeviceId, factor: f64) -> Self {
        self.with_slowdown(SlowdownWindow {
            device,
            factor,
            from_pc: 0,
            until_pc: usize::MAX,
            iteration: None,
        })
    }

    /// Adds a link latency entry.
    pub fn with_link_slack(mut self, s: LinkSlack) -> Self {
        self.link_slack.push(s);
        self
    }

    /// Combined slowdown factor for instruction `pc` of iteration `iter`
    /// on `device` (the product over matching windows; 1.0 when none
    /// match).
    #[inline]
    pub fn compute_factor(&self, device: DeviceId, iter: u32, pc: usize) -> f64 {
        let mut f = 1.0;
        for w in &self.slowdowns {
            if w.device == device
                && w.iteration.is_none_or(|i| i == iter)
                && (w.from_pc..w.until_pc).contains(&pc)
            {
                f *= w.factor;
            }
        }
        f
    }

    /// `ns` scaled by the slowdown at `(device, iter, pc)`: untouched when
    /// the factor is exactly 1.0, otherwise `round(ns * factor)` in `f64`.
    #[inline]
    pub fn scaled_compute(&self, device: DeviceId, iter: u32, pc: usize, ns: Nanos) -> Nanos {
        let factor = self.compute_factor(device, iter, pc);
        if factor == 1.0 {
            ns
        } else {
            (ns as f64 * factor).round() as Nanos
        }
    }

    /// Extra departure latency for the `nth` packet of iteration `iter`
    /// sent on `src -> dst` (sum of the matching entries; `nth` counts
    /// within the iteration, as `DeviceClock::next_packet` numbers them).
    #[inline]
    pub fn link_extra(&self, src: DeviceId, dst: DeviceId, iter: u32, nth: usize) -> Nanos {
        self.link_slack
            .iter()
            .filter(|s| {
                s.src == src
                    && s.dst == dst
                    && s.iteration.is_none_or(|i| i == iter)
                    && s.nth.is_none_or(|n| n == nth)
            })
            .map(|s| s.extra_ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_scales_nothing() {
        let p = PerturbationProfile::identity();
        assert!(p.is_identity());
        assert_eq!(p.compute_factor(DeviceId(0), 0, 7), 1.0);
        assert_eq!(p.scaled_compute(DeviceId(3), 0, 0, 12_345), 12_345);
        assert_eq!(p.link_extra(DeviceId(0), DeviceId(1), 0, 0), 0);
    }

    #[test]
    fn windows_multiply_and_bound() {
        let p = PerturbationProfile::identity()
            .with_slowdown(SlowdownWindow {
                device: DeviceId(1),
                factor: 2.0,
                from_pc: 2,
                until_pc: 6,
                iteration: None,
            })
            .with_slowdown(SlowdownWindow {
                device: DeviceId(1),
                factor: 3.0,
                from_pc: 4,
                until_pc: 8,
                iteration: None,
            });
        assert_eq!(p.compute_factor(DeviceId(1), 0, 1), 1.0);
        assert_eq!(p.compute_factor(DeviceId(1), 0, 2), 2.0);
        assert_eq!(p.compute_factor(DeviceId(1), 0, 5), 6.0);
        assert_eq!(p.compute_factor(DeviceId(1), 0, 7), 3.0);
        assert_eq!(p.compute_factor(DeviceId(1), 0, 8), 1.0);
        // Other devices untouched.
        assert_eq!(p.compute_factor(DeviceId(0), 0, 5), 1.0);
        // round(1000 * 6.0).
        assert_eq!(p.scaled_compute(DeviceId(1), 0, 5, 1_000), 6_000);
    }

    #[test]
    fn straggler_covers_the_whole_program() {
        let p = PerturbationProfile::identity().with_straggler(DeviceId(2), 1.5);
        assert_eq!(p.scaled_compute(DeviceId(2), 0, 0, 1_000), 1_500);
        assert_eq!(p.scaled_compute(DeviceId(2), 7, usize::MAX - 1, 1_000), 1_500);
        assert_eq!(p.scaled_compute(DeviceId(0), 0, 0, 1_000), 1_000);
    }

    #[test]
    fn link_slack_matches_nth_or_all() {
        let p = PerturbationProfile::identity()
            .with_link_slack(LinkSlack {
                src: DeviceId(0),
                dst: DeviceId(1),
                nth: Some(2),
                extra_ns: 5_000,
                iteration: None,
            })
            .with_link_slack(LinkSlack {
                src: DeviceId(0),
                dst: DeviceId(1),
                nth: None,
                extra_ns: 100,
                iteration: None,
            });
        assert_eq!(p.link_extra(DeviceId(0), DeviceId(1), 0, 0), 100);
        assert_eq!(p.link_extra(DeviceId(0), DeviceId(1), 0, 2), 5_100);
        assert_eq!(p.link_extra(DeviceId(1), DeviceId(0), 0, 2), 0);
    }

    #[test]
    fn iteration_scope_gates_both_kinds() {
        let p = PerturbationProfile::identity()
            .with_slowdown(SlowdownWindow {
                device: DeviceId(0),
                factor: 2.0,
                from_pc: 0,
                until_pc: usize::MAX,
                iteration: Some(1),
            })
            .with_link_slack(LinkSlack {
                src: DeviceId(0),
                dst: DeviceId(1),
                nth: Some(0),
                extra_ns: 700,
                iteration: Some(2),
            });
        // Slowdown bites only in its iteration.
        assert_eq!(p.compute_factor(DeviceId(0), 0, 3), 1.0);
        assert_eq!(p.compute_factor(DeviceId(0), 1, 3), 2.0);
        assert_eq!(p.compute_factor(DeviceId(0), 2, 3), 1.0);
        // Link slack likewise; `nth` counts within the iteration.
        assert_eq!(p.link_extra(DeviceId(0), DeviceId(1), 1, 0), 0);
        assert_eq!(p.link_extra(DeviceId(0), DeviceId(1), 2, 0), 700);
        assert_eq!(p.link_extra(DeviceId(0), DeviceId(1), 2, 1), 0);
    }

    #[test]
    fn rounding_is_nearest() {
        let p = PerturbationProfile::identity().with_straggler(DeviceId(0), 1.0005);
        // 1000 * 1.0005 = 1000.5 -> rounds to 1001 (ties away from zero).
        assert_eq!(p.scaled_compute(DeviceId(0), 0, 0, 1_000), 1_001);
    }
}
