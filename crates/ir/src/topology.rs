//! The *virtual pipeline* abstraction (paper §5.2, Algorithm 1).
//!
//! Pipeline schemes differ wildly in how logical stages map onto physical
//! devices: 1F1B maps stage `s` to device `s`; Chimera runs two pipelines in
//! opposite directions at once; Interleave wraps `v` model chunks around the
//! device ring; Hanayo-style wave pipelines zig-zag. The virtual pipeline
//! unifies them: every scheme exposes, for each `(device, part)` pair, which
//! model stage it holds and where the activation travels next
//! (`find_next_inst`) or came from (`find_prev_inst`).
//!
//! Each scheme is described once, as the *legs* of its routes. A leg is one
//! part crossing every device, ascending (device 0 → D−1) or descending.
//! Chimera has two routes of one leg each (part 0 ascends, part 1
//! descends); every other scheme has one route whose legs are its parts in
//! order: one ascending leg for GPipe, 1F1B, ZB-H1 and forward-only, `c`
//! ascending legs for Interleave, `c` alternating legs for Wave, and two
//! (ascending, then descending) for ZB-V. Every query is `(route, hop)`
//! arithmetic on that description: the stage a `(device, part)` holds is
//! its hop index, and the next and previous hops are hop ± 1.

use crate::ids::{DeviceId, PartId, StageId};
use serde::{Deserialize, Serialize};

/// Which pipeline scheme shapes the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchemeKind {
    /// GPipe: all forwards, then all backwards; one stage per device.
    GPipe,
    /// 1F1B ("V" shape): one-forward-one-backward steady state; one stage
    /// per device.
    OneFOneB,
    /// Chimera ("X" shape): two bidirectional pipelines; every device holds
    /// one *down* stage (part 0) and one *up* stage (part 1); model weights
    /// are replicated once per direction.
    Chimera,
    /// Interleave ("W" shape, Megatron interleaved): each device holds
    /// `chunks` model chunks; a micro-batch wraps around the device ring
    /// `chunks` times.
    Interleave {
        /// Number of model chunks per device (a.k.a. virtual pipeline size).
        chunks: u32,
    },
    /// Hanayo-style wave pipeline: like Interleave but consecutive chunks
    /// traverse the devices in alternating directions, so wave boundaries
    /// stay on-device.
    Wave {
        /// Number of waves (chunks) per device.
        chunks: u32,
    },
    /// Fill-drain forward-only chain (inference/serving): one stage per
    /// device, micro-batches flow 0→D−1 and are done — no backward pass,
    /// no optimizer step. Bubble fraction is the classic `(p−1)/(m+p−1)`.
    ForwardOnly,
    /// Zero-bubble ZB-H1 (Qi et al., ICLR '24): the 1F1B chain with every
    /// backward split into its input-gradient half `Bi` (critical path)
    /// and weight-gradient half `Bw`, the latter deferred into the
    /// warmup/cooldown and recv-gap bubbles. Same chain topology as
    /// 1F1B; the split lives in the instruction stream.
    ZeroBubbleH1,
    /// Zero-bubble V schedule: two model chunks per device arranged in a
    /// V (chunk 0 runs 0→D−1, chunk 1 reflects back D−1→0, like a
    /// two-chunk wave), with the ZB backward split. The V shape keeps
    /// both halves of a micro's backward on-device at the turn, so `Bw`
    /// deferral never crosses a link.
    ZeroBubbleV,
}

impl SchemeKind {
    /// Short display name used in tables ("V", "X", "W", ...).
    pub fn shape_letter(&self) -> &'static str {
        match self {
            SchemeKind::GPipe => "G",
            SchemeKind::OneFOneB => "V",
            SchemeKind::Chimera => "X",
            SchemeKind::Interleave { .. } => "W",
            SchemeKind::Wave { .. } => "H",
            SchemeKind::ForwardOnly => "F",
            SchemeKind::ZeroBubbleH1 => "Z",
            SchemeKind::ZeroBubbleV => "ZV",
        }
    }

    /// How many partitions (stages) each device holds under this scheme:
    /// one per leg of every route.
    pub fn parts_per_device(&self) -> u32 {
        match *self {
            SchemeKind::GPipe
            | SchemeKind::OneFOneB
            | SchemeKind::ForwardOnly
            | SchemeKind::ZeroBubbleH1 => 1,
            SchemeKind::Chimera | SchemeKind::ZeroBubbleV => 2,
            SchemeKind::Interleave { chunks } | SchemeKind::Wave { chunks } => chunks,
        }
    }

    /// How many distinct forward *routes* micro-batches may take.
    ///
    /// Only Chimera has two (the down and up pipelines); in every other
    /// scheme all micro-batches follow route 0.
    pub fn num_routes(&self) -> u32 {
        match self {
            SchemeKind::Chimera => 2,
            _ => 1,
        }
    }

    /// Whether the leg held as `part` crosses the devices from D−1 down
    /// to 0. Interleave's legs all ascend; in every other scheme the odd
    /// parts descend: Chimera's up pipeline, ZB-V's second chunk and every
    /// second wave.
    fn descends(&self, part: u32) -> bool {
        match self {
            SchemeKind::Interleave { .. } => false,
            _ => part % 2 == 1,
        }
    }
}

/// The virtual pipeline: scheme + device count, with stage/hop arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// The pipeline scheme.
    pub scheme: SchemeKind,
    /// Number of devices `D` in the pipeline dimension.
    pub devices: u32,
}

impl Topology {
    /// Creates a topology, checking scheme-specific constraints.
    ///
    /// # Panics
    /// If `devices == 0`, if Chimera is requested with an odd device count,
    /// or if Interleave/Wave are requested with zero chunks.
    pub fn new(scheme: SchemeKind, devices: u32) -> Self {
        Self::try_new(scheme, devices).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Topology::new`] that reports a broken constraint instead of
    /// panicking, for input read from outside the program.
    pub fn try_new(scheme: SchemeKind, devices: u32) -> Result<Self, String> {
        if devices == 0 {
            return Err("pipeline needs at least one device".into());
        }
        if matches!(scheme, SchemeKind::Chimera) && !devices.is_multiple_of(2) {
            return Err(format!(
                "Chimera requires an even number of devices, got {devices}"
            ));
        }
        if let SchemeKind::Interleave { chunks: 0 } | SchemeKind::Wave { chunks: 0 } = scheme {
            return Err("Interleave/Wave require at least one chunk".into());
        }
        Ok(Self { scheme, devices })
    }

    /// Number of partitions each device holds.
    #[inline]
    pub fn parts_per_device(&self) -> u32 {
        self.scheme.parts_per_device()
    }

    /// Total number of model stages along one forward route: the route's
    /// legs times `D`.
    ///
    /// Chimera's two routes each traverse all `D` stages (the model is split
    /// into `D` stages; both directions hold a full replica), so this is `D`
    /// for Chimera and `D × chunks` for Interleave/Wave.
    ///
    /// A count past `u32::MAX`, which only a hostile schedule header can
    /// name, saturates there.
    #[inline]
    pub fn num_stages(&self) -> u32 {
        let legs = self.parts_per_device() / self.num_routes();
        self.devices.saturating_mul(legs)
    }

    /// Number of distinct forward routes (see [`SchemeKind::num_routes`]).
    #[inline]
    pub fn num_routes(&self) -> u32 {
        self.scheme.num_routes()
    }

    /// The `(route, hop)` of `(device, part)`. Chimera's route is its
    /// part; in every other scheme part `p` is leg `p` of route 0. A leg
    /// covers hops `leg × D` to `leg × D + D − 1`, counted from its first
    /// device.
    fn locate(&self, device: DeviceId, part: PartId) -> (u32, u32) {
        let (d, p) = (device.0, part.0);
        let route = if matches!(self.scheme, SchemeKind::Chimera) {
            p
        } else {
            0
        };
        let at = if self.scheme.descends(p) {
            self.devices - 1 - d
        } else {
            d
        };
        (route, (p - route) * self.devices + at)
    }

    /// The `(device, part)` at hop `h` of `route`. A route past the last
    /// reads as the last.
    fn hop(&self, route: u32, h: u32) -> (DeviceId, PartId) {
        let route = route.min(self.num_routes() - 1);
        let (part, at) = (route + h / self.devices, h % self.devices);
        let d = if self.scheme.descends(part) {
            self.devices - 1 - at
        } else {
            at
        };
        (DeviceId(d), PartId(part))
    }

    /// The model stage held by `(device, part)`: its hop along its route.
    ///
    /// For Chimera, both parts cover the same `D` model stages, mirrored:
    /// part 0 (down) puts stage `d` on device `d`; part 1 (up) puts stage
    /// `D-1-d` on device `d`.
    pub fn stage_of(&self, device: DeviceId, part: PartId) -> StageId {
        debug_assert!(device.0 < self.devices, "device {device} out of range");
        debug_assert!(
            part.0 < self.parts_per_device(),
            "part {part} out of range for {:?}",
            self.scheme
        );
        StageId(self.locate(device, part).1)
    }

    /// The forward path of `route`: the `(device, part)` hops a micro-batch
    /// visits from the first to the last stage. A route past the last
    /// reads as the last.
    pub fn forward_path(&self, route: u32) -> Vec<(DeviceId, PartId)> {
        (0..self.num_stages()).map(|h| self.hop(route, h)).collect()
    }

    /// Where the activation produced by `(device, part)` goes next, or
    /// `None` if this is the last stage of its route.
    ///
    /// This is the paper's `find_next_inst` (Algorithm 1) restricted to the
    /// device/part coordinates: the micro id and instruction type pass
    /// through unchanged.
    pub fn next_hop(&self, device: DeviceId, part: PartId) -> Option<(DeviceId, PartId)> {
        let (route, h) = self.locate(device, part);
        (h + 1 < self.num_stages()).then(|| self.hop(route, h + 1))
    }

    /// Where the activation consumed by `(device, part)` came from, or
    /// `None` if this is the first stage of its route.
    ///
    /// This is the paper's `find_prev_inst` (Algorithm 1).
    pub fn prev_hop(&self, device: DeviceId, part: PartId) -> Option<(DeviceId, PartId)> {
        let (route, h) = self.locate(device, part);
        h.checked_sub(1).map(|h| self.hop(route, h))
    }

    /// `(device, part)` holding the first stage of `route`.
    pub fn first_hop(&self, route: u32) -> (DeviceId, PartId) {
        self.hop(route, 0)
    }

    /// `(device, part)` holding the last stage of `route`.
    pub fn last_hop(&self, route: u32) -> (DeviceId, PartId) {
        self.hop(route, self.num_stages() - 1)
    }

    /// True if `(device, part)` holds the first stage of some route.
    pub fn is_first_stage(&self, device: DeviceId, part: PartId) -> bool {
        self.locate(device, part).1 == 0
    }

    /// True if `(device, part)` holds the last stage of some route.
    pub fn is_last_stage(&self, device: DeviceId, part: PartId) -> bool {
        self.locate(device, part).1 + 1 == self.num_stages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_hops(t: &Topology) -> Vec<(DeviceId, PartId)> {
        (0..t.devices)
            .flat_map(|d| (0..t.parts_per_device()).map(move |p| (DeviceId(d), PartId(p))))
            .collect()
    }

    /// Every scheme at every device count from 1 to 16 it accepts.
    fn every_topology() -> impl Iterator<Item = Topology> {
        let schemes = [
            SchemeKind::GPipe,
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::ForwardOnly,
            SchemeKind::ZeroBubbleH1,
            SchemeKind::ZeroBubbleV,
        ]
        .into_iter()
        .chain((1..=4).flat_map(|chunks| {
            [SchemeKind::Interleave { chunks }, SchemeKind::Wave { chunks }]
        }));
        schemes.flat_map(|s| (1..=16).filter_map(move |d| Topology::try_new(s, d).ok()))
    }

    /// Pins the answer of every geometry query for every scheme at D 1–16,
    /// so a rewrite of the arithmetic cannot move one unseen.
    #[test]
    fn every_geometry_query_is_pinned() {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |s: String| {
            for b in s.bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for t in every_topology() {
            feed(format!(
                "{t:?} {} {} {}\n",
                t.num_stages(),
                t.parts_per_device(),
                t.num_routes()
            ));
            for r in 0..t.num_routes() {
                feed(format!(
                    "r{r} {:?} {:?} {:?}\n",
                    t.forward_path(r),
                    t.first_hop(r),
                    t.last_hop(r)
                ));
            }
            for (d, p) in all_hops(&t) {
                feed(format!(
                    "{d} {p} {:?} {:?} {:?} {} {}\n",
                    t.stage_of(d, p),
                    t.next_hop(d, p),
                    t.prev_hop(d, p),
                    t.is_first_stage(d, p),
                    t.is_last_stage(d, p)
                ));
            }
        }
        assert_eq!(h, 0x0e97_8aac_2d7d_d25f, "geometry digest moved: {h:#018x}");
    }

    #[test]
    fn one_f_one_b_is_a_simple_chain() {
        let t = Topology::new(SchemeKind::OneFOneB, 4);
        assert_eq!(t.num_stages(), 4);
        assert_eq!(t.parts_per_device(), 1);
        assert_eq!(t.next_hop(DeviceId(0), PartId(0)), Some((DeviceId(1), PartId(0))));
        assert_eq!(t.next_hop(DeviceId(3), PartId(0)), None);
        assert_eq!(t.prev_hop(DeviceId(0), PartId(0)), None);
        assert_eq!(
            t.forward_path(0),
            vec![
                (DeviceId(0), PartId(0)),
                (DeviceId(1), PartId(0)),
                (DeviceId(2), PartId(0)),
                (DeviceId(3), PartId(0)),
            ]
        );
    }

    #[test]
    fn chimera_routes_are_mirrored() {
        let t = Topology::new(SchemeKind::Chimera, 4);
        assert_eq!(t.num_routes(), 2);
        assert_eq!(t.first_hop(0), (DeviceId(0), PartId(0)));
        assert_eq!(t.first_hop(1), (DeviceId(3), PartId(1)));
        assert_eq!(t.last_hop(0), (DeviceId(3), PartId(0)));
        assert_eq!(t.last_hop(1), (DeviceId(0), PartId(1)));
        // Up pipeline walks down the device indices.
        assert_eq!(
            t.next_hop(DeviceId(2), PartId(1)),
            Some((DeviceId(1), PartId(1)))
        );
        // Stage mapping is mirrored between the parts.
        assert_eq!(t.stage_of(DeviceId(1), PartId(0)), StageId(1));
        assert_eq!(t.stage_of(DeviceId(1), PartId(1)), StageId(2));
    }

    #[test]
    #[should_panic(expected = "even number of devices")]
    fn chimera_rejects_odd_device_counts() {
        let _ = Topology::new(SchemeKind::Chimera, 3);
    }

    #[test]
    fn interleave_wraps_around_the_ring() {
        let t = Topology::new(SchemeKind::Interleave { chunks: 2 }, 4);
        assert_eq!(t.num_stages(), 8);
        assert_eq!(t.stage_of(DeviceId(2), PartId(1)), StageId(6));
        assert_eq!(
            t.next_hop(DeviceId(3), PartId(0)),
            Some((DeviceId(0), PartId(1)))
        );
        assert_eq!(
            t.prev_hop(DeviceId(0), PartId(1)),
            Some((DeviceId(3), PartId(0)))
        );
        assert_eq!(t.next_hop(DeviceId(3), PartId(1)), None);
    }

    #[test]
    fn wave_reflects_on_device() {
        let t = Topology::new(SchemeKind::Wave { chunks: 2 }, 4);
        assert_eq!(t.num_stages(), 8);
        // Chunk 0 runs 0->3, chunk 1 runs 3->0; the reflection happens on d3.
        assert_eq!(
            t.next_hop(DeviceId(3), PartId(0)),
            Some((DeviceId(3), PartId(1)))
        );
        assert_eq!(
            t.next_hop(DeviceId(3), PartId(1)),
            Some((DeviceId(2), PartId(1)))
        );
        assert_eq!(t.last_hop(0), (DeviceId(0), PartId(1)));
        // Stage ids increase monotonically along the path.
        let path = t.forward_path(0);
        let stages: Vec<u32> = path.iter().map(|&(d, p)| t.stage_of(d, p).0).collect();
        assert_eq!(stages, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn next_and_prev_are_inverse_for_every_scheme() {
        let topos = [
            Topology::new(SchemeKind::GPipe, 5),
            Topology::new(SchemeKind::OneFOneB, 6),
            Topology::new(SchemeKind::Chimera, 6),
            Topology::new(SchemeKind::Interleave { chunks: 3 }, 4),
            Topology::new(SchemeKind::Wave { chunks: 3 }, 4),
            Topology::new(SchemeKind::ZeroBubbleH1, 5),
            Topology::new(SchemeKind::ZeroBubbleV, 4),
        ];
        for t in &topos {
            for (d, p) in all_hops(t) {
                if let Some((nd, np)) = t.next_hop(d, p) {
                    assert_eq!(
                        t.prev_hop(nd, np),
                        Some((d, p)),
                        "prev(next(x)) != x for {:?} at ({d}, {p})",
                        t.scheme
                    );
                }
                if let Some((pd, pp)) = t.prev_hop(d, p) {
                    assert_eq!(
                        t.next_hop(pd, pp),
                        Some((d, p)),
                        "next(prev(x)) != x for {:?} at ({d}, {p})",
                        t.scheme
                    );
                }
            }
        }
    }

    /// A route past the last reads as the last in every query, so the
    /// routes past it are walked too.
    #[test]
    fn forward_paths_visit_every_stage_once() {
        for t in every_topology() {
            for route in 0..t.num_routes() + 2 {
                let path = t.forward_path(route);
                assert_eq!(path.len() as u32, t.num_stages());
                let mut stages: Vec<u32> =
                    path.iter().map(|&(d, p)| t.stage_of(d, p).0).collect();
                stages.sort_unstable();
                stages.dedup();
                assert_eq!(stages.len() as u32, t.num_stages());
                // The path must agree with next_hop chaining.
                for w in path.windows(2) {
                    assert_eq!(t.next_hop(w[0].0, w[0].1), Some((w[1].0, w[1].1)));
                }
                assert_eq!(path[0], t.first_hop(route));
                assert_eq!(*path.last().unwrap(), t.last_hop(route));
            }
        }
    }

    #[test]
    fn shape_letters() {
        assert_eq!(SchemeKind::OneFOneB.shape_letter(), "V");
        assert_eq!(SchemeKind::Chimera.shape_letter(), "X");
        assert_eq!(SchemeKind::Interleave { chunks: 2 }.shape_letter(), "W");
        assert_eq!(SchemeKind::ZeroBubbleH1.shape_letter(), "Z");
        assert_eq!(SchemeKind::ZeroBubbleV.shape_letter(), "ZV");
    }

    #[test]
    fn zero_bubble_v_reflects_on_the_last_device() {
        let t = Topology::new(SchemeKind::ZeroBubbleV, 4);
        assert_eq!(t.num_stages(), 8);
        assert_eq!(t.parts_per_device(), 2);
        // Chunk 0 runs 0->3, chunk 1 runs 3->0; reflection on d3 stays local.
        assert_eq!(
            t.next_hop(DeviceId(3), PartId(0)),
            Some((DeviceId(3), PartId(1)))
        );
        assert_eq!(
            t.next_hop(DeviceId(3), PartId(1)),
            Some((DeviceId(2), PartId(1)))
        );
        assert_eq!(t.last_hop(0), (DeviceId(0), PartId(1)));
        // Stage ids increase monotonically along the path.
        let path = t.forward_path(0);
        let stages: Vec<u32> = path.iter().map(|&(d, p)| t.stage_of(d, p).0).collect();
        assert_eq!(stages, (0..8).collect::<Vec<_>>());
    }
}
