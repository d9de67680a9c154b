//! Elastic shrink planning: re-map the model onto the surviving devices
//! after a hard fault instead of waiting for a replacement.
//!
//! When a device dies mid-run, the operator has two recovery policies
//! (see [`RecoveryPolicy`]): **wait-and-resume** — hold the whole
//! pipeline until a spare arrives, then restart from the last durable
//! checkpoint at full width — or **shrink-and-continue** — re-partition
//! the layers over the `p−k` survivors, pay a one-time state
//! redistribution, and keep training degraded. This module plans the
//! second option and prices both:
//!
//! * [`plan_shrink`] picks the widest admissible shrunk pipeline, emits a
//!   fresh *valid* schedule for it, re-partitions the model with
//!   [`StagePartition`], and derives each survivor's startup offset from
//!   the layer state it must fetch (bytes over link bandwidth — the same
//!   `ceil(bytes·1000 / bytes_per_us)` arithmetic as
//!   [`mario_ir::ShardedWrite::flush_ns`]).
//! * [`compare_policies`] prices the tail of the run under both policies
//!   and reports the crossover point where the replacement wait starts
//!   paying for itself.
//!
//! The runtime counterpart is `mario_cluster::run_with_recovery`,
//! which consumes the plan as a [`Reconfiguration`]; the DP-simulator
//! counterpart is [`crate::simulator::simulate`] with
//! [`crate::simulator::SimOptions::startup`] set, which predicts the
//! shrunk topology's timeline including the startup charge.

use mario_cluster::{Reconfiguration, RecoveryPolicy};
use mario_ir::{
    min_channel_capacity, validate, ComputeKind, CostModel, DeviceId, Nanos, PartId, Schedule,
    SchemeKind, Topology, UnitCost,
};
use mario_model::StagePartition;
use mario_schedules::{generate, ScheduleConfig};

use crate::tuner::scheme_channel_capacity;

/// The pipeline being shrunk and the cluster constants that price the
/// state redistribution.
#[derive(Debug, Clone)]
pub struct ElasticSetup {
    /// Pipeline scheme of the running job.
    pub scheme: SchemeKind,
    /// Device count before the fault.
    pub devices: u32,
    /// Micro-batches per iteration (kept across the shrink).
    pub micros: u32,
    /// Total model layers to re-partition.
    pub layers: u32,
    /// Model-state bytes held per layer (weights + optimizer state).
    pub state_bytes_per_layer: u64,
    /// Link bandwidth for fetching redistributed state, in bytes/µs.
    pub fetch_bytes_per_us: u64,
}

/// A planned shrink: the degraded pipeline plus its one-time costs.
#[derive(Debug, Clone)]
pub struct ElasticPlan {
    /// Valid schedule for the shrunk pipeline.
    pub schedule: Schedule,
    /// Channel capacity the shrunk schedule needs (deadlock-free bound).
    pub channel_capacity: usize,
    /// Devices in the shrunk pipeline (`schedule.devices()`).
    pub devices: u32,
    /// Surviving original device ids, in order; survivor `i` becomes
    /// shrunk-pipeline device `i`. Survivors beyond `devices` idle (scheme
    /// constraints can force a narrower pipeline than the survivor count,
    /// e.g. Chimera needs even width).
    pub survivors: Vec<DeviceId>,
    /// Layer partition over the shrunk pipeline's stages.
    pub partition: StagePartition,
    /// Per shrunk-device startup offset: the time to fetch the layer
    /// state the survivor did not already hold.
    pub startup_ns: Vec<Nanos>,
    /// Total redistributed state across all survivors.
    pub moved_bytes: u64,
    /// Redistributed state per shrunk device (same order as `startup_ns`).
    pub moved_bytes_per_device: Vec<u64>,
}

impl ElasticPlan {
    /// Packages the plan for `mario_cluster::run_with_recovery`,
    /// attaching the cost model the shrunk pipeline should run under.
    pub fn into_reconfiguration(self, cost: Box<dyn CostModel>) -> Reconfiguration {
        Reconfiguration {
            schedule: self.schedule,
            cost,
            channel_capacity: self.channel_capacity,
            startup_ns: self.startup_ns,
            moved_bytes: self.moved_bytes,
            survivors: self.survivors,
        }
    }
}

/// [`UnitCost`] with stage compute scaled by the stage's layer count: a
/// stage holding `k` layers takes `k×` the unit-grid latency. This is
/// the degraded-speed model elastic planning needs — on the plain unit
/// grid every stage costs the same no matter how many layers it holds,
/// so a shrunk pipeline would be *faster* (fewer bubble stages, same
/// per-stage cost) and shrink-and-continue would dominate trivially.
/// With compute proportional to layers, packing the same model onto
/// fewer devices slows every iteration, which is what makes the policy
/// trade-off real.
#[derive(Debug, Clone)]
pub struct LayerScaledCost {
    unit: UnitCost,
    topo: Topology,
    partition: StagePartition,
}

impl LayerScaledCost {
    /// Scales `unit` by the even layer partition of `layers` over the
    /// stages of a `devices`-wide `scheme` pipeline.
    pub fn new(unit: UnitCost, scheme: SchemeKind, devices: u32, layers: u32) -> Self {
        let topo = Topology::new(scheme, devices);
        let partition = StagePartition::even(layers, topo.num_stages());
        Self {
            unit,
            topo,
            partition,
        }
    }

    /// Layers held by the stage at `(device, part)`.
    fn stage_layers(&self, device: DeviceId, part: PartId) -> u64 {
        let stage = self.topo.stage_of(device, part);
        u64::from(self.partition.layers_of(stage.0))
    }
}

impl CostModel for LayerScaledCost {
    fn compute_time(&self, device: DeviceId, part: PartId, kind: ComputeKind) -> Nanos {
        self.unit.compute_time(device, part, kind) * self.stage_layers(device, part)
    }

    fn act_full(&self, device: DeviceId, part: PartId) -> u64 {
        self.unit.act_full(device, part) * self.stage_layers(device, part)
    }

    fn act_ckpt(&self, device: DeviceId, part: PartId) -> u64 {
        self.unit.act_ckpt(device, part)
    }

    fn boundary_bytes(&self, device: DeviceId, part: PartId) -> u64 {
        self.unit.boundary_bytes(device, part)
    }

    fn p2p_time(&self, bytes: u64) -> Nanos {
        self.unit.p2p_time(bytes)
    }

    fn allreduce_time(&self, device: DeviceId) -> Nanos {
        self.unit.allreduce_time(device)
    }

    fn optimizer_time(&self, device: DeviceId) -> Nanos {
        self.unit.optimizer_time(device)
    }

    fn static_mem(&self, device: DeviceId) -> u64 {
        self.unit.static_mem(device)
    }

    fn ckpt_shard_bytes(&self, device: DeviceId) -> u64 {
        self.unit.ckpt_shard_bytes(device)
    }
}

/// The global layer set `(device, all parts)` holds under `topo` and `part`.
fn layers_of_device(topo: &Topology, partition: &StagePartition, d: DeviceId) -> Vec<u32> {
    let mut layers = Vec::new();
    for p in 0..topo.parts_per_device() {
        let stage = topo.stage_of(d, PartId(p));
        layers.extend(partition.range_of(stage.0));
    }
    layers.sort_unstable();
    layers.dedup();
    layers
}

/// Whether a `width`-device pipeline is structurally admissible for the
/// setup's scheme, micro-batch count, and layer count.
fn admissible_width(setup: &ElasticSetup, width: u32) -> bool {
    ScheduleConfig::new(setup.scheme, width, setup.micros).check().is_ok()
        && setup.layers >= Topology::new(setup.scheme, width).num_stages()
}

/// Plans the widest admissible shrunk pipeline after losing `lost`.
///
/// Returns `None` when no admissible shrunk pipeline exists (every device
/// lost, or the scheme's structural constraints cannot be met by any
/// survivor subset — e.g. Chimera with one survivor).
///
/// The emitted schedule is checked with [`mario_ir::validate`]; the
/// channel capacity is derived per schedule via
/// [`mario_ir::min_channel_capacity`], falling back to the per-scheme
/// closed-form ceiling.
pub fn plan_shrink(setup: &ElasticSetup, lost: &[DeviceId]) -> Option<ElasticPlan> {
    let survivors: Vec<DeviceId> = (0..setup.devices)
        .map(DeviceId)
        .filter(|d| !lost.contains(d))
        .collect();
    let width = (1..=survivors.len() as u32)
        .rev()
        .find(|&w| admissible_width(setup, w))?;

    let schedule = generate(ScheduleConfig::new(setup.scheme, width, setup.micros));
    validate(&schedule).ok()?;
    let channel_capacity = min_channel_capacity(&schedule)
        .unwrap_or_else(|| scheme_channel_capacity(setup.scheme));

    let old_topo = Topology::new(setup.scheme, setup.devices);
    let old_partition = StagePartition::even(setup.layers, old_topo.num_stages());
    let new_topo = Topology::new(setup.scheme, width);
    let partition = StagePartition::even(setup.layers, new_topo.num_stages());

    let mut startup_ns = Vec::with_capacity(width as usize);
    let mut moved_bytes_per_device = Vec::with_capacity(width as usize);
    let mut moved_bytes = 0u64;
    for i in 0..width {
        let held = layers_of_device(&old_topo, &old_partition, survivors[i as usize]);
        let needed = layers_of_device(&new_topo, &partition, DeviceId(i));
        let missing = needed.iter().filter(|l| !held.contains(l)).count() as u64;
        let bytes = missing * setup.state_bytes_per_layer;
        // Same arithmetic as ShardedWrite::flush_ns: ns = ceil(B·1000 / (B/µs)).
        let ns = (bytes * 1_000).div_ceil(setup.fetch_bytes_per_us.max(1));
        moved_bytes += bytes;
        moved_bytes_per_device.push(bytes);
        startup_ns.push(ns);
    }

    Some(ElasticPlan {
        schedule,
        channel_capacity,
        devices: width,
        survivors,
        partition,
        startup_ns,
        moved_bytes,
        moved_bytes_per_device,
    })
}

/// Both recovery policies priced over the remainder of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyComparison {
    /// The cheaper policy for this tail.
    pub policy: RecoveryPolicy,
    /// Total tail time under wait-and-resume: the replacement wait plus
    /// `remaining` full-width iterations.
    pub wait_total_ns: Nanos,
    /// Total tail time under shrink-and-continue: the state
    /// redistribution plus `remaining` shrunk-width iterations.
    pub shrink_total_ns: Nanos,
    /// Remaining-iteration count at which the policies tie: below it the
    /// shrink wins (small reconfiguration cost, tail too short to amortize
    /// the wait), above it waiting for full width wins. `None` when one
    /// policy dominates at every horizon.
    pub crossover_remaining: Option<u64>,
    /// Predicted full-width iteration time.
    pub full_iter_ns: Nanos,
    /// Predicted shrunk-width iteration time.
    pub shrunk_iter_ns: Nanos,
    /// One-time state-redistribution cost (max survivor startup offset).
    pub reconfig_ns: Nanos,
}

/// Prices wait-and-resume against shrink-and-continue for a tail of
/// `remaining` iterations and reports the crossover horizon.
pub fn compare_policies(
    full_iter_ns: Nanos,
    shrunk_iter_ns: Nanos,
    reconfig_ns: Nanos,
    replacement_wait_ns: Nanos,
    remaining: u32,
) -> PolicyComparison {
    let wait_total_ns = replacement_wait_ns + u64::from(remaining) * full_iter_ns;
    let shrink_total_ns = reconfig_ns + u64::from(remaining) * shrunk_iter_ns;
    // wait(r) = wait + r·full, shrink(r) = reconfig + r·shrunk. With the
    // shrunk pipeline slower per iteration (shrunk > full) and the wait
    // dearer than the redistribution (wait > reconfig), the lines cross at
    // r* = (wait − reconfig)/(shrunk − full); otherwise one policy
    // dominates at every horizon.
    let crossover_remaining = if shrunk_iter_ns > full_iter_ns
        && replacement_wait_ns > reconfig_ns
    {
        Some((replacement_wait_ns - reconfig_ns).div_ceil(shrunk_iter_ns - full_iter_ns))
    } else {
        None
    };
    let policy = if shrink_total_ns <= wait_total_ns {
        RecoveryPolicy::ShrinkAndContinue
    } else {
        RecoveryPolicy::WaitAndResume
    };
    PolicyComparison {
        policy,
        wait_total_ns,
        shrink_total_ns,
        crossover_remaining,
        full_iter_ns,
        shrunk_iter_ns,
        reconfig_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(scheme: SchemeKind, devices: u32, micros: u32, layers: u32) -> ElasticSetup {
        ElasticSetup {
            scheme,
            devices,
            micros,
            layers,
            state_bytes_per_layer: 1_000,
            fetch_bytes_per_us: 500,
        }
    }

    #[test]
    fn one_f_one_b_shrinks_to_all_survivors() {
        let s = setup(SchemeKind::OneFOneB, 4, 8, 12);
        let plan = plan_shrink(&s, &[DeviceId(2)]).expect("plan");
        assert_eq!(plan.devices, 3);
        assert_eq!(
            plan.survivors,
            vec![DeviceId(0), DeviceId(1), DeviceId(3)]
        );
        assert_eq!(plan.schedule.devices(), 3);
        assert!(validate(&plan.schedule).is_ok());
        assert_eq!(plan.partition.total(), 12);
        assert_eq!(plan.partition.as_slice(), &[4, 4, 4]);
        // Old even(12, 4) = [3,3,3,3]: dev0 held 0..3 needs 0..4 (1 layer),
        // dev1 held 3..6 needs 4..8 (2 layers), dev3 held 9..12 needs 8..12
        // (1 layer) — 4 layers move in total.
        assert_eq!(plan.moved_bytes_per_device, vec![1_000, 2_000, 1_000]);
        assert_eq!(plan.moved_bytes, 4_000);
        // flush_ns arithmetic: ceil(bytes·1000 / 500 B/µs).
        assert_eq!(plan.startup_ns, vec![2_000, 4_000, 2_000]);
    }

    #[test]
    fn chimera_rounds_down_to_even_width() {
        let s = setup(SchemeKind::Chimera, 4, 8, 12);
        let plan = plan_shrink(&s, &[DeviceId(1)]).expect("plan");
        // Three survivors, but Chimera needs an even pipeline: width 2,
        // survivor d3 idles.
        assert_eq!(plan.devices, 2);
        assert_eq!(
            plan.survivors,
            vec![DeviceId(0), DeviceId(2), DeviceId(3)]
        );
        assert!(validate(&plan.schedule).is_ok());
        // Both Chimera parts replicate all stages on each device: every
        // device ends up holding the full model, so each survivor fetches
        // exactly what it lacked.
        let topo = Topology::new(SchemeKind::Chimera, 2);
        assert_eq!(topo.num_stages(), 2);
        assert_eq!(plan.partition.stages(), 2);
    }

    #[test]
    fn interleave_respects_micro_divisibility() {
        let s = setup(SchemeKind::Interleave { chunks: 2 }, 4, 8, 16);
        let plan = plan_shrink(&s, &[DeviceId(0)]).expect("plan");
        // 8 micros don't divide by 3 survivors → width 2.
        assert_eq!(plan.devices, 2);
        assert_eq!(plan.partition.stages(), 4); // 2 devices × 2 chunks
        assert!(validate(&plan.schedule).is_ok());
    }

    #[test]
    fn every_scheme_yields_a_valid_shrunk_schedule() {
        for (scheme, d, n) in [
            (SchemeKind::GPipe, 4, 6),
            (SchemeKind::OneFOneB, 4, 6),
            (SchemeKind::Chimera, 4, 6),
            (SchemeKind::Interleave { chunks: 2 }, 4, 8),
            (SchemeKind::Wave { chunks: 2 }, 4, 6),
        ] {
            let s = setup(scheme, d, n, 32);
            let plan = plan_shrink(&s, &[DeviceId(d - 1)])
                .unwrap_or_else(|| panic!("{scheme:?} has no shrink plan"));
            assert!(plan.devices < d, "{scheme:?} did not shrink");
            assert!(validate(&plan.schedule).is_ok(), "{scheme:?} invalid");
            assert_eq!(plan.startup_ns.len(), plan.devices as usize);
            assert_eq!(plan.partition.total(), 32, "{scheme:?} lost layers");
        }
    }

    #[test]
    fn no_survivors_or_no_admissible_width_is_none() {
        let s = setup(SchemeKind::OneFOneB, 2, 4, 8);
        assert!(plan_shrink(&s, &[DeviceId(0), DeviceId(1)]).is_none());
        // Chimera with a single survivor has no even width.
        let s = setup(SchemeKind::Chimera, 2, 4, 8);
        assert!(plan_shrink(&s, &[DeviceId(0)]).is_none());
        // Too few layers for the surviving stages.
        let s = setup(SchemeKind::Interleave { chunks: 4 }, 4, 4, 2);
        assert!(plan_shrink(&s, &[DeviceId(3)]).is_none());
    }

    #[test]
    fn layer_scaled_cost_makes_the_shrunk_pipeline_slower() {
        use crate::simulator::simulate_timeline;
        let setup = setup(SchemeKind::OneFOneB, 4, 8, 8);
        let plan = plan_shrink(&setup, &[DeviceId(3)]).unwrap();
        let unit = UnitCost::paper_grid();
        let full = LayerScaledCost::new(unit, setup.scheme, setup.devices, setup.layers);
        let shrunk = LayerScaledCost::new(unit, setup.scheme, plan.devices, setup.layers);
        // 8 layers over 4 stages: 2 each, forward = 2t. Over 3 stages:
        // [3, 3, 2], forward = 3t on the packed stages.
        assert_eq!(
            full.compute_time(DeviceId(0), PartId(0), ComputeKind::Forward),
            2 * unit.unit
        );
        assert_eq!(
            shrunk.compute_time(DeviceId(0), PartId(0), ComputeKind::Forward),
            3 * unit.unit
        );
        // Packing the same model onto fewer devices slows the iteration —
        // the property that makes wait-and-resume worth anything.
        let full_sched = mario_schedules::generate(mario_schedules::ScheduleConfig::new(
            setup.scheme,
            setup.devices,
            setup.micros,
        ));
        let full_ns = simulate_timeline(&full_sched, &full, 1).unwrap().total_ns;
        let shrunk_ns = simulate_timeline(&plan.schedule, &shrunk, plan.channel_capacity)
            .unwrap()
            .total_ns;
        assert!(
            shrunk_ns > full_ns,
            "shrunk {shrunk_ns} ns should exceed full {full_ns} ns"
        );
    }

    #[test]
    fn crossover_splits_the_policy_regimes() {
        // full 10 µs/iter, shrunk 14 µs/iter, reconfig 20 µs, wait 200 µs
        // → r* = ceil(180/4) = 45.
        let short = compare_policies(10_000, 14_000, 20_000, 200_000, 10);
        assert_eq!(short.policy, RecoveryPolicy::ShrinkAndContinue);
        assert_eq!(short.crossover_remaining, Some(45));
        let long = compare_policies(10_000, 14_000, 20_000, 200_000, 100);
        assert_eq!(long.policy, RecoveryPolicy::WaitAndResume);
        assert_eq!(long.crossover_remaining, Some(45));
        assert_eq!(long.wait_total_ns, 200_000 + 100 * 10_000);
        assert_eq!(long.shrink_total_ns, 20_000 + 100 * 14_000);
        // Exactly at the tie the shrink is preferred (≤).
        let at = compare_policies(10_000, 14_000, 20_000, 200_000, 45);
        assert_eq!(at.policy, RecoveryPolicy::ShrinkAndContinue);
        // Free replacement: waiting dominates at every horizon.
        let dom = compare_policies(10_000, 14_000, 20_000, 5_000, 3);
        assert_eq!(dom.crossover_remaining, None);
        assert_eq!(dom.policy, RecoveryPolicy::WaitAndResume);
    }
}
