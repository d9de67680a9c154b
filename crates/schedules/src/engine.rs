//! A generic dependency-driven list scheduler.
//!
//! Some schemes (1F1B, Interleave) have well-known closed-form instruction
//! orders; others (Chimera's bidirectional merge, wave pipelines) are easier
//! to *derive* than to transcribe. This engine performs a greedy
//! earliest-start list scheduling over the virtual-pipeline dependency graph
//! under per-device in-flight limits, and emits the resulting per-device
//! compute order as a schedule. The same mechanism doubles as a reference
//! implementation to cross-check the closed-form generators in tests.
//!
//! Model (the paper's unit grid): forwards take 1 unit, backwards take 2,
//! communication is free. Readiness rules:
//!
//! * `F(m, hop0)` is ready at t=0, but *gated* by the in-flight limit of its
//!   injection device (this is what differentiates GPipe from 1F1B);
//! * `F(m, hop i)` is ready when `F(m, hop i-1)` finished;
//! * `B(m, last hop)` is ready when `F(m, last hop)` finished;
//! * `B(m, hop i)` is ready when both `F(m, hop i)` and `B(m, hop i+1)`
//!   finished.
//!
//! Each device fires, at each start time, the ready item with the smallest
//! key `(forward, micro, hop)`, where an item's start is the later of its
//! ready time and its device's clock: the earliest start wins, ties prefer
//! backwards over forwards (the 1F1B discipline), then lower micros, then
//! lower hops.
//!
//! The engine steps time one unit at a time. At time `t` every device whose
//! clock has reached `t` fires its best available item, and the order of
//! those firings does not matter:
//!
//! * every item is ready at most `BW_T` after the firing that woke it, since
//!   its other dependencies fired no later;
//! * so firings at one start time commute: each readies items only at
//!   `t + 1` or later, and un-gates only on its own device, whose clock it
//!   has just moved past `t`.
//!
//! A device's pick at `t` thus depends on nothing another device fires at
//! `t`, and each device's order is the one a global earliest-start scan
//! would give. The state:
//!
//! * a ring of `BW_T + 1` time buckets: the bucket of time `t` holds the
//!   items that become ready at `t` and the devices whose clock reaches
//!   `t`, the only devices that can fire then;
//! * per device, a min-heap of the *available* items, ready by its clock,
//!   keyed `(forward, micro, hop)`;
//! * per `(device, route)`, the *gated* first-arrival forwards that found
//!   the in-flight limit full, keyed by micro; a finished release un-gates
//!   the lowest micro into its device's available heap.
//!
//! Dependency counts and ready times live in dense tables indexed by the
//! micro's prefix offset, the hop and the direction. Each of the `I` items
//! passes through one bucket and is pushed to and popped from heaps a
//! bounded number of times, and each time step visits only the devices its
//! bucket names, so a derivation costs O(I·log I + T) for a makespan of `T`
//! units.

use mario_ir::{DeviceId, Instr, InstrKind, PartId, RouteHops, Schedule, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Policy knobs for the engine.
#[derive(Debug, Clone)]
pub struct EnginePolicy {
    /// `limits[device][route]`: maximum number of route-`route` micro-batches
    /// simultaneously "on the fly" at `device` (forward started here,
    /// backward not yet finished here). Use `u32::MAX` for unlimited.
    pub limits: Vec<Vec<u32>>,
}

impl EnginePolicy {
    /// No limits anywhere: produces GPipe-like eager injection.
    pub fn unlimited(devices: u32, routes: u32) -> Self {
        Self {
            limits: vec![vec![u32::MAX; routes as usize]; devices as usize],
        }
    }

    /// The 1F1B limit: device `d` keeps at most `D - d` micro-batches on the
    /// fly.
    pub fn one_f_one_b(devices: u32) -> Self {
        Self {
            limits: (0..devices).map(|d| vec![devices - d]).collect(),
        }
    }

    /// The Chimera limit: each direction injects at most `D/2` micro-batches
    /// at its head device.
    pub fn chimera(devices: u32) -> Self {
        let half = devices / 2;
        let mut limits = vec![vec![u32::MAX, u32::MAX]; devices as usize];
        limits[0][0] = half; // down pipeline injects at device 0
        limits[devices as usize - 1][1] = half; // up pipeline injects at D-1
        Self { limits }
    }

    /// A wave-pipeline limit: device `d` keeps at most `D - d/2` on the fly
    /// (looser than 1F1B because each device hosts several chunks).
    pub fn wave(devices: u32) -> Self {
        Self {
            limits: (0..devices).map(|d| vec![devices - d / 2]).collect(),
        }
    }
}

/// An item's tie-break key on its device: `(forward, micro, hop)`.
type ItemKey = (bool, u32, u32);

/// Derives a compute-only schedule for `topology` with `micros` micro-batches
/// and the given per-micro `routes`, under `policy`.
pub fn derive_schedule(
    topology: Topology,
    micros: u32,
    routes: Vec<u32>,
    policy: &EnginePolicy,
) -> Schedule {
    const FW_T: u64 = 1;
    const BW_T: u64 = 2;

    let paths: Vec<Vec<(DeviceId, PartId)>> = (0..topology.num_routes())
        .map(|r| topology.forward_path(r))
        .collect();
    let devices = topology.devices as usize;
    let num_routes = paths.len();
    let path_of = |m: u32| -> &[(DeviceId, PartId)] { &paths[routes[m as usize] as usize] };

    // `first_hop_on_dev[route][device]`: the first hop index of that route
    // landing on that device. In-flight gating applies only at a micro's
    // first arrival on a device (and the matching release happens at the
    // backward of that same hop — the last backward the device runs for the
    // micro), so routes crossing a device several times (Interleave, Wave)
    // are counted once and mid-route forwards are never blocked.
    let first_hop_on_dev: Vec<Vec<Option<u32>>> = paths
        .iter()
        .map(|path| {
            let mut firsts = vec![None; devices];
            for (hop, &(d, _)) in path.iter().enumerate() {
                if firsts[d.index()].is_none() {
                    firsts[d.index()] = Some(hop as u32);
                }
            }
            firsts
        })
        .collect();

    // Dense item tables: micro `m`'s hops start at `offset[m]`, and each
    // hop has a forward slot and a backward slot.
    let mut offset = Vec::with_capacity(micros as usize);
    let mut hops = 0usize;
    for m in 0..micros {
        offset.push(hops);
        hops += path_of(m).len();
    }
    let slot = |m: u32, hop: u32, forward: bool| {
        2 * (offset[m as usize] + hop as usize) + !forward as usize
    };
    let mut remaining = vec![0u8; 2 * hops];
    let mut ready_time = vec![0u64; 2 * hops];
    // `ring[t % RING]`: the items that become ready at `t`, and (keyless)
    // the devices whose clock reaches `t`. A step at `t` files entries at
    // most `BW_T` ahead, so the slots never collide.
    const RING: usize = BW_T as usize + 1;
    let mut ring: [Vec<(usize, Option<ItemKey>)>; RING] = Default::default();
    for m in 0..micros {
        let len = path_of(m).len() as u32;
        for hop in 0..len {
            remaining[slot(m, hop, true)] = if hop == 0 { 0 } else { 1 };
            remaining[slot(m, hop, false)] = if hop + 1 == len { 1 } else { 2 };
        }
        if len > 0 {
            ring[0].push((path_of(m)[0].0.index(), Some((true, m, 0))));
        }
    }

    let mut available: Vec<BinaryHeap<Reverse<ItemKey>>> = vec![BinaryHeap::new(); devices];
    let mut clocks = vec![0u64; devices];
    let mut gated: Vec<BinaryHeap<Reverse<u32>>> = vec![BinaryHeap::new(); devices * num_routes];
    let mut in_flight = vec![0u32; devices * num_routes];
    let mut order: Vec<Vec<Instr>> = vec![Vec::new(); devices];
    let mut done = 0usize;
    let mut now = Vec::new();
    let mut t = 0u64;

    while done < 2 * hops {
        std::mem::swap(&mut now, &mut ring[t as usize % RING]);
        assert!(
            !now.is_empty() || ring.iter().any(|b| !b.is_empty()),
            "scheduler stalled: dependency cycle"
        );
        for &(d, key) in &now {
            if let Some(key) = key {
                available[d].push(Reverse(key));
            }
        }
        for (d, _) in now.drain(..) {
            // A device fires at most once per time step: after a firing its
            // clock is past `t`.
            while clocks[d] <= t {
                let Some(Reverse((forward, micro, hop))) = available[d].pop() else {
                    break;
                };
                let path = path_of(micro);
                let part = path[hop as usize].1;

                // Gate first-arrival forwards by the in-flight limit.
                let route = routes[micro as usize] as usize;
                let lane = d * num_routes + route;
                let is_first_arrival = first_hop_on_dev[route][d] == Some(hop);
                if forward && is_first_arrival {
                    if in_flight[lane] >= policy.limits[d][route] {
                        gated[lane].push(Reverse(micro));
                        continue;
                    }
                    in_flight[lane] += 1;
                }

                let end = t + if forward { FW_T } else { BW_T };
                clocks[d] = end;
                ring[end as usize % RING].push((d, None));
                done += 1;
                order[d].push(if forward {
                    Instr::forward(micro, part.0)
                } else {
                    Instr::backward(micro, part.0)
                });

                // Wake dependents; each is ready within `BW_T` of `t`.
                let mut wake = |hop: u32, forward: bool| {
                    let s = slot(micro, hop, forward);
                    remaining[s] -= 1;
                    ready_time[s] = ready_time[s].max(end);
                    if remaining[s] == 0 {
                        let entry = (path[hop as usize].0.index(), Some((forward, micro, hop)));
                        ring[ready_time[s] as usize % RING].push(entry);
                    }
                };
                if forward {
                    if hop as usize + 1 < path.len() {
                        wake(hop + 1, true);
                    }
                    wake(hop, false);
                } else {
                    if hop > 0 {
                        wake(hop - 1, false);
                    }
                    // The backward of the micro's first-arrival hop is the
                    // last backward this device runs for it: release the
                    // in-flight slot and un-gate the lowest queued arrival
                    // of the route.
                    if is_first_arrival {
                        in_flight[lane] -= 1;
                        if let Some(Reverse(g)) = gated[lane].pop() {
                            available[d].push(Reverse((true, g, hop)));
                        }
                    }
                }
            }
        }
        t += 1;
    }

    let programs = order
        .into_iter()
        .enumerate()
        .map(|(d, instrs)| mario_ir::DeviceProgram::from_instrs(DeviceId(d as u32), instrs))
        .collect();
    Schedule::from_programs(topology, micros, routes, programs)
}

/// The makespan (total unit-grid time) of the derived order, re-simulated
/// under the same rules — exposed for tests and scheme comparisons.
///
/// # Panics
/// If the schedule deadlocks, or a compute instruction sits off its
/// micro's route.
pub fn unit_makespan(schedule: &Schedule) -> u64 {
    // Re-run a simple in-order simulation of the compute-only lists: an
    // instruction starts when the device is free and its cross-device
    // dependency (previous-hop forward / next-hop backward) has finished.
    const FW_T: u64 = 1;
    const BW_T: u64 = 2;
    // Split halves: Bi + Bw = B on the unit grid.
    const BI_T: u64 = 1;
    const BWGT_T: u64 = 1;
    let route_hops = RouteHops::new(&schedule.topology);
    let path_len = |m: usize| route_hops.path(schedule.routes[m]).len();
    // Dense finish table, one row per phase (0 = forward, 1 = backward or
    // its input half, 2 = weight half); micro `m`'s hops start at
    // `offset[m]` within a row.
    let mut offset = Vec::with_capacity(schedule.micros as usize);
    let mut hops = 0usize;
    for m in 0..schedule.micros as usize {
        offset.push(hops);
        hops += path_len(m);
    }
    let at = |phase: usize, micro: usize, hop: usize| phase * hops + offset[micro] + hop;
    let mut finish: Vec<Option<u64>> = vec![None; 3 * hops];
    let devices = schedule.devices() as usize;
    let mut pc = vec![0usize; devices];
    let mut clocks = vec![0u64; devices];
    loop {
        let mut fired = false;
        let mut all_done = true;
        for d in 0..devices {
            let dev = DeviceId(d as u32);
            let instrs = schedule.program(dev).instrs();
            // Run the device until it blocks on a dependency.
            while let Some(&i) = instrs.get(pc[d]) {
                let (phase, dur) = match i.kind {
                    InstrKind::Forward { .. } => (0, FW_T),
                    InstrKind::Backward => (1, BW_T),
                    InstrKind::BackwardInput => (1, BI_T),
                    InstrKind::BackwardWeight => (2, BWGT_T),
                    // Recompute and communication take no time here.
                    _ => {
                        pc[d] += 1;
                        continue;
                    }
                };
                let m = i.micro.index();
                let hop = route_hops
                    .hop(schedule.routes[m], dev, i.part)
                    .expect("on route");
                let dep = match phase {
                    0 if hop == 0 => Some(0),
                    0 => finish[at(0, m, hop - 1)],
                    // The input half carries the same cross-stage
                    // dependency as the full backward.
                    1 if hop + 1 == path_len(m) => finish[at(0, m, hop)],
                    1 => finish[at(0, m, hop)]
                        .zip(finish[at(1, m, hop + 1)])
                        .map(|(a, b)| a.max(b)),
                    // The weight half waits only for its own input half.
                    _ => finish[at(1, m, hop)],
                };
                let Some(dep) = dep else { break };
                clocks[d] = clocks[d].max(dep) + dur;
                finish[at(phase, m, hop)] = Some(clocks[d]);
                pc[d] += 1;
                fired = true;
            }
            all_done &= pc[d] == instrs.len();
        }
        if all_done {
            return clocks.into_iter().max().unwrap_or(0);
        }
        assert!(fired, "unit_makespan: schedule deadlocks");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::{validate, SchemeKind};

    #[test]
    fn engine_reproduces_1f1b_memory_profile() {
        let d = 4u32;
        let topo = Topology::new(SchemeKind::OneFOneB, d);
        let s = derive_schedule(topo, 8, vec![0; 8], &EnginePolicy::one_f_one_b(d));
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
        // Device d keeps at most D - d micro-batches on the fly.
        let peaks = s.peak_on_the_fly_per_device(true);
        assert_eq!(peaks, vec![4, 3, 2, 1]);
    }

    #[test]
    fn gpipe_policy_floods_device_zero() {
        let topo = Topology::new(SchemeKind::GPipe, 4);
        let s = derive_schedule(topo, 8, vec![0; 8], &EnginePolicy::unlimited(4, 1));
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
        assert_eq!(s.peak_on_the_fly_per_device(true)[0], 8);
    }

    #[test]
    fn one_f_one_b_beats_gpipe_makespan_is_equal_here() {
        // With free comm and balanced stages GPipe and 1F1B have the same
        // critical path; 1F1B wins on memory, not time.
        let topo_g = Topology::new(SchemeKind::GPipe, 4);
        let g = derive_schedule(topo_g, 8, vec![0; 8], &EnginePolicy::unlimited(4, 1));
        let topo_v = Topology::new(SchemeKind::OneFOneB, 4);
        let v = derive_schedule(topo_v, 8, vec![0; 8], &EnginePolicy::one_f_one_b(4));
        assert_eq!(unit_makespan(&g), unit_makespan(&v));
    }

    #[test]
    fn chimera_policy_produces_valid_bidirectional_schedule() {
        let d = 4u32;
        let topo = Topology::new(SchemeKind::Chimera, d);
        let routes: Vec<u32> = (0..8).map(|m| m % 2).collect();
        let s = derive_schedule(topo, 8, routes, &EnginePolicy::chimera(d));
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
        // Table 1: Chimera peak activation lies in [D/2+1, D] per device.
        for (dev, &peak) in s.peak_on_the_fly_per_device(true).iter().enumerate() {
            assert!(
                peak as u32 <= d,
                "device {dev} holds {peak} > D on-the-fly micro-batches"
            );
        }
    }

    #[test]
    fn derived_schedules_have_every_compute_instr() {
        let d = 6u32;
        let topo = Topology::new(SchemeKind::Chimera, d);
        let n = 12u32;
        let routes: Vec<u32> = (0..n).map(|m| m % 2).collect();
        let s = derive_schedule(topo, n, routes, &EnginePolicy::chimera(d));
        assert_eq!(
            s.count_tag(mario_ir::InstrTag::Forward),
            s.expected_forward_count()
        );
        assert_eq!(
            s.count_tag(mario_ir::InstrTag::Backward),
            s.expected_forward_count()
        );
    }

    #[test]
    fn wave_policy_is_valid() {
        let topo = Topology::new(SchemeKind::Wave { chunks: 2 }, 4);
        let s = derive_schedule(topo, 8, vec![0; 8], &EnginePolicy::wave(4));
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
    }

    #[test]
    fn makespan_respects_pipeline_lower_bound() {
        // With D stages and N micros, the last device cannot finish before
        // it has processed all N forwards + N backwards, and the first
        // forward cannot arrive before D-1 units.
        let d = 4u32;
        let n = 8u64;
        let topo = Topology::new(SchemeKind::OneFOneB, d);
        let s = derive_schedule(
            topo,
            n as u32,
            vec![0; n as usize],
            &EnginePolicy::one_f_one_b(d),
        );
        let m = unit_makespan(&s);
        assert!(m >= (d as u64 - 1) + 3 * n);
        // And greedy scheduling should achieve the classic 1F1B makespan
        // (D-1) warmup + ... within a small slack.
        assert!(m <= (d as u64 - 1) * 3 + 3 * n, "makespan {m} too large");
    }
}
