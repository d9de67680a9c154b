//! Emulator integration: determinism under stress, fault attribution,
//! timeline consistency, straggler model.

use mario_cluster::{run, EmuError, EmulatorConfig};
use mario_ir::{ComputeKind, CostModel, DeviceId, Nanos, PartId, SchemeKind, UnitCost};
use mario_schedules::{generate, ScheduleConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn unit() -> UnitCost {
    UnitCost::paper_grid()
}

#[test]
fn sixteen_device_run_is_deterministic_under_contention() {
    // Sixteen devices contend for every link; re-runs must give the same
    // virtual time.
    let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 16, 32));
    let a = run(&s, &unit(), EmulatorConfig::default()).unwrap();
    for _ in 0..3 {
        let b = run(&s, &unit(), EmulatorConfig::default()).unwrap();
        assert_eq!(a.device_clocks, b.device_clocks);
    }
}

#[test]
fn straggler_spread_slows_the_iteration_deterministically() {
    let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 8, 16));
    let exact = run(&s, &unit(), EmulatorConfig::default()).unwrap();
    let cfg = EmulatorConfig {
        straggler_spread: 0.10,
        ..Default::default()
    };
    let slow1 = run(&s, &unit(), cfg).unwrap();
    let slow2 = run(&s, &unit(), cfg).unwrap();
    assert_eq!(slow1.total_ns, slow2.total_ns, "straggler map is seeded");
    assert!(slow1.total_ns > exact.total_ns);
    // Bounded: at most the full spread.
    assert!((slow1.total_ns as f64) < exact.total_ns as f64 * 1.11);
}

#[test]
fn different_seeds_give_different_straggler_maps() {
    let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 8, 16));
    let a = run(
        &s,
        &unit(),
        EmulatorConfig {
            straggler_spread: 0.10,
            seed: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let b = run(
        &s,
        &unit(),
        EmulatorConfig {
            straggler_spread: 0.10,
            seed: 2,
            ..Default::default()
        },
    )
    .unwrap();
    assert_ne!(a.device_clocks, b.device_clocks);
}

#[test]
fn timeline_events_are_causally_consistent() {
    let s = generate(ScheduleConfig::new(SchemeKind::Chimera, 4, 8));
    let r = run(
        &s,
        &unit(),
        EmulatorConfig {
            channel_capacity: 2,
            record_spans: true,
            ..Default::default()
        },
    )
    .unwrap();
    // Per device, spans are strictly ordered and contiguous in time.
    let spans = r.spans.expect("spans recorded");
    for d in 0..4usize {
        let mut last_end = 0;
        for e in &spans.per_device[d] {
            assert!(e.start >= last_end, "overlap on d{d}: {e:?}");
            assert!(e.end >= e.start);
            last_end = e.end;
        }
        assert_eq!(last_end, r.device_clocks[d]);
    }
}

#[test]
fn corrupted_schedule_reports_comm_mismatch_not_hang() {
    // Swap two receives on a device: identities no longer match FIFO order.
    let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 2, 4));
    let d1 = s.program_mut(mario_ir::DeviceId(1));
    let ra: Vec<usize> = d1
        .iter()
        .filter(|(_, i)| matches!(i.kind, mario_ir::InstrKind::RecvAct { .. }))
        .map(|(pos, _)| pos)
        .collect();
    // Move the second receive in front of the first.
    d1.rotate_left(ra[0]..ra[1] + 1, ra[1] - ra[0]);
    let err = run(&s, &unit(), EmulatorConfig::default()).unwrap_err();
    assert!(
        matches!(
            err,
            mario_cluster::EmuError::CommMismatch { .. }
                | mario_cluster::EmuError::DeadlockSuspected { .. }
                | mario_cluster::EmuError::PeerFailed { .. }
        ),
        "{err}"
    );
}

#[test]
fn truncated_program_is_detected_without_hanging() {
    // Device 1 never sends its gradients: device 0 must not hang forever.
    // With deterministic link settlement the diagnosis is precise and
    // stable across interleavings: d1's sends were truncated away, so the
    // gradient link was never declared and d0's recv has no route. (The
    // old racy teardown reported DeadlockSuspected or PeerFailed
    // depending on which thread unwound first.)
    let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 2, 2));
    let mut kept = 0;
    s.program_mut(DeviceId(1)).retain(|_| {
        kept += 1;
        kept <= 2
    });
    // Ports resolve through the run's link table, which names the
    // device, pc and peer.
    let err = run(&s, &unit(), EmulatorConfig::default()).unwrap_err();
    assert_eq!(
        err,
        EmuError::NoRoute {
            device: DeviceId(0),
            pc: 4,
            peer: DeviceId(1),
        },
        "{err}"
    );
}

#[test]
fn deadlocked_64_device_ring_is_detected_within_budget() {
    use mario_ir::{Instr, Schedule, Topology};

    // A 64-wide recv-first ring: every device waits for its successor
    // before sending to its predecessor, so nobody ever sends — a
    // genuine deadlock, found when the last device parks.
    const D: u32 = 64;
    let topo = Topology::new(SchemeKind::OneFOneB, D);
    let mut s = Schedule::empty(topo, 1, vec![0]);
    for j in 0..D {
        let next = DeviceId((j + 1) % D);
        let prev = DeviceId((j + D - 1) % D);
        let p = s.program_mut(DeviceId(j));
        p.push(Instr::recv_act(0u32, 0u32, next));
        p.push(Instr::send_act(0u32, 0u32, prev));
    }
    // The run is settled the moment its ready queue drains, so the
    // report comes back in well under the budget.
    let t0 = Instant::now();
    let err = run(&s, &unit(), EmulatorConfig::default()).unwrap_err();
    let elapsed = t0.elapsed();
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
    match &err {
        EmuError::DeadlockSuspected { device, cycle, .. } => {
            assert_eq!(*device, DeviceId(0));
            // The chain walks the whole ring and closes on the start.
            assert_eq!(cycle.len() as u32, D + 1);
            assert_eq!(cycle.first(), cycle.last());
        }
        e => panic!("expected deadlock, got {e}"),
    }
}

#[test]
fn forty_iterations_accumulate_linearly() {
    let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
    let one = run(&s, &unit(), EmulatorConfig::default()).unwrap();
    let many = run(
        &s,
        &unit(),
        EmulatorConfig {
            iterations: 40,
            ..Default::default()
        },
    )
    .unwrap();
    // Steady-state per-iteration time can only be <= the cold first
    // iteration, and at least the pure compute bound (3N units).
    assert!(many.iter_ns <= one.total_ns);
    assert!(many.iter_ns >= 8 * 3 * 1_000);
}

/// The unit grid, except that device 1's compute panics.
struct PanicsOnD1(UnitCost);

impl CostModel for PanicsOnD1 {
    fn compute_time(&self, device: DeviceId, part: PartId, kind: ComputeKind) -> Nanos {
        assert_ne!(device, DeviceId(1), "cost model failure");
        self.0.compute_time(device, part, kind)
    }
    fn act_full(&self, device: DeviceId, part: PartId) -> u64 {
        self.0.act_full(device, part)
    }
    fn act_ckpt(&self, device: DeviceId, part: PartId) -> u64 {
        self.0.act_ckpt(device, part)
    }
    fn boundary_bytes(&self, device: DeviceId, part: PartId) -> u64 {
        self.0.boundary_bytes(device, part)
    }
    fn p2p_time(&self, bytes: u64) -> Nanos {
        self.0.p2p_time(bytes)
    }
    fn allreduce_time(&self, device: DeviceId) -> Nanos {
        self.0.allreduce_time(device)
    }
    fn optimizer_time(&self, device: DeviceId) -> Nanos {
        self.0.optimizer_time(device)
    }
    fn static_mem(&self, device: DeviceId) -> u64 {
        self.0.static_mem(device)
    }
}

#[test]
fn a_panicking_cost_model_unwinds_to_the_caller() {
    // The driver contains no panic: d1's cost-model panic unwinds out of
    // `run` with its payload, and the call returns rather than hanging.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let ran = catch_unwind(AssertUnwindSafe(|| {
            run(&s, &PanicsOnD1(unit()), EmulatorConfig::default())
        }));
        tx.send(ran.map(drop)).unwrap();
    });
    let ran = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the call returns");
    let payload = ran.expect_err("the panic reaches the caller");
    let detail = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(detail.contains("cost model failure"), "{detail:?}");
}
