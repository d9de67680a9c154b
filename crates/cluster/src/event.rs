//! The discrete-event driver: the emulator's only driver, and the DP
//! simulator's executor (`mario-core`'s `simulate` is a zero-jitter run
//! of it).
//!
//! One thread: every device is a `Machine` stepped until it parks, over
//! the run's `Links`. The machine holds all instruction semantics and the
//! links the link rule, so this module only keeps the firing order and
//! `quiesce`, the reading of a run in which no device can move.
//!
//! Devices run from a [`Ready`] queue, the scheduler the makespan sweep
//! and the deadlock check share: a machine runs until it parks on a link,
//! and a packet or an ack wakes it only if it waits on that link. Each
//! device's instruction sequence is fixed, each channel is FIFO, and
//! every clock update depends only on packet timestamps, so any firing
//! order reaches the same final state, errors included (see
//! [`mario_ir::ready`]); `tests/properties.rs` and `tests/hostile.rs`
//! check that through `run_event_shuffled`, built only with the
//! `test-order` feature. One driver therefore answers for every order a
//! concurrent runtime could take.
//!
//! Deadlock needs no timer: when the queue drains and devices are still
//! parked, no event can ever wake them — that *is* the deadlock,
//! detected in zero real time, and read by [`stuck`] as the makespan
//! sweep and the deadlock check read theirs.

use crate::error::EmuError;
use crate::link::Links;
use crate::machine::{DeviceReport, Machine, Shared, Stepped};
use crate::runner::{settle_report, EmulatorConfig, RunOptions, RunReport};
use mario_ir::exec::stuck;
use mario_ir::{CostModel, DeviceId, LinkTable, MemoryRules, Ready, Schedule};

/// The machines, their links and each device's outcome once it
/// finished or failed.
struct Sched<'a> {
    devs: Vec<Machine<'a>>,
    links: Links<'a>,
    outcomes: Vec<Option<Result<DeviceReport, EmuError>>>,
}

impl Sched<'_> {
    /// Runs the ready queue dry: steps each device until it parks,
    /// finishes or fails, and records the latter two.
    fn drain(&mut self) {
        while let Some(d) = self.links.ready.front() {
            let stepped = self.devs[d].step(&mut self.links);
            if let Ok(Stepped::Blocked(link)) = stepped {
                self.links.ready.block(link);
                continue;
            }
            self.links.ready.block(None);
            let m = &mut self.devs[d];
            self.outcomes[d] = Some(stepped.map(|_| m.finish()));
        }
    }

    /// Reads the drained run, in which every device with no outcome is
    /// parked for good: nothing it waits on can happen, since a device
    /// that finishes or fails wakes no one. A device parked on a link
    /// with an injected incoming stall is the stall surfacing, and fails
    /// with it. Every other parked device stands where the makespan sweep
    /// and the deadlock check block, and [`stuck`] reads the run as it
    /// reads theirs; that reading is the run's answer only when no device
    /// failed, since a failure outranks a deadlock.
    fn quiesce(&mut self, schedule: &Schedule, iterations: u32) -> Option<EmuError> {
        for (m, outcome) in self.devs.iter().zip(&mut self.outcomes) {
            if outcome.is_none() {
                *outcome = m.stalled().map(Err);
            }
        }
        let cursor: Vec<usize> = self.devs.iter().map(Machine::cursor).collect();
        match stuck(schedule, iterations, &cursor, |b, p| self.links.head(b, p)) {
            Ok(deadlock) => deadlock.map(EmuError::Deadlock),
            Err(mismatch) => Some(EmuError::Mismatch(mismatch)),
        }
    }
}

/// [`crate::run_with`] with devices run in a seeded random order, for
/// the tests that hold every order to the same answers.
#[cfg(feature = "test-order")]
#[doc(hidden)]
pub fn run_event_shuffled(
    schedule: &Schedule,
    cost: &dyn CostModel,
    cfg: EmulatorConfig,
    opts: &RunOptions,
    seed: u64,
) -> Result<RunReport, EmuError> {
    let ready = Ready::shuffled(schedule.devices() as usize, seed);
    run_event(schedule, cost, cfg, opts, ready)
}

/// The driver behind [`crate::run_with`], running devices in the order
/// `ready` gives.
pub(crate) fn run_event(
    schedule: &Schedule,
    cost: &dyn CostModel,
    cfg: EmulatorConfig,
    opts: &RunOptions,
    ready: Ready,
) -> Result<RunReport, EmuError> {
    let RunOptions {
        plan,
        startup,
        serving,
        ..
    } = *opts;
    let profile = opts.timing();
    let devices = schedule.devices() as usize;
    let rules = MemoryRules::new(schedule);
    let table = LinkTable::new(schedule);
    let shared = Shared {
        schedule,
        cost,
        profile: &profile,
        rules: &rules,
        links: &table,
        serving,
    };
    let mut sched = Sched {
        devs: (0..devices)
            .map(|d| {
                let device = DeviceId(d as u32);
                let startup_ns = startup.get(d).copied().unwrap_or(0);
                Machine::new(shared, device, &cfg, plan.for_device(device), startup_ns)
            })
            .collect(),
        links: Links::new(&table, cfg.channel_capacity, ready),
        outcomes: (0..devices).map(|_| None).collect(),
    };
    sched.drain();
    let stuck = sched.quiesce(schedule, cfg.iterations);
    let results = sched
        .outcomes
        .into_iter()
        .zip(&sched.devs)
        .map(|(outcome, m)| (outcome, m.ckpt()))
        .collect();
    settle_report(results, stuck, &cfg, plan, &table)
}
