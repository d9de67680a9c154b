//! The discrete-event backend: the emulator's scale path, and the DP
//! simulator's executor (`mario-core`'s `simulate` is a zero-jitter run
//! of it).
//!
//! One thread: every device is a `Machine` stepped until it parks, over
//! the `Links` both backends share. The machine holds all instruction
//! semantics and the links the link rule, so this module only keeps the
//! firing order and `quiesce`, the resolution of a run in which no
//! device can move, which the thread backend calls too; with zero jitter
//! the two backends agree bit-for-bit, which the parity proptests pin.
//!
//! Devices run from a [`Ready`] queue, the scheduler the makespan sweep
//! and the deadlock check share: a machine runs until it parks on a link,
//! and a packet, an ack or a peer's settlement wakes it only if it waits
//! on that link. Each device's instruction sequence is fixed, each
//! channel is FIFO, and every clock update depends only on packet
//! timestamps, so any firing order reaches the same final state, errors
//! included (see [`mario_ir::ready`]); `tests/properties.rs` checks that
//! through `run_event_shuffled`, built only with the `test-order`
//! feature.
//!
//! Deadlock needs no timer: when the queue drains and devices are still
//! parked, no event can ever wake them — that *is* the deadlock,
//! detected in zero real time.

use crate::error::EmuError;
use crate::link::{Links, Wake};
use crate::machine::{Machine, Shared, Stepped};
use crate::runner::{settle_report, EmulatorConfig, RunOptions, RunReport};
use mario_ir::{CostModel, DeviceId, LinkTable, MemoryRules, Ready, Schedule};

/// Settles a quiescent run — every unsettled device parked, none able to
/// move — by the same rules on both backends; each settled device is
/// woken on the link it parked on, so its driver sees the settlement.
///
/// Phase 1: a device parked on a link with an injected incoming stall is
/// the stall surfacing. Settling one can cascade (peers observe the
/// failure), so when phase 1 settles anyone this returns `true`: the
/// backend runs the woken devices until the run is quiescent again and
/// calls this again. Phase 2, once no stall fires: anything still parked
/// can never be woken — a deadlock. Every wait chain is read off the
/// parked machines *before* anyone is settled, so the named cycles do not
/// depend on settlement order; this returns `false` with every device
/// settled. A settled device's checkpoint progress is read off its
/// machine.
pub(crate) fn quiesce<'m, 'a: 'm, W: Wake>(
    links: &mut Links<'_, W>,
    machine: impl Fn(usize) -> &'m Machine<'a>,
) -> bool {
    let parked: Vec<usize> = (0..links.results.len())
        .filter(|&d| links.results[d].is_none())
        .collect();
    let settle = |links: &mut Links<'_, W>, d: usize, err: EmuError| {
        let m = machine(d);
        links.settle(d, Err(err), m.ckpt());
        if let Some(link) = m.parked_link() {
            links.ready.wake(d, link);
        }
    };
    let mut fired = false;
    for &d in &parked {
        if let Some(stall) = machine(d).stalled() {
            settle(links, d, stall);
            fired = true;
        }
    }
    if fired {
        return true;
    }
    let waits_on = |d: DeviceId| match links.results.get(d.index()) {
        Some(None) => machine(d.index()).waits_on(),
        _ => None,
    };
    let chains: Vec<Vec<DeviceId>> = parked
        .iter()
        .map(|&d| wait_chain(DeviceId(d as u32), waits_on))
        .collect();
    for (&d, cycle) in parked.iter().zip(chains) {
        settle(links, d, machine(d).deadlocked(cycle));
    }
    false
}

/// The wait chain from `device`: follows the peer each device waits on
/// (`waits_on`, None for a device that is not parked or is past the
/// device count) until a device that waits on no one or a repeat (a true
/// cycle), such as "d0 -> d2 -> d1 -> d0". The starting device is always
/// the first entry.
fn wait_chain(device: DeviceId, waits_on: impl Fn(DeviceId) -> Option<DeviceId>) -> Vec<DeviceId> {
    let mut chain = vec![device];
    let mut current = device;
    while let Some(next) = waits_on(current) {
        let looped = chain.contains(&next);
        chain.push(next);
        if looped {
            break;
        }
        current = next;
    }
    chain
}

/// The machines and their links.
struct Sched<'a> {
    devs: Vec<Machine<'a>>,
    links: Links<'a, Ready>,
}

impl Sched<'_> {
    /// Runs the ready queue dry: steps each device until it parks,
    /// finishes or fails, and settles the latter two.
    fn drain(&mut self) {
        while let Some(d) = self.links.ready.front() {
            if self.links.results[d].is_some() {
                // Settled at quiescence while it waited on a link.
                self.links.ready.block(None);
                continue;
            }
            let stepped = self.devs[d].step(&mut self.links);
            if let Ok(Stepped::Blocked(link)) = stepped {
                self.links.ready.block(Some(link));
                continue;
            }
            self.links.ready.block(None);
            let m = &mut self.devs[d];
            let result = stepped.map(|_| m.finish());
            self.links.settle(d, result, m.ckpt());
        }
    }
}

/// [`crate::run_with`] on the event backend with devices run in a seeded
/// random order, for the tests that hold every order to the same
/// answers.
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

/// The event backend behind [`crate::run_with`], running devices in the
/// order `ready` gives.
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
        links: Links::new(&table, devices, cfg.channel_capacity, ready),
    };
    loop {
        sched.drain();
        let Sched { devs, links } = &mut sched;
        if !quiesce(links, |d| &devs[d]) {
            break;
        }
    }
    let results = sched
        .links
        .results
        .into_iter()
        .map(|r| r.expect("quiescence settles every device"))
        .collect();
    settle_report(results, &cfg, plan, &table)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chain over a table of who waits on whom.
    fn chain(waits: &[Option<u32>], from: u32) -> Vec<DeviceId> {
        let waits_on = |d: DeviceId| waits.get(d.index()).copied().flatten().map(DeviceId);
        wait_chain(DeviceId(from), waits_on)
    }

    fn ids(ids: &[u32]) -> Vec<DeviceId> {
        ids.iter().copied().map(DeviceId).collect()
    }

    #[test]
    fn wait_chain_names_a_cycle() {
        assert_eq!(chain(&[Some(1), Some(2), Some(0)], 0), ids(&[0, 1, 2, 0]));
        // Device 2 no longer waits: the chain ends there.
        assert_eq!(chain(&[Some(1), Some(2), None], 0), ids(&[0, 1, 2]));
    }

    #[test]
    fn wait_chain_stops_at_self_loops() {
        assert_eq!(chain(&[None, Some(1)], 1), ids(&[1, 1]));
    }

    #[test]
    fn wait_chain_keeps_the_largest_peer_id() {
        assert_eq!(chain(&[Some(u32::MAX)], 0), ids(&[0, u32::MAX]));
    }
}
