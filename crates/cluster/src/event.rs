//! The discrete-event backend: the emulator's scale path.
//!
//! One thread, no watchdog, no real-time blocking: every device is a
//! `Machine` stepped until it parks, and every link a `mario_ir::Fifo`
//! of timestamped packets — the ack window the DP simulator, the
//! deadlock check and the what-if re-timer use too. The machine holds
//! all instruction semantics, so this module only keeps the worklist,
//! settlement and quiescence; with zero jitter it agrees bit-for-bit with
//! the thread backend and the DP simulator, which the three-way parity
//! proptests pin.
//!
//! Why any execution order works: each device's instruction sequence is
//! fixed, each channel is FIFO, and every clock update depends only on
//! packet timestamps — never on when the scheduler happened to run the
//! device. The worklist is therefore confluent: any order of ready
//! devices reaches the same final state (a property
//! `tests/properties.rs` checks by permuting the seed order through
//! [`run_event_ordered`]).
//!
//! Deadlock needs no timer here: when the worklist drains and devices
//! are still blocked, no event can ever wake them — that *is* the
//! deadlock, detected in zero real time where the thread backend must
//! wait out a watchdog.

use crate::error::EmuError;
use crate::faults::FaultPlan;
use crate::link::{LinkError, Packet};
use crate::machine::{CkptBoard, DeviceReport, Machine, Shared, StallTable, Stepped, Transport};
use crate::runner::{settle_report, EmulatorConfig, RunOptions, RunReport};
use mario_ir::{CostModel, DeviceId, Dir, Fifo, Link, LinkTable, MemoryRules, Nanos, Schedule};
use std::collections::VecDeque;

/// One bounded-FIFO link, event-style: the shared [`Fifo`] plus whether
/// each end has settled (an empty or full link then reads as
/// disconnected instead of parking).
#[derive(Debug, Default)]
struct EventChannel {
    fifo: Fifo<Packet>,
    sender_settled: bool,
    receiver_settled: bool,
}

/// The in-memory links, indexed by link number: an empty or full link
/// parks the machine, and once the peer has settled the link reads as
/// disconnected — FIFO-ordered after all genuine traffic, the same
/// observation the thread backend's poison markers make. Every packet
/// and ack wakes the peer it is for.
struct EventLinks<'s> {
    table: &'s LinkTable,
    chans: &'s mut [EventChannel],
    capacity: usize,
    wakes: &'s mut Vec<usize>,
}

impl Transport for EventLinks<'_> {
    fn reserve(&mut self, link: Link) -> Result<Option<Nanos>, LinkError> {
        let chan = &mut self.chans[link.id];
        match chan.fifo.reserve(self.capacity) {
            None if chan.receiver_settled => Err(LinkError::Disconnected),
            freed => Ok(freed),
        }
    }

    fn push(&mut self, link: Link, pkt: Packet) -> Result<usize, LinkError> {
        let occupancy = self.chans[link.id].fifo.push(pkt);
        self.wakes.push(self.table.key(link.id).1.index());
        Ok(occupancy)
    }

    fn pop(&mut self, link: Link) -> Result<Option<Packet>, LinkError> {
        let chan = &mut self.chans[link.id];
        match chan.fifo.pop() {
            None if chan.sender_settled => Err(LinkError::Disconnected),
            pkt => Ok(pkt),
        }
    }

    fn ack(&mut self, link: Link, at: Nanos) {
        self.chans[link.id].fifo.ack(at);
        self.wakes.push(self.table.key(link.id).0.index());
    }
}

/// Mutable scheduler state threaded through [`Sched::drain_queue`] and
/// [`Sched::settle`].
struct Sched<'a> {
    devs: Vec<Machine<'a>>,
    /// The run's links and each device's ports onto them, which
    /// settlement walks too.
    table: &'a LinkTable,
    /// One channel per link, indexed by link number.
    chans: Vec<EventChannel>,
    capacity: usize,
    queue: VecDeque<usize>,
    queued: Vec<bool>,
    results: Vec<Option<Result<DeviceReport, EmuError>>>,
}

impl Sched<'_> {
    /// Enqueues `d` unless it already settled or is already queued.
    fn wake(&mut self, d: usize) {
        if d < self.results.len() && self.results[d].is_none() && !self.queued[d] {
            self.queued[d] = true;
            self.queue.push_back(d);
        }
    }

    /// Records `d`'s outcome and marks every link end it owns as settled:
    /// peers observe end-of-stream only after consuming all genuine
    /// traffic (FIFO order). Wakes the affected peers.
    fn settle(&mut self, d: usize, result: Result<DeviceReport, EmuError>) {
        self.results[d] = Some(result);
        let (table, device) = (self.table, DeviceId(d as u32));
        for &((peer, ..), id) in table.ports(device, Dir::Send) {
            self.chans[id].sender_settled = true;
            self.wake(peer.index());
        }
        for &((peer, ..), id) in table.ports(device, Dir::Recv) {
            self.chans[id].receiver_settled = true;
            self.wake(peer.index());
        }
    }

    /// Runs the worklist dry: steps every queued device, records
    /// settlements, propagates wakes.
    fn drain_queue(&mut self) {
        let mut wakes = Vec::new();
        while let Some(d) = self.queue.pop_front() {
            self.queued[d] = false;
            if self.results[d].is_some() {
                continue;
            }
            let mut links = EventLinks {
                table: self.table,
                chans: &mut self.chans,
                capacity: self.capacity,
                wakes: &mut wakes,
            };
            match self.devs[d].step(&mut links) {
                Ok(Stepped::Blocked) => {}
                Ok(Stepped::Finished) => {
                    let report = self.devs[d].finish();
                    self.settle(d, Ok(report));
                }
                Err(e) => self.settle(d, Err(e)),
            }
            for w in wakes.drain(..) {
                self.wake(w);
            }
        }
    }
}

/// Runs `schedule` on the event backend with an explicit initial
/// worklist `order`. The executor is confluent — any permutation of
/// `order` produces a bit-identical result — and the determinism
/// proptests exercise exactly that by permuting it.
#[doc(hidden)]
pub fn run_event_ordered(
    schedule: &Schedule,
    cost: &dyn CostModel,
    cfg: EmulatorConfig,
    plan: &FaultPlan,
    startup: &[Nanos],
    order: &[u32],
) -> Result<RunReport, EmuError> {
    let opts = RunOptions {
        startup,
        ..RunOptions::new(plan)
    };
    run_event(schedule, cost, cfg, &opts, order)
}

/// The event backend behind [`crate::run_with`], seeding its worklist in
/// `order`.
pub(crate) fn run_event(
    schedule: &Schedule,
    cost: &dyn CostModel,
    cfg: EmulatorConfig,
    opts: &RunOptions,
    order: &[u32],
) -> Result<RunReport, EmuError> {
    let RunOptions {
        plan,
        startup,
        serving,
    } = *opts;
    let devices = schedule.devices() as usize;
    let mut seen = vec![false; devices];
    for &d in order {
        assert!(
            (d as usize) < devices && !std::mem::replace(&mut seen[d as usize], true),
            "order must be a permutation of 0..{devices}"
        );
    }
    assert!(
        seen.iter().all(|&s| s),
        "order must cover every device 0..{devices}"
    );

    let rules = MemoryRules::new(schedule);
    let table = LinkTable::new(schedule);
    let stalls = StallTable::new(devices);
    let ckpts = CkptBoard::new(devices);
    let shared = Shared {
        schedule,
        cost,
        rules: &rules,
        links: &table,
        stalls: &stalls,
        ckpts: &ckpts,
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
        table: &table,
        chans: (0..table.len()).map(|_| EventChannel::default()).collect(),
        capacity: cfg.channel_capacity,
        queue: order.iter().map(|&d| d as usize).collect(),
        queued: vec![true; devices],
        results: (0..devices).map(|_| None).collect(),
    };
    sched.drain_queue();

    // Quiescence, phase 1: devices parked on a link with an injected
    // incoming stall are the stall surfacing — the event analogue of the
    // thread backend's watchdog timeout on a stalled link. Settling one
    // can cascade (peers observe the failure), so loop until no stall
    // fires.
    loop {
        let mut fired = false;
        for d in 0..devices {
            if sched.results[d].is_some() {
                continue;
            }
            if let Some(stall) = sched.devs[d].stalled() {
                stalls.clear(DeviceId(d as u32));
                sched.settle(d, Err(stall));
                fired = true;
            }
        }
        if !fired {
            break;
        }
        sched.drain_queue();
    }

    // Quiescence, phase 2: anything still parked can never be woken —
    // that is a deadlock, detected in zero real time. Snapshot every wait
    // chain *before* settling anyone, so the named cycles do not depend
    // on settlement order.
    let parked: Vec<usize> = (0..devices)
        .filter(|&d| sched.results[d].is_none())
        .collect();
    let chains: Vec<Vec<DeviceId>> = parked
        .iter()
        .map(|&d| stalls.wait_chain(DeviceId(d as u32)))
        .collect();
    for (&d, cycle) in parked.iter().zip(chains) {
        stalls.clear(DeviceId(d as u32));
        let err = sched.devs[d].deadlocked(cycle);
        sched.settle(d, Err(err));
    }
    sched.drain_queue();

    let results = sched
        .results
        .into_iter()
        .map(|r| r.expect("every device settles before the worklist drains"))
        .collect();
    settle_report(results, &cfg, plan, &ckpts)
}
