//! The discrete-event backend: the emulator's scale path, and the DP
//! simulator's executor (`mario-core`'s `simulate` is a zero-jitter run
//! of it).
//!
//! One thread, no watchdog, no real-time blocking: every device is a
//! `Machine` stepped until it parks, and every link a `mario_ir::Fifo`
//! of timestamped packets — the ack window the makespan sweep, the
//! deadlock check and the what-if re-timer use too. The machine holds
//! all instruction semantics, so this module only keeps settlement and
//! quiescence; with zero jitter it agrees bit-for-bit with the thread
//! backend, which the parity proptests pin.
//!
//! Devices run from a [`Ready`] queue, the scheduler the makespan sweep
//! and the deadlock check share: a machine runs until it parks on a link,
//! and a packet, an ack or a peer's settlement wakes it only if it waits
//! on that link. Each device's instruction sequence is fixed, each
//! channel is FIFO, and every clock update depends only on packet
//! timestamps, so any firing order reaches the same final state, errors
//! included (see [`mario_ir::ready`]); `tests/properties.rs` checks that
//! through [`run_event_shuffled`].
//!
//! Deadlock needs no timer here: when the queue drains and devices are
//! still blocked, no event can ever wake them — that *is* the deadlock,
//! detected in zero real time where the thread backend must wait out a
//! watchdog.

use crate::error::EmuError;
use crate::link::{LinkError, Packet};
use crate::machine::{CkptBoard, DeviceReport, Machine, Shared, StallTable, Stepped, Transport};
use crate::runner::{settle_report, EmulatorConfig, RunOptions, RunReport};
use mario_ir::{
    CostModel, DeviceId, Dir, Fifo, Link, LinkTable, MemoryRules, Nanos, Ready, Schedule,
};

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
/// observation the thread backend's poison markers make. A packet wakes
/// its receiver and an ack its sender, if it waits on that link.
struct EventLinks<'s> {
    table: &'s LinkTable,
    chans: &'s mut [EventChannel],
    capacity: usize,
    ready: &'s mut Ready,
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
        self.ready.wake(self.table.key(link.id).1.index(), link.id);
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
        self.ready.wake(self.table.key(link.id).0.index(), link.id);
    }
}

/// Mutable scheduler state threaded through [`Sched::drain`] and
/// [`Sched::settle`].
struct Sched<'a> {
    devs: Vec<Machine<'a>>,
    /// The run's links and each device's ports onto them, which
    /// settlement walks too.
    table: &'a LinkTable,
    /// One channel per link, indexed by link number.
    chans: Vec<EventChannel>,
    capacity: usize,
    ready: Ready,
    results: Vec<Option<Result<DeviceReport, EmuError>>>,
}

impl Sched<'_> {
    /// Records `d`'s outcome and marks every link end it owns as settled:
    /// peers observe end-of-stream only after consuming all genuine
    /// traffic (FIFO order). Wakes the peers waiting on those links.
    fn settle(&mut self, d: usize, result: Result<DeviceReport, EmuError>) {
        self.results[d] = Some(result);
        let (table, device) = (self.table, DeviceId(d as u32));
        for &((peer, ..), id) in table.ports(device, Dir::Send) {
            self.chans[id].sender_settled = true;
            self.ready.wake(peer.index(), id);
        }
        for &((peer, ..), id) in table.ports(device, Dir::Recv) {
            self.chans[id].receiver_settled = true;
            self.ready.wake(peer.index(), id);
        }
    }

    /// Runs the ready queue dry: steps each device until it parks,
    /// finishes or fails, and settles the latter two.
    fn drain(&mut self) {
        while let Some(d) = self.ready.front() {
            if self.results[d].is_some() {
                // Settled at quiescence while it waited on a link.
                self.ready.block(None);
                continue;
            }
            let mut links = EventLinks {
                table: self.table,
                chans: &mut self.chans,
                capacity: self.capacity,
                ready: &mut self.ready,
            };
            let stepped = self.devs[d].step(&mut links);
            if let Ok(Stepped::Blocked(link)) = stepped {
                self.ready.block(Some(link));
                continue;
            }
            self.ready.block(None);
            let result = stepped.map(|_| self.devs[d].finish());
            self.settle(d, result);
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
    let stalls = StallTable::new(devices);
    let ckpts = CkptBoard::new(devices);
    let shared = Shared {
        schedule,
        cost,
        profile: &profile,
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
        ready,
        results: (0..devices).map(|_| None).collect(),
    };
    sched.drain();

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
        sched.drain();
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
    sched.drain();

    let results = sched
        .results
        .into_iter()
        .map(|r| r.expect("every device settles before the queue drains"))
        .collect();
    settle_report(results, &cfg, plan, &ckpts)
}
