//! The per-device instruction machine: the one implementation of
//! instruction semantics. The emulator's driver ([`crate::event`]) steps
//! it, and so does the DP simulator (`mario-core`), which is a
//! zero-jitter emulator run.
//!
//! A `Machine` walks one device's program over every iteration,
//! advancing a memory ledger, enforcing the device's injected faults (and
//! converting every induced failure into a structured [`FaultReport`]),
//! and recording telemetry and spans. Its virtual time moves only through
//! its [`DeviceClock`]: the launch charges, the ack window — a send on a
//! full link completes at `max(now, dequeued_at)` of the oldest un-acked
//! packet — the arrival `max(now, sent_at + wire)` a receive completes
//! at, checkpoint chunks draining into those waits, and the time classes.
//! Slowdowns and link delays come from the run's [`PerturbationProfile`]:
//! a compute duration is scaled by it, and a packet departs
//! `now + link_extra` late. The machine publishes nothing while it runs:
//! whoever settles it — its driver, or `event::quiesce` — reads its
//! checkpoint progress and the peer it waits on off it.
//!
//! Packets move through a `Transport`: the driver hands the machine the
//! run's [`crate::link`]s, and unit tests a scripted stand-in. The
//! machine resolves each send or recv port once, through the run's
//! [`LinkTable`], hands the transport the resolved [`Link`] and records
//! its end on the instruction's span ([`LinkEnd`]). An empty
//! or full link parks the machine: `Machine::step` returns
//! `Stepped::Blocked` with the link and resumes the parked operation on
//! the next call. Every clock update depends only on packet timestamps,
//! never on when the driver ran the machine, so every firing order
//! reaches bit-identical results.
//!
//! The hot path does no error work. Link and ledger results are matched
//! where they are read, and every [`EmuError`] and [`FaultReport`] is
//! built out of line, in `#[cold]` helpers that only a failure, or a run
//! with faults active in the current iteration, reaches.

use crate::error::EmuError;
use crate::faults::{DeviceFaults, FaultKind, FaultReport};
use crate::link::{LinkError, Packet};
use crate::runner::EmulatorConfig;
use crate::serving::ServingHooks;
use mario_ir::{
    AllocError, AllocKey, CheckpointPolicy, CostModel, DeviceClock, DeviceId, DeviceProgram,
    DeviceTelemetry, Dir, Instr, InstrKind, Link, LinkEnd, LinkSendStats, LinkTable, MemLedger,
    MemoryRules, Msg, Nanos, OpSpan, PerturbationProfile, Port, Schedule,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a device reports after finishing.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// Final virtual clock.
    pub clock: Nanos,
    /// Peak memory footprint (bytes).
    pub peak_mem: u64,
    /// Live dynamic allocations remaining (should be 0 after a clean
    /// iteration).
    pub leaked: usize,
    /// Faults this device absorbed without failing (slowdowns, delays).
    pub absorbed: Vec<FaultReport>,
    /// Time-class breakdown of this device's clock plus counters.
    pub telemetry: DeviceTelemetry,
    /// Send-side link statistics per receiving peer, in first-use order.
    pub link_sends: Vec<(DeviceId, LinkSendStats)>,
    /// Total recv-wait time per sending peer, ns, in first-use order.
    pub link_recv_wait: Vec<(DeviceId, Nanos)>,
    /// Executed spans (execution order), if span recording was enabled.
    pub spans: Vec<OpSpan>,
}

/// A device's checkpoint progress, read off its machine when it
/// settles: the iterations its last completed checkpoint write covers (a
/// sharded write counts only once its last chunk flushed, so a crash
/// mid-flush leaves it out) and the write time it paid on its clock
/// (synchronous writes and residue flushes; chunks hidden in bubbles cost
/// nothing).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Ckpt {
    pub saved: u32,
    pub paid_ns: Nanos,
}

/// A settled device: its outcome and its checkpoint progress.
pub(crate) type Settled = (Result<DeviceReport, EmuError>, Ckpt);

/// A device's links: moves packets and dequeue timestamps, nothing else.
/// `Ok(None)` means the operation cannot complete yet and the machine
/// parks.
pub(crate) trait Transport {
    /// Frees a slot for one more packet on the outgoing `link`: returns
    /// the time the slot was freed — the dequeue time of the oldest
    /// un-acked packet when the window is full, 0 when it has room.
    fn reserve(&mut self, link: Link) -> Result<Option<Nanos>, LinkError>;
    /// Enqueues `pkt` on the outgoing `link`, which `reserve` freed a slot
    /// on; returns the un-acked window right after the send.
    fn push(&mut self, link: Link, pkt: Packet) -> usize;
    /// Dequeues the next packet of the incoming `link`.
    fn pop(&mut self, link: Link) -> Result<Option<Packet>, LinkError>;
    /// Acknowledges the packet just popped from `link`, dequeued at `at`.
    fn ack(&mut self, link: Link, at: Nanos);
}

/// `peer`'s entry in a small per-peer vector, added on first use.
fn per_peer<V: Default>(entries: &mut Vec<(DeviceId, V)>, peer: DeviceId) -> &mut V {
    let i = match entries.iter().position(|e| e.0 == peer) {
        Some(i) => i,
        None => {
            entries.push((peer, V::default()));
            entries.len() - 1
        }
    };
    &mut entries[i].1
}

/// What every machine of one run shares.
#[derive(Clone, Copy)]
pub(crate) struct Shared<'a> {
    pub schedule: &'a Schedule,
    pub cost: &'a dyn CostModel,
    /// Times every slowdown and link delay.
    pub profile: &'a PerturbationProfile,
    pub rules: &'a MemoryRules,
    pub links: &'a LinkTable,
    /// Serving-mode release gates and completion scoreboard (None on
    /// training runs).
    pub serving: Option<ServingHooks<'a>>,
}

/// How far [`Machine::step`] got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stepped {
    /// Parked on a send or recv on this link number; a peer event on
    /// it must wake the machine.
    Blocked(usize),
    /// Ran every iteration to completion.
    Finished,
}

/// The link operation a machine is parked on, with its port's link (none
/// when the table has no link for it).
#[derive(Debug, Clone, Copy)]
enum Parked {
    /// A send waiting for a slot in the link's window.
    Send {
        pc: usize,
        start: Nanos,
        port: Port,
        link: Option<Link>,
        msg: Msg,
        bytes: u64,
        delay: Nanos,
    },
    /// A recv waiting for a packet.
    Recv {
        pc: usize,
        start: Nanos,
        port: Port,
        link: Option<Link>,
        expect: Msg,
    },
}

impl Parked {
    fn pc(&self) -> usize {
        match self {
            Parked::Send { pc, .. } | Parked::Recv { pc, .. } => *pc,
        }
    }

    fn peer(&self) -> DeviceId {
        match self {
            Parked::Send { port, .. } | Parked::Recv { port, .. } => port.0,
        }
    }

    fn link(&self) -> Option<Link> {
        match self {
            Parked::Send { link, .. } | Parked::Recv { link, .. } => *link,
        }
    }

    /// The link end this operation uses, as its span records it.
    fn end(&self) -> LinkEnd {
        let dir = match self {
            Parked::Send { .. } => Dir::Send,
            Parked::Recv { .. } => Dir::Recv,
        };
        self.link().map_or(LinkEnd::NONE, |l| LinkEnd::new(dir, l.id))
    }
}

/// One device's execution state: its [`DeviceClock`], ledger, faults,
/// spans, a program counter and the parked operation, so execution can
/// suspend and resume mid-program.
pub(crate) struct Machine<'a> {
    shared: Shared<'a>,
    device: DeviceId,
    program: &'a DeviceProgram,
    /// The cost model's p2p launch charge, read once.
    launch: Nanos,
    ledger: MemLedger,
    time: DeviceClock,
    rng: StdRng,
    jitter: f64,
    straggler: f64,
    record_spans: bool,
    spans: Vec<OpSpan>,
    faults: DeviceFaults,
    absorbed: Vec<FaultReport>,
    iteration: u32,
    iterations: u32,
    pc: usize,
    parked: Option<Parked>,
    checkpoint: Option<CheckpointPolicy>,
    /// Send statistics and recv-wait totals per peer, in first-use order.
    link_sends: Vec<(DeviceId, LinkSendStats)>,
    link_recv_wait: Vec<(DeviceId, Nanos)>,
}

impl<'a> Machine<'a> {
    /// A machine for `device` whose clock starts at `startup_ns` — the
    /// state-redistribution charge of an elastic reconfiguration, landing
    /// in the `reconfig_ns` time class.
    pub(crate) fn new(
        shared: Shared<'a>,
        device: DeviceId,
        cfg: &EmulatorConfig,
        faults: DeviceFaults,
        startup_ns: Nanos,
    ) -> Self {
        // A fixed per-device slowdown in [1, 1+spread], derived from the
        // seed so runs stay deterministic.
        let mix = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((device.0 as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let unit = (mix >> 11) as f64 / (1u64 << 53) as f64;
        let straggler = 1.0 + cfg.straggler_spread * unit;
        // An injected memory squeeze clamps the capacity for the whole
        // run (it models lost headroom, not a transient glitch).
        let capacity = match faults.squeezed_capacity() {
            Some(squeezed) => Some(cfg.mem_capacity.unwrap_or(u64::MAX).min(squeezed)),
            None => cfg.mem_capacity,
        };
        Self {
            shared,
            device,
            program: shared.schedule.program(device),
            launch: shared.cost.p2p_launch_overhead(),
            ledger: shared.rules.ledger(
                device,
                shared.cost,
                shared.cost.static_mem(device),
                capacity,
            ),
            time: DeviceClock::new(device, startup_ns),
            rng: StdRng::seed_from_u64(
                cfg.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(device.0 as u64 + 1)),
            ),
            jitter: cfg.jitter,
            straggler,
            record_spans: cfg.record_spans,
            spans: Vec::new(),
            faults,
            absorbed: Vec::new(),
            iteration: 0,
            iterations: cfg.iterations,
            pc: 0,
            parked: None,
            checkpoint: cfg.checkpoint,
            link_sends: Vec::new(),
            link_recv_wait: Vec::new(),
        }
    }

    /// Runs until the device blocks, finishes or fails. A parked
    /// operation is resumed first: the one completion path for both the
    /// first attempt and every retry.
    pub(crate) fn step<T: Transport>(&mut self, links: &mut T) -> Result<Stepped, EmuError> {
        loop {
            if let Some(op) = self.parked {
                if let Some(link) = self.resume(op, links)? {
                    return Ok(Stepped::Blocked(link));
                }
                self.parked = None;
                continue;
            }
            if self.iteration >= self.iterations {
                // No bubbles remain past the last instruction: pay any
                // async-checkpoint residue so the final checkpoint is
                // durable when the run ends.
                if let Some(span) = self.time.end_run(self.iterations.saturating_sub(1)) {
                    self.record(span);
                }
                return Ok(Stepped::Finished);
            }
            if self.pc >= self.program.len() {
                self.checkpoint_boundary()?;
                self.iteration += 1;
                self.pc = 0;
                continue;
            }
            self.execute()?;
        }
    }

    /// Executes the instruction at `pc`, or parks it when it is a send or
    /// recv.
    fn execute(&mut self) -> Result<(), EmuError> {
        let pc = self.pc;
        let program = self.program;
        let instr = program.get(pc).expect("pc in range");
        let (cost, profile) = (self.shared.cost, self.shared.profile);
        let faults_active = !self.faults.is_empty() && self.iteration == self.faults.iteration;
        if faults_active {
            if let Some(crash) = self.crash_at(pc) {
                return Err(crash);
            }
        }
        let start = self.time.now();
        match instr.kind.p2p() {
            None if instr.kind.is_compute() => {
                // Serving ingress gate: a first-stage forward may not
                // start before its micro-batch was released. The wait is
                // idle time exactly like a recv wait.
                let mut gate = 0;
                if let Some(sv) = self.shared.serving {
                    if matches!(instr.kind, InstrKind::Forward { .. })
                        && self.shared.schedule.topology.is_first_stage(self.device, instr.part)
                    {
                        gate = sv.release_of(instr.micro);
                        self.time.wait_until(gate, Dir::Recv);
                    }
                }
                let dur = self.jittered(cost.duration(self.device, instr));
                let dur = profile.scaled_compute(self.device, self.iteration, pc, dur);
                if faults_active {
                    self.absorb_slowdown(pc);
                }
                self.time.busy(instr.kind, dur);
                self.apply_mem(pc, instr)?;
                // Serving egress: a last-stage forward completes its
                // micro-batch (observational write — never read here).
                if let Some(sv) = self.shared.serving {
                    if matches!(instr.kind, InstrKind::Forward { .. })
                        && self.shared.schedule.topology.is_last_stage(self.device, instr.part)
                    {
                        sv.board.record(instr.micro, self.time.now());
                    }
                }
                self.complete(start, dur, 0, 0, gate);
            }
            None => {
                let dt = match instr.kind {
                    InstrKind::AllReduce => cost.allreduce_time(self.device),
                    _ => cost.optimizer_time(self.device),
                };
                self.time.busy(instr.kind, dt);
                self.complete(start, dt, 0, 0, 0);
            }
            Some(p) => {
                let launch = self.launch;
                self.time.launch(launch);
                let port = (p.peer, p.class, instr.part);
                let link = self.shared.links.resolve(self.device, p.dir, port);
                let msg = p.msg(instr);
                if p.dir == Dir::Recv {
                    self.parked = Some(Parked::Recv {
                        pc,
                        start,
                        port,
                        link,
                        expect: msg,
                    });
                    return Ok(());
                }
                let peer = p.peer;
                let nth = self.time.next_packet(peer, self.iteration);
                if faults_active && self.absorb_send_fault(pc, peer, nth) {
                    // The packet was dropped; the send side frees its
                    // buffers as usual. Never parked, so its span names
                    // no link: nothing went onto one, and the run fails
                    // at the receiver, so the span never reaches a graph.
                    self.apply_mem(pc, instr)?;
                    self.complete(start, launch, 0, 0, 0);
                    return Ok(());
                }
                let delay = profile.link_extra(self.device, peer, self.iteration, nth);
                let bytes = cost.boundary_bytes(self.device, instr.part);
                self.parked = Some(Parked::Send {
                    pc,
                    start,
                    port,
                    link,
                    msg,
                    bytes,
                    delay,
                });
            }
        }
        Ok(())
    }

    /// One attempt at the parked operation: `Ok(None)` once it completed,
    /// `Ok(Some(link))` while the transport cannot serve it yet.
    fn resume<T: Transport>(
        &mut self,
        op: Parked,
        links: &mut T,
    ) -> Result<Option<usize>, EmuError> {
        let launch = self.launch;
        match op {
            Parked::Send {
                pc,
                start,
                port,
                link,
                msg,
                bytes,
                delay,
            } => {
                let Some(link) = link else {
                    return Err(self.link_err(LinkError::NoRoute, pc, port.0));
                };
                let freed = match links.reserve(link) {
                    Ok(Some(freed)) => freed,
                    Ok(None) => return Ok(Some(link.id)),
                    Err(e) => return Err(self.link_err(e, pc, port.0)),
                };
                // The buffer was full until the receiver dequeued the
                // oldest packet: the send completes at that time. An
                // injected link delay pushes the packet's departure back
                // while the sender's own clock is unaffected.
                let pkt = Packet {
                    msg,
                    bytes,
                    sent_at: self.time.now().max(freed) + delay,
                };
                let occupancy = links.push(link, pkt);
                let blocked = self.time.wait_until(freed, Dir::Send);
                // The occupancy right after the send is the un-acked
                // window, which advances in lockstep with the simulator's
                // `Fifo`.
                per_peer(&mut self.link_sends, port.0).on_send(bytes, blocked, occupancy as u32);
                let instr = self.program.get(pc).expect("pc in range");
                self.apply_mem(pc, instr)?;
                self.complete(start, launch, 0, 0, 0);
            }
            Parked::Recv {
                pc,
                start,
                port,
                link,
                expect,
            } => {
                let Some(link) = link else {
                    return Err(self.link_err(LinkError::NoRoute, pc, port.0));
                };
                let pkt = match links.pop(link) {
                    Ok(Some(pkt)) => pkt,
                    Ok(None) => return Ok(Some(link.id)),
                    Err(e) => return Err(self.link_err(e, pc, port.0)),
                };
                if pkt.msg != expect {
                    // The mismatched packet is consumed and never acked.
                    return Err(self.link_err(LinkError::Mismatch(pkt.msg), pc, port.0));
                }
                let wire_ns = self
                    .shared
                    .cost
                    .p2p_time_between(port.0, self.device, pkt.bytes);
                let gap = self.time.wait_until(pkt.sent_at + wire_ns, Dir::Recv);
                links.ack(link, self.time.now());
                *per_peer(&mut self.link_recv_wait, port.0) += gap;
                self.complete(start, launch, pkt.sent_at, wire_ns, 0);
            }
        }
        Ok(None)
    }

    /// Completes the instruction at `pc`: records its span, ending at the
    /// current clock, and advances. A send or receive is still parked
    /// here, and its span names the link end it used.
    fn complete(
        &mut self,
        start: Nanos,
        work_ns: Nanos,
        sent_at: Nanos,
        wire_ns: Nanos,
        gate_ns: Nanos,
    ) {
        if self.record_spans {
            self.spans.push(OpSpan {
                device: self.device,
                iter: self.iteration,
                pc: self.pc as u32,
                link: self.parked.map_or(LinkEnd::NONE, |op| op.end()),
                start,
                end: self.time.now(),
                work_ns,
                sent_at,
                wire_ns,
                gate_ns,
            });
        }
        self.pc += 1;
    }

    fn record(&mut self, span: OpSpan) {
        if self.record_spans {
            self.spans.push(span);
        }
    }

    fn jittered(&mut self, ns: Nanos) -> Nanos {
        if self.jitter == 0.0 && self.straggler == 1.0 {
            return ns;
        }
        let f = if self.jitter == 0.0 {
            1.0
        } else {
            1.0 + self.rng.gen_range(-2.0 * self.jitter..=2.0 * self.jitter)
        };
        (ns as f64 * f * self.straggler).round() as Nanos
    }

    /// The instruction at `pc` rendered; `CKPT` past the program's end
    /// (the checkpoint boundary).
    fn instr_name(&self, pc: usize) -> String {
        self.program
            .get(pc)
            .map_or_else(|| "CKPT".to_string(), Instr::to_string)
    }

    #[cold]
    #[inline(never)]
    fn report(&self, fault: FaultKind, pc: usize, detail: &str) -> FaultReport {
        FaultReport {
            fault,
            device: self.device,
            pc,
            instr: self.instr_name(pc),
            blocked_peer: None,
            vtime: self.time.now(),
            iteration: self.iteration,
            last_checkpoint: self.time.last_checkpoint(),
            ckpt_paid_ns: 0,
            group: None,
            detail: detail.to_string(),
        }
    }

    /// The crash injected at `pc`, if there is one.
    #[cold]
    #[inline(never)]
    fn crash_at(&self, pc: usize) -> Option<EmuError> {
        match self.faults.crash {
            Some(fault @ FaultKind::Crash { pc: at, .. }) if at == pc => Some(EmuError::Fault(
                Box::new(self.report(fault, pc, "device crashed")),
            )),
            _ => None,
        }
    }

    /// Reports the injected slowdown whose window holds `pc`, once per
    /// fault, not once per slowed instruction.
    #[cold]
    #[inline(never)]
    fn absorb_slowdown(&mut self, pc: usize) {
        let fault = self.faults.slowdowns.iter().copied().find(|s| {
            matches!(*s, FaultKind::Slowdown { from_pc, until_pc, .. }
                if (from_pc..until_pc).contains(&pc))
        });
        if let Some(fault) = fault {
            if !self.absorbed.iter().any(|r| r.fault == fault) {
                let rep = self.report(fault, pc, "compute slowed");
                self.absorbed.push(rep);
            }
        }
    }

    /// Reports the injected fault on the `nth` packet to `peer`, sent at
    /// `pc`, if there is one. True when it is a stall, which drops the
    /// packet: the receiver's pairing recv can never complete and reports
    /// the stall, while the send side absorbs it.
    #[cold]
    #[inline(never)]
    fn absorb_send_fault(&mut self, pc: usize, peer: DeviceId, nth: usize) -> bool {
        let (fault, detail) = match self.faults.send_fault(self.iteration, peer, nth) {
            Some(f @ FaultKind::LinkStall { .. }) => (f, "packet dropped"),
            Some(f @ FaultKind::LinkDelay { .. }) => (f, "packet delayed"),
            _ => return false,
        };
        let rep = self.report(fault, pc, detail);
        self.absorbed.push(rep);
        matches!(fault, FaultKind::LinkStall { .. })
    }

    /// The injected stall of the incoming link from `peer`, reported as
    /// surfacing at `pc`, if there is one.
    #[cold]
    #[inline(never)]
    fn stall_error(&self, pc: usize, peer: DeviceId) -> Option<EmuError> {
        let fault = self.faults.recv_stall_from(peer)?;
        let mut report = self.report(fault, pc, "incoming link stalled");
        report.blocked_peer = Some(peer);
        Some(EmuError::Fault(Box::new(report)))
    }

    /// Maps a failed link operation at `pc` with `peer` to the run error.
    /// Any failure on a link with
    /// an injected stall is the stall surfacing, so it is normalized to
    /// the same structured report whether it showed as a disconnect or a
    /// mismatched message.
    #[cold]
    #[inline(never)]
    fn link_err(&self, e: LinkError, pc: usize, peer: DeviceId) -> EmuError {
        let device = self.device;
        match (e, self.stall_error(pc, peer)) {
            (LinkError::NoRoute, _) => EmuError::NoRoute { device, pc, peer },
            (_, Some(stall)) => stall,
            (LinkError::Disconnected, None) => EmuError::PeerFailed { device, pc },
            (LinkError::Mismatch(h), None) => EmuError::CommMismatch {
                device,
                pc,
                detail: format!("expected {}, got {h:?}", self.instr_name(pc)),
            },
        }
    }

    /// An allocation failure at `pc`. OOM under an injected capacity
    /// squeeze is the squeeze surfacing: it is reported as the structured
    /// fault.
    #[cold]
    #[inline(never)]
    fn alloc_err(&self, pc: usize, e: AllocError) -> EmuError {
        let (device, instr) = (self.device, self.instr_name(pc));
        match (e, self.faults.squeeze) {
            (AllocError::Live(key), _) => EmuError::DoubleAlloc {
                device,
                pc,
                instr,
                key,
            },
            (AllocError::Oom(cause), Some(fault)) => EmuError::Fault(Box::new(self.report(
                fault,
                pc,
                &format!("memory squeezed: {cause}"),
            ))),
            (AllocError::Oom(cause), None) => EmuError::Oom {
                device,
                pc,
                instr,
                cause,
            },
        }
    }

    #[inline]
    fn apply_mem(&mut self, pc: usize, instr: &Instr) -> Result<(), EmuError> {
        let Shared { rules, cost, .. } = self.shared;
        match rules.apply(&mut self.ledger, cost, self.device, instr) {
            Ok(()) => Ok(()),
            Err(e) => Err(self.alloc_err(pc, e)),
        }
    }

    /// Writes the end-of-iteration model-state checkpoint when the active
    /// policy puts a boundary here: pays the previous write's residue,
    /// holds the transient serialization buffer against capacity, then
    /// charges the write — or, with an async sharded policy, queues the
    /// chunk flushes to drain into the next iteration's bubbles.
    fn checkpoint_boundary(&mut self) -> Result<(), EmuError> {
        let iter = self.iteration;
        let Some(policy) = self.checkpoint.filter(|p| p.is_boundary(iter)) else {
            return Ok(());
        };
        let start = self.time.flush_residue();
        // The serialization buffer counts against capacity at its peak —
        // an injected squeeze can make the checkpoint itself the OOM site.
        // It is checked before any write cost is charged or durability
        // recorded: a snapshot that cannot even be serialized never
        // becomes a resume point.
        if let Err(e) = self.ledger.alloc(AllocKey::Snapshot, policy.mem_overhead) {
            return Err(self.alloc_err(self.program.len(), e));
        }
        self.ledger.free(AllocKey::Snapshot);
        let shard = self.shared.cost.ckpt_shard_bytes(self.device);
        let span = self.time.write_checkpoint(start, &policy, shard, iter);
        self.record(span);
        Ok(())
    }

    /// The injected-stall failure of the link this machine is parked on,
    /// if it has one: at quiescence, a parked device on a stalled link is
    /// the stall surfacing.
    pub(crate) fn stalled(&self) -> Option<EmuError> {
        let op = self.parked?;
        self.stall_error(op.pc(), op.peer())
    }

    /// The peer this machine is parked on a send to or a recv from, if it
    /// is parked.
    pub(crate) fn waits_on(&self) -> Option<DeviceId> {
        Some(self.parked?.peer())
    }

    /// The link number this machine is parked on, if it is parked.
    pub(crate) fn parked_link(&self) -> Option<usize> {
        Some(self.parked?.link()?.id)
    }

    /// The deadlock report of a machine that can never be woken, naming
    /// the wait chain `cycle`.
    pub(crate) fn deadlocked(&self, cycle: Vec<DeviceId>) -> EmuError {
        let pc = self.parked.map_or(self.pc, |op| op.pc());
        EmuError::DeadlockSuspected {
            device: self.device,
            pc,
            instr: self.instr_name(pc),
            cycle,
        }
    }

    /// The checkpoint progress this machine has made so far.
    pub(crate) fn ckpt(&self) -> Ckpt {
        Ckpt {
            saved: self.time.last_checkpoint(),
            paid_ns: self.time.classes().ckpt_sync_ns,
        }
    }

    /// Finishes the run and reports.
    pub(crate) fn finish(&mut self) -> DeviceReport {
        let telemetry = DeviceTelemetry {
            classes: *self.time.classes(),
            peak_mem: self.ledger.peak(),
            absorbed_faults: self.absorbed.len() as u32,
            ..DeviceTelemetry::new(self.device)
        };
        DeviceReport {
            clock: self.time.now(),
            peak_mem: self.ledger.peak(),
            leaked: self.ledger.live_count(),
            absorbed: std::mem::take(&mut self.absorbed),
            telemetry,
            link_sends: std::mem::take(&mut self.link_sends),
            link_recv_wait: std::mem::take(&mut self.link_recv_wait),
            spans: std::mem::take(&mut self.spans),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use mario_ir::{MicroId, MsgClass, PartId, SchemeKind, Topology, UnitCost};

    /// A transport that serves one scripted packet and frees every send
    /// slot at a fixed time.
    #[derive(Default)]
    struct Script {
        inbox: Option<Packet>,
        freed: Nanos,
        sent: Vec<Packet>,
        acks: Vec<Nanos>,
    }

    impl Transport for Script {
        fn reserve(&mut self, _: Link) -> Result<Option<Nanos>, LinkError> {
            Ok(Some(self.freed))
        }
        fn push(&mut self, _: Link, pkt: Packet) -> usize {
            self.sent.push(pkt);
            self.sent.len()
        }
        fn pop(&mut self, _: Link) -> Result<Option<Packet>, LinkError> {
            Ok(self.inbox.take())
        }
        fn ack(&mut self, _: Link, at: Nanos) {
            self.acks.push(at);
        }
    }

    #[test]
    fn clock_rules_for_arrival_ack_window_and_departure() {
        let (d0, d1) = (DeviceId(0), DeviceId(1));
        let mut s = Schedule::empty(Topology::new(SchemeKind::OneFOneB, 2), 1, vec![0]);
        // d0's send gives d1's receive a link; only d1 runs.
        *s.program_mut(d0) =
            DeviceProgram::from_instrs(d0, vec![Instr::send_act(0u32, 0u32, d1)]);
        *s.program_mut(d1) = DeviceProgram::from_instrs(
            d1,
            vec![
                Instr::recv_act(0u32, 0u32, d0),
                Instr::send_act(0u32, 0u32, d0),
            ],
        );
        let (cost, rules, links) = (
            UnitCost::paper_grid(),
            MemoryRules::new(&s),
            LinkTable::new(&s),
        );
        let plan = FaultPlan::none().with(FaultKind::LinkDelay {
            src: d1,
            dst: d0,
            nth: 0,
            extra_ns: 7_000,
        });
        let profile = plan.perturbation_profile();
        let shared = Shared {
            schedule: &s,
            cost: &cost,
            profile: &profile,
            rules: &rules,
            links: &links,
            serving: None,
        };
        let cfg = EmulatorConfig::default();
        let mut m = Machine::new(shared, d1, &cfg, plan.for_device(d1), 500);
        let msg = Msg {
            class: MsgClass::Act,
            micro: MicroId(0),
            part: PartId(0),
        };
        let mut links = Script {
            inbox: Some(Packet {
                msg,
                bytes: 0,
                sent_at: 1_000,
            }),
            freed: 4_000,
            ..Default::default()
        };
        assert_eq!(m.step(&mut links), Ok(Stepped::Finished));
        // The receive completes at max(now, sent_at + wire) and acks it.
        assert_eq!(links.acks, vec![1_000]);
        // The send waits for the freed slot, then departs `extra_ns`
        // later while the sender's clock stays put.
        assert_eq!(links.sent[0].sent_at, 4_000 + 7_000);
        assert_eq!(m.finish().clock, 4_000);
    }
}
