//! Symbolic execution of a schedule, used to prove that an instruction
//! list is *executable*: every receive finds its matching send, channel
//! buffers never overflow into a cyclic wait, and the whole iteration
//! drains without deadlock.
//!
//! Channels follow the one link rule in [`crate::link`]: a send fires
//! once its channel's ack window has room, a receive must match the head
//! message exactly and acknowledges it. Time plays no part here, so every
//! ack is stamped 0. Compute, all-reduce and optimizer steps always fire:
//! an all-reduce is device-local here, as in every timed executor, and
//! `validate` checks that it follows the device's backwards.
//!
//! Each device runs from a [`Ready`] queue until it blocks; a receive
//! that meets the wrong message blocks there for good. A run that stops
//! short is read by [`stuck`], the one rule this check and the makespan
//! sweep share, into values: the [`Blocked`] devices or the lowest
//! [`Mismatch`]. Text is made only by `Display`.

use crate::ids::DeviceId;
use crate::instr::Instr;
use crate::link::{Dir, Fifo, LinkTable, Msg, P2p};
use crate::ready::Ready;
use crate::schedule::Schedule;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Where one unfinished device stands once no device can move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Blocked {
    /// The device.
    pub device: DeviceId,
    /// Its position in its program.
    pub pc: usize,
    /// The iteration it is in.
    pub iteration: u32,
    /// The instruction at `pc`.
    pub instr: Instr,
}

/// Every unfinished device, lowest first.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Deadlock(pub Vec<Blocked>);

impl fmt::Display for Deadlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, b) in self.0.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            let (device, pc, iter, instr) = (b.device, b.pc, b.iteration, b.instr);
            write!(f, "{sep}{device}#{pc} iter {iter}: {instr}")?;
        }
        Ok(())
    }
}

/// A blocked receive and the message at its channel's head, which is not
/// the one it expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mismatch {
    /// The receive.
    pub recv: Blocked,
    /// The message at the head of its channel.
    pub found: Msg,
}

impl Mismatch {
    /// The message the receive expects.
    pub fn expected(&self) -> Msg {
        let i = &self.recv.instr;
        i.kind.p2p().expect("a mismatch is at a receive").msg(i)
    }
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (device, expected, found) = (self.recv.device, self.expected(), self.found);
        write!(f, "{device} expected {expected:?}, found {found:?}")
    }
}

/// Reads a drained run, whichever engine ran it: device `d` has run
/// `cursor[d]` instructions of `iterations` passes over its program, and
/// `head` gives the message waiting at a blocked receive's channel, if it
/// has a link. A stuck receive with a message waiting found the wrong
/// one, so the lowest such device is the mismatch, the error; else every
/// unfinished device is deadlocked, and `None` means all finished. The
/// devices form a Kahn process network, so the drained state, and the
/// answer, is the same in any firing order (see [`crate::ready`]).
pub fn stuck(
    schedule: &Schedule,
    iterations: u32,
    cursor: &[usize],
    mut head: impl FnMut(&Blocked, P2p) -> Option<Msg>,
) -> Result<Option<Deadlock>, Mismatch> {
    let mut blocked = Vec::new();
    for (d, prog) in schedule.programs().iter().enumerate() {
        let (at, len) = (cursor[d], prog.len());
        if at >= len * iterations as usize {
            continue;
        }
        let pc = at % len;
        let b = Blocked {
            device: DeviceId(d as u32),
            pc,
            iteration: (at / len) as u32,
            instr: prog.instrs()[pc],
        };
        let recv = b.instr.kind.p2p().filter(|p| p.dir == Dir::Recv);
        if let Some(found) = recv.and_then(|p| head(&b, p)) {
            return Err(Mismatch { recv: b, found });
        }
        blocked.push(b);
    }
    Ok((!blocked.is_empty()).then_some(Deadlock(blocked)))
}

/// Why symbolic execution failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecError {
    /// No device could make progress.
    Deadlock(Deadlock),
    /// The lowest receive that found a non-matching message.
    MessageMismatch(Mismatch),
    /// The lowest blocked receive no send can satisfy: it has no link,
    /// or its peer finished.
    UnmatchedRecv(Blocked),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Deadlock(Deadlock(blocked)) => {
                write!(f, "deadlock; blocked devices:")?;
                for b in blocked {
                    write!(f, " [{} at #{}: {}]", b.device, b.pc, b.instr)?;
                }
                Ok(())
            }
            ExecError::MessageMismatch(m) => {
                let (device, pc, found) = (m.recv.device, m.recv.pc, m.found);
                let expected = m.expected();
                write!(
                    f,
                    "message mismatch on {device} at #{pc}: expected {expected:?}, found {found:?}"
                )
            }
            ExecError::UnmatchedRecv(Blocked { device, pc, .. }) => {
                write!(f, "receive on {device} at #{pc} can never be satisfied")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Symbolically executes `schedule` with per-channel FIFO buffers of
/// `channel_capacity` messages. Returns the total number of "firings"
/// (executed instructions) on success.
pub fn check_executable(schedule: &Schedule, channel_capacity: usize) -> Result<usize, ExecError> {
    assert!(channel_capacity >= 1, "channels need capacity >= 1");
    Net::new(schedule, Ready::fifo(schedule.devices() as usize)).run(channel_capacity)
}

/// [`check_executable`] in a seeded random firing order, for the tests
/// that hold it to the same answers.
#[cfg(feature = "test-order")]
#[doc(hidden)]
pub fn check_executable_shuffled(
    schedule: &Schedule,
    capacity: usize,
    seed: u64,
) -> Result<usize, ExecError> {
    Net::new(schedule, Ready::shuffled(schedule.devices() as usize, seed)).run(capacity)
}

/// Smallest per-channel FIFO capacity, up to 8, under which `schedule`
/// executes to completion; `None` when even capacity 8 cannot drain it,
/// or when it fails for a reason more buffering cannot cure (a mismatch,
/// an unmatched receive, or a deadlock with no device waiting on a full
/// window).
///
/// One run, after Parks ("Bounded Scheduling of Process Networks",
/// 1995): execute at capacity 1, and whenever the run stalls with some
/// device blocked on a full window, raise the capacity and resume.
/// Whatever fired under a capacity may fire under a larger one, so the
/// resumed run ends as a fresh run at the larger capacity would.
///
/// Symbolic execution is timing-independent, so a capacity proven
/// sufficient here is sufficient for any cost model: making instructions
/// take time only restricts the set of interleavings, and in-order
/// devices with FIFO links can never need *more* buffering when some
/// firings happen later.
pub fn min_channel_capacity(schedule: &Schedule) -> Option<usize> {
    let mut net = Net::new(schedule, Ready::fifo(schedule.devices() as usize));
    let mut capacity = 1;
    loop {
        match net.run(capacity) {
            Ok(_) => return Some(capacity),
            Err(ExecError::Deadlock(d)) if capacity < 8 && net.wake_full_sends(&d) => capacity += 1,
            Err(_) => return None,
        }
    }
}

/// The untimed network: each device's pc, one channel per link and the
/// devices that may move.
struct Net<'s> {
    schedule: &'s Schedule,
    links: LinkTable,
    chans: Vec<Fifo<Msg>>,
    pc: Vec<usize>,
    ready: Ready,
}

impl<'s> Net<'s> {
    fn new(schedule: &'s Schedule, ready: Ready) -> Self {
        let links = LinkTable::new(schedule);
        Self {
            schedule,
            chans: vec![Fifo::default(); links.len()],
            links,
            pc: vec![0; schedule.devices() as usize],
            ready,
        }
    }

    /// Runs devices from the ready queue, each until it blocks, at
    /// `capacity`, until none can move; then reads the drained state with
    /// [`stuck`], reporting a deadlock by its lowest unmatched receive if
    /// it has one.
    fn run(&mut self, capacity: usize) -> Result<usize, ExecError> {
        let programs = self.schedule.programs();
        while let Some(d) = self.ready.front() {
            let dev = DeviceId(d as u32);
            loop {
                let Some(instr) = programs[d].get(self.pc[d]) else {
                    self.ready.block(None);
                    break;
                };
                if let Some(p) = instr.kind.p2p() {
                    let msg = p.msg(instr);
                    let Some(link) = self.links.resolve(dev, p.dir, p.port(instr.part)) else {
                        self.ready.block(None);
                        break;
                    };
                    let chan = &mut self.chans[link.id];
                    let moved = match p.dir {
                        Dir::Send => chan.reserve(capacity).map(|_| chan.push(msg)).is_some(),
                        Dir::Recv if chan.front() == Some(&msg) => {
                            chan.pop();
                            chan.ack(0);
                            true
                        }
                        Dir::Recv => false,
                    };
                    if !moved {
                        self.ready.block(Some(link.id));
                        break;
                    }
                    self.ready.wake(p.peer.index(), link.id);
                }
                self.pc[d] += 1;
                if self.ready.preempt() {
                    break;
                }
            }
        }
        let (links, chans) = (&self.links, &self.chans);
        let link = |b: &Blocked, p: P2p| links.resolve(b.device, p.dir, p.port(b.instr.part));
        let head = |b: &Blocked, p| chans[link(b, p)?.id].front().copied();
        let drained = stuck(self.schedule, 1, &self.pc, head);
        let Some(deadlock) = drained.map_err(ExecError::MessageMismatch)? else {
            return Ok(self.pc.iter().sum());
        };
        let blocked = |peer| deadlock.0.binary_search_by_key(&peer, |b| b.device).is_ok();
        let unmatched = deadlock.0.iter().copied().find(|b| {
            let recv = b.instr.kind.p2p().filter(|p| p.dir == Dir::Recv);
            recv.is_some_and(|p| link(b, p).is_none() || !blocked(p.peer))
        });
        Err(unmatched.map_or(ExecError::Deadlock(deadlock), ExecError::UnmatchedRecv))
    }

    /// Wakes every device of `deadlock` blocked on a send — on a full
    /// window, since every send has a link; returns whether there was one.
    fn wake_full_sends(&mut self, deadlock: &Deadlock) -> bool {
        let mut any = false;
        for b in deadlock.0.iter().filter(|b| b.instr.kind.is_send()) {
            let p = b.instr.kind.p2p().expect("a send is p2p");
            let link = self.links.resolve(b.device, p.dir, p.port(b.instr.part));
            self.ready
                .wake(b.device.index(), link.expect("every send has a link").id);
            any = true;
        }
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{SchemeKind, Topology};

    fn two_device_schedule(d0: Vec<Instr>, d1: Vec<Instr>) -> Schedule {
        let topo = Topology::new(SchemeKind::OneFOneB, 2);
        let mut s = Schedule::empty(topo, 1, vec![0]);
        for i in d0 {
            s.program_mut(DeviceId(0)).push(i);
        }
        for i in d1 {
            s.program_mut(DeviceId(1)).push(i);
        }
        s
    }

    #[test]
    fn matched_send_recv_executes() {
        let s = two_device_schedule(
            vec![
                Instr::forward(0u32, 0u32),
                Instr::send_act(0u32, 0u32, DeviceId(1)),
            ],
            vec![
                Instr::recv_act(0u32, 0u32, DeviceId(0)),
                Instr::forward(0u32, 0u32),
            ],
        );
        assert_eq!(check_executable(&s, 1).unwrap(), 4);
    }

    #[test]
    fn recv_without_send_is_an_unmatched_recv() {
        // The peer finishes its whole program without sending: the receive
        // can never complete, and the diagnosis says so precisely.
        let s = two_device_schedule(
            vec![Instr::forward(0u32, 0u32)],
            vec![Instr::recv_act(0u32, 0u32, DeviceId(0))],
        );
        assert_eq!(
            check_executable(&s, 1),
            Err(ExecError::UnmatchedRecv(Blocked {
                device: DeviceId(1),
                pc: 0,
                iteration: 0,
                instr: Instr::recv_act(0u32, 0u32, DeviceId(0)),
            }))
        );
    }

    #[test]
    fn recv_with_no_link_is_unmatched_while_its_peer_waits() {
        // d1 never sends a gradient, so d0's receive has no link; d1 is
        // still alive, blocked on the activation d0 never gets to send.
        let s = two_device_schedule(
            vec![
                Instr::recv_grad(0u32, 0u32, DeviceId(1)),
                Instr::send_act(0u32, 0u32, DeviceId(1)),
            ],
            vec![Instr::recv_act(0u32, 0u32, DeviceId(0))],
        );
        assert_eq!(
            check_executable(&s, 1),
            Err(ExecError::UnmatchedRecv(Blocked {
                device: DeviceId(0),
                pc: 0,
                iteration: 0,
                instr: Instr::recv_grad(0u32, 0u32, DeviceId(1)),
            }))
        );
    }

    #[test]
    fn mutual_recv_wait_is_still_a_deadlock() {
        // Both peers are alive but each waits on the other: a true cycle.
        let s = two_device_schedule(
            vec![
                Instr::recv_grad(0u32, 0u32, DeviceId(1)),
                Instr::send_act(0u32, 0u32, DeviceId(1)),
            ],
            vec![
                Instr::recv_act(0u32, 0u32, DeviceId(0)),
                Instr::send_grad(0u32, 0u32, DeviceId(0)),
            ],
        );
        let err = check_executable(&s, 1).unwrap_err();
        let at = |device: u32, instr| Blocked {
            device: DeviceId(device),
            pc: 0,
            iteration: 0,
            instr,
        };
        let (d0, d1) = (
            s.program(DeviceId(0)).instrs(),
            s.program(DeviceId(1)).instrs(),
        );
        assert_eq!(
            err,
            ExecError::Deadlock(Deadlock(vec![at(0, d0[0]), at(1, d1[0])]))
        );
        assert_eq!(
            err.to_string(),
            "deadlock; blocked devices: [d0 at #0: RG0^0<d1] [d1 at #0: RA0^0<d0]"
        );
    }

    #[test]
    fn wrong_order_messages_are_reported() {
        // d0 sends micro 1 first but d1 expects micro 0 first.
        let s = two_device_schedule(
            vec![
                Instr::send_act(1u32, 0u32, DeviceId(1)),
                Instr::send_act(0u32, 0u32, DeviceId(1)),
            ],
            vec![
                Instr::recv_act(0u32, 0u32, DeviceId(0)),
                Instr::recv_act(1u32, 0u32, DeviceId(0)),
            ],
        );
        let err = check_executable(&s, 2).unwrap_err();
        let ExecError::MessageMismatch(m) = err else {
            panic!("expected a mismatch, got {err}");
        };
        assert_eq!((m.recv.device, m.recv.pc), (DeviceId(1), 0));
        assert_eq!(
            (m.expected().micro, m.found.micro),
            (0u32.into(), 1u32.into())
        );
        assert_eq!(
            err.to_string(),
            "message mismatch on d1 at #0: expected Msg { class: Act, micro: MicroId(0), \
             part: PartId(0) }, found Msg { class: Act, micro: MicroId(1), part: PartId(0) }"
        );
        assert_eq!(
            m.to_string(),
            "d1 expected Msg { class: Act, micro: MicroId(0), part: PartId(0) }, \
             found Msg { class: Act, micro: MicroId(1), part: PartId(0) }"
        );
    }

    #[test]
    fn capacity_one_blocks_second_send_until_drained() {
        // d0 wants to push two sends before d1 receives anything; with
        // capacity 1 this requires interleaving, which d1's program allows.
        let s = two_device_schedule(
            vec![
                Instr::send_act(0u32, 0u32, DeviceId(1)),
                Instr::send_act(1u32, 0u32, DeviceId(1)),
            ],
            vec![
                Instr::recv_act(0u32, 0u32, DeviceId(0)),
                Instr::recv_act(1u32, 0u32, DeviceId(0)),
            ],
        );
        assert!(check_executable(&s, 1).is_ok());
    }

    #[test]
    fn cyclic_rendezvous_wait_is_a_deadlock() {
        // Both devices send first with full channels -> classic head-on
        // deadlock once capacity is exhausted. Fill the buffers with a
        // first exchange that is never drained.
        let s = two_device_schedule(
            vec![
                Instr::send_act(0u32, 0u32, DeviceId(1)),
                Instr::send_act(1u32, 0u32, DeviceId(1)),
                Instr::recv_grad(0u32, 0u32, DeviceId(1)),
            ],
            vec![
                Instr::send_grad(0u32, 0u32, DeviceId(0)),
                Instr::send_grad(1u32, 0u32, DeviceId(0)),
                Instr::recv_act(0u32, 0u32, DeviceId(0)),
            ],
        );
        // Capacity 1: each device fires its first send, then blocks on the
        // second send because the peer never drains -> deadlock.
        let err = check_executable(&s, 1).unwrap_err();
        assert!(matches!(err, ExecError::Deadlock(_)), "got {err}");
        // Capacity 2 resolves it.
        assert!(check_executable(&s, 2).is_ok());
    }

    #[test]
    fn allreduce_fires_locally() {
        // No barrier: each device runs its AllReduce when it reaches it,
        // as every timed executor does.
        let s = two_device_schedule(
            vec![Instr::forward(0u32, 0u32), Instr::all_reduce()],
            vec![Instr::all_reduce(), Instr::forward(0u32, 0u32)],
        );
        assert_eq!(check_executable(&s, 1).unwrap(), 4);

        // Uneven counts are `validate`'s to reject, not a deadlock.
        let s = two_device_schedule(vec![Instr::all_reduce()], vec![Instr::forward(0u32, 0u32)]);
        assert_eq!(check_executable(&s, 1).unwrap(), 2);
    }

    #[test]
    fn empty_schedule_is_trivially_executable() {
        let s = two_device_schedule(vec![], vec![]);
        assert_eq!(check_executable(&s, 1).unwrap(), 0);
    }

    #[test]
    fn min_capacity_finds_the_smallest_sufficient_buffer() {
        // The head-on rendezvous from `cyclic_rendezvous_wait_is_a_deadlock`
        // needs capacity 2.
        let s = two_device_schedule(
            vec![
                Instr::send_act(0u32, 0u32, DeviceId(1)),
                Instr::send_act(1u32, 0u32, DeviceId(1)),
                Instr::recv_grad(0u32, 0u32, DeviceId(1)),
            ],
            vec![
                Instr::send_grad(0u32, 0u32, DeviceId(0)),
                Instr::send_grad(1u32, 0u32, DeviceId(0)),
                Instr::recv_act(0u32, 0u32, DeviceId(0)),
            ],
        );
        assert_eq!(min_channel_capacity(&s), Some(2));

        // A matched pair drains at capacity 1.
        let s = two_device_schedule(
            vec![Instr::send_act(0u32, 0u32, DeviceId(1))],
            vec![Instr::recv_act(0u32, 0u32, DeviceId(0))],
        );
        assert_eq!(min_channel_capacity(&s), Some(1));

        // A structurally unmatched recv has no sufficient capacity.
        let s = two_device_schedule(
            vec![Instr::forward(0u32, 0u32)],
            vec![Instr::recv_act(0u32, 0u32, DeviceId(0))],
        );
        assert_eq!(min_channel_capacity(&s), None);
    }
}
