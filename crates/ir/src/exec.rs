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
//! that meets the wrong message blocks there for good. The devices form
//! a Kahn process network, so the state the queue drains to, and every
//! answer read from it, is the same in any firing order (see
//! [`crate::ready`]).

use crate::ids::DeviceId;
use crate::link::{Dir, Fifo, LinkTable, Msg};
use crate::ready::Ready;
use crate::schedule::Schedule;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why symbolic execution failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecError {
    /// No device could make progress. Carries `(device, pc, instr)` for
    /// every unfinished device.
    Deadlock(Vec<(DeviceId, usize, String)>),
    /// A receive found a non-matching message at the channel head; the
    /// lowest device where one did.
    MessageMismatch {
        /// The receiving device.
        device: DeviceId,
        /// Position of the receive in its program.
        pc: usize,
        /// What the receive expected.
        expected: Msg,
        /// What was at the head of the channel.
        found: Msg,
    },
    /// A receive names a peer that never sends on that channel.
    UnmatchedRecv {
        /// The receiving device.
        device: DeviceId,
        /// Position of the receive in its program.
        pc: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Deadlock(states) => {
                write!(f, "deadlock; blocked devices:")?;
                for (d, pc, i) in states {
                    write!(f, " [{d} at #{pc}: {i}]")?;
                }
                Ok(())
            }
            ExecError::MessageMismatch {
                device,
                pc,
                expected,
                found,
            } => write!(
                f,
                "message mismatch on {device} at #{pc}: expected {expected:?}, found {found:?}"
            ),
            ExecError::UnmatchedRecv { device, pc } => {
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
            Err(ExecError::Deadlock(_)) if capacity < 8 && net.wake_full_sends() => capacity += 1,
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
    /// `capacity`, until none can move; then reads the answer off the
    /// drained state. A stuck receive with a message waiting found the
    /// wrong one, so the lowest such device is the mismatch reported;
    /// else the lowest receive whose sender has finished with the channel
    /// empty (or that has no link) is unmatched; else the unfinished
    /// devices deadlocked.
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
        let (mut unmatched, mut states) = (None, Vec::new());
        for (d, prog) in programs.iter().enumerate() {
            let (device, pc) = (DeviceId(d as u32), self.pc[d]);
            let Some(i) = prog.get(pc) else { continue };
            if let Some(p) = i.kind.p2p().filter(|p| p.dir == Dir::Recv) {
                let link = self.links.resolve(device, p.dir, p.port(i.part));
                if let Some(&found) = link.and_then(|l| self.chans[l.id].front()) {
                    let expected = p.msg(i);
                    return Err(ExecError::MessageMismatch {
                        device,
                        pc,
                        expected,
                        found,
                    });
                }
                let peer = p.peer.index();
                if link.is_none() || programs.get(peer).is_none_or(|q| self.pc[peer] >= q.len()) {
                    unmatched.get_or_insert(ExecError::UnmatchedRecv { device, pc });
                }
            }
            states.push((device, pc, i.to_string()));
        }
        match unmatched {
            Some(e) => Err(e),
            None if states.is_empty() => Ok(self.pc.iter().sum()),
            None => Err(ExecError::Deadlock(states)),
        }
    }

    /// Wakes every device blocked on a send — on a full window, since
    /// every send has a link; returns whether there was one.
    fn wake_full_sends(&mut self) -> bool {
        let mut any = false;
        for (d, prog) in self.schedule.programs().iter().enumerate() {
            let Some(i) = prog.get(self.pc[d]).filter(|i| i.kind.is_send()) else {
                continue;
            };
            let p = i.kind.p2p().expect("a send is p2p");
            let dev = DeviceId(d as u32);
            let link = self.links.resolve(dev, p.dir, p.port(i.part));
            self.ready.wake(d, link.expect("every send has a link").id);
            any = true;
        }
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;
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
        let err = check_executable(&s, 1).unwrap_err();
        match err {
            ExecError::UnmatchedRecv { device, pc } => {
                assert_eq!(device, DeviceId(1));
                assert_eq!(pc, 0);
            }
            other => panic!("expected unmatched recv, got {other}"),
        }
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
            Err(ExecError::UnmatchedRecv {
                device: DeviceId(0),
                pc: 0
            })
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
        assert!(matches!(err, ExecError::Deadlock(_)), "{err}");
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
        assert!(matches!(err, ExecError::MessageMismatch { .. }));
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
        let s = two_device_schedule(
            vec![Instr::all_reduce()],
            vec![Instr::forward(0u32, 0u32)],
        );
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
