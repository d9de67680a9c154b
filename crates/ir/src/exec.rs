//! Symbolic lock-step execution of a schedule, used to prove that an
//! instruction list is *executable*: every receive finds its matching send,
//! channel buffers never overflow into a cyclic wait, and the whole
//! iteration drains without deadlock.
//!
//! Channels follow the one link rule in [`crate::link`]: a send fires
//! once its channel's ack window has room, a receive must match the head
//! message exactly and acknowledges it. Time plays no part here, so every
//! ack is stamped 0. Compute, all-reduce and optimizer steps always fire:
//! an all-reduce is device-local here, as in every timed executor, and
//! `validate` checks that it follows the device's backwards.

use crate::hash::FastMap;
use crate::ids::DeviceId;
use crate::link::{ChanKey, Dir, Fifo, Msg};
use crate::schedule::Schedule;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why symbolic execution failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecError {
    /// No device could make progress. Carries `(device, pc, instr)` for
    /// every unfinished device.
    Deadlock(Vec<(DeviceId, usize, String)>),
    /// A receive found a non-matching message at the channel head.
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
    let devices = schedule.devices() as usize;
    let programs = schedule.programs();
    let mut pc = vec![0usize; devices];
    let mut channels: FastMap<ChanKey, Fifo<Msg>> = FastMap::default();
    let mut fired_total = 0usize;

    loop {
        let mut fired = false;
        let mut all_done = true;
        for (d, pc_d) in pc.iter_mut().enumerate() {
            let Some(instr) = programs[d].get(*pc_d) else {
                continue;
            };
            all_done = false;
            let dev = DeviceId(d as u32);
            let can_fire = match instr.kind.p2p() {
                None => true,
                Some(p) => {
                    let chan = channels.entry(p.chan(dev, instr.part)).or_default();
                    let msg = p.msg(instr);
                    match p.dir {
                        Dir::Send => chan
                            .reserve(channel_capacity)
                            .map(|_| chan.push(msg))
                            .is_some(),
                        Dir::Recv => match chan.front() {
                            Some(&head) if head == msg => {
                                chan.pop();
                                chan.ack(0);
                                true
                            }
                            Some(&found) => {
                                return Err(ExecError::MessageMismatch {
                                    device: dev,
                                    pc: *pc_d,
                                    expected: msg,
                                    found,
                                })
                            }
                            None => false,
                        },
                    }
                }
            };
            if can_fire {
                *pc_d += 1;
                fired = true;
                fired_total += 1;
            }
        }

        if all_done {
            return Ok(fired_total);
        }
        if !fired {
            // Better diagnostics: a receive whose peer has already finished
            // its program (with an empty channel) can never be satisfied —
            // report it as such rather than as a generic deadlock.
            for d in 0..devices {
                let dev = DeviceId(d as u32);
                let Some(i) = programs[d].get(pc[d]) else {
                    continue;
                };
                let Some(p) = i.kind.p2p().filter(|p| p.dir == Dir::Recv) else {
                    continue;
                };
                let peer_done = programs[p.peer.index()].get(pc[p.peer.index()]).is_none();
                let empty = channels
                    .get(&p.chan(dev, i.part))
                    .is_none_or(|c| c.front().is_none());
                if peer_done && empty {
                    return Err(ExecError::UnmatchedRecv {
                        device: dev,
                        pc: pc[d],
                    });
                }
            }
            let states = (0..devices)
                .filter_map(|d| {
                    programs[d]
                        .get(pc[d])
                        .map(|i| (DeviceId(d as u32), pc[d], i.to_string()))
                })
                .collect();
            return Err(ExecError::Deadlock(states));
        }
    }
}

/// Smallest per-channel FIFO capacity under which `schedule` executes to
/// completion, searched over `1..=8` (`None` when even capacity 8 cannot
/// drain the schedule — it is unexecutable for a structural reason, not a
/// buffering one).
///
/// Symbolic execution is timing-independent, so a capacity proven
/// sufficient here is sufficient for any cost model: making instructions
/// take time only restricts the set of interleavings, and in-order
/// devices with FIFO links can never need *more* buffering when some
/// firings happen later.
pub fn min_channel_capacity(schedule: &Schedule) -> Option<usize> {
    (1..=8).find(|&cap| check_executable(schedule, cap).is_ok())
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
