//! The emulator's links.
//!
//! Each directed `(sender, receiver, class, part)` link of the run's
//! [`LinkTable`] is a `mario_ir::Fifo` of timestamped packets — the ack
//! window the makespan sweep, the deadlock check and the what-if re-timer
//! use too. An empty or full link parks the machine, whatever became of
//! its peer, exactly where those engines block. A packet wakes its
//! receiver and an ack its sender in the driver's [`Ready`] queue, if it
//! waits on that link. Links only move packets and timestamps; what a
//! timestamp does to a device clock is the [`crate::machine`]'s
//! business, which is why the emulated timeline is deterministic under
//! any firing order.

use crate::machine::Transport;
use mario_ir::{Blocked, Fifo, Link, LinkTable, Msg, Nanos, P2p, Ready};

/// A packet in flight.
#[derive(Debug, Clone, Copy)]
pub struct Packet {
    /// Identity, checked on receive.
    pub msg: Msg,
    /// Payload size (drives transfer time on the receiving side).
    pub bytes: u64,
    /// Sender virtual clock when the packet departed (including any
    /// injected link delay).
    pub sent_at: Nanos,
}

/// The run's links, indexed by link number, and the devices that may
/// run: everything a link operation touches.
pub(crate) struct Links<'a> {
    table: &'a LinkTable,
    chans: Vec<Fifo<Packet>>,
    capacity: usize,
    /// Which devices may run.
    pub ready: Ready,
}

impl<'a> Links<'a> {
    /// The links of `table` with `capacity` packets of window each.
    pub fn new(table: &'a LinkTable, capacity: usize, ready: Ready) -> Self {
        Self {
            table,
            chans: (0..table.len()).map(|_| Fifo::default()).collect(),
            capacity,
            ready,
        }
    }

    /// The message at the head of the link a blocked p2p end `p` of
    /// `at`'s instruction uses, if it has a link: what
    /// [`mario_ir::exec::stuck`] reads.
    pub fn head(&self, at: &Blocked, p: P2p) -> Option<Msg> {
        let link = self
            .table
            .resolve(at.device, p.dir, p.port(at.instr.part))?;
        self.chans[link.id].front().map(|pkt| pkt.msg)
    }
}

impl Transport for Links<'_> {
    #[inline]
    fn reserve(&mut self, link: Link) -> Option<Nanos> {
        self.chans[link.id].reserve(self.capacity)
    }

    #[inline]
    fn push(&mut self, link: Link, pkt: Packet) -> usize {
        let occupancy = self.chans[link.id].push(pkt);
        self.ready.wake(self.table.key(link.id).1.index(), link.id);
        occupancy
    }

    #[inline]
    fn pop(&mut self, link: Link) -> Option<Packet> {
        self.chans[link.id].pop()
    }

    #[inline]
    fn ack(&mut self, link: Link, at: Nanos) {
        self.chans[link.id].ack(at);
        self.ready.wake(self.table.key(link.id).0.index(), link.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::{
        DeviceId, DeviceProgram, Dir, Instr, MicroId, MsgClass, PartId, Schedule, SchemeKind,
        Topology,
    };

    fn pkt(m: u32, sent_at: Nanos) -> Packet {
        Packet {
            msg: Msg {
                class: MsgClass::Act,
                micro: MicroId(m),
                part: PartId(0),
            },
            bytes: 0,
            sent_at,
        }
    }

    /// The devices queued since the last call, in order; each parks on
    /// `link` again, so the next operation on it wakes it anew.
    fn woken(ready: &mut Ready, link: usize) -> Vec<usize> {
        let mut woken = Vec::new();
        while let Some(d) = ready.front() {
            woken.push(d);
            ready.block(Some(link));
        }
        woken
    }

    #[test]
    fn the_window_wakes_in_fifo_order() {
        let (d0, d1) = (DeviceId(0), DeviceId(1));
        let mut s = Schedule::empty(Topology::new(SchemeKind::OneFOneB, 2), 1, vec![0]);
        *s.program_mut(d0) = DeviceProgram::from_instrs(d0, vec![Instr::send_act(0u32, 0u32, d1)]);
        let table = LinkTable::new(&s);
        let link = table
            .resolve(d0, Dir::Send, (d1, MsgClass::Act, PartId(0)))
            .expect("d0 sends to d1");
        let mut links = Links::new(&table, 1, Ready::fifo(2));
        assert_eq!(woken(&mut links.ready, link.id), vec![0, 1]);
        // d1's receive of micro 1, blocked: `stuck` reads its link's head.
        let recv = Instr::recv_act(1u32, 0u32, d0);
        let at = Blocked {
            device: d1,
            pc: 0,
            iteration: 0,
            instr: recv,
        };
        let p = recv.kind.p2p().expect("a receive is p2p");
        assert_eq!(links.head(&at, p), None);
        // One packet fills the window; the next send waits for its ack.
        // A push wakes the receiver and an ack the sender.
        assert_eq!(links.reserve(link), Some(0));
        assert_eq!(links.push(link, pkt(0, 10)), 1);
        assert_eq!(woken(&mut links.ready, link.id), vec![1]);
        assert_eq!(links.head(&at, p), Some(pkt(0, 10).msg));
        assert_eq!(links.reserve(link), None);
        assert_eq!(links.pop(link).map(|p| p.sent_at), Some(10));
        assert!(links.pop(link).is_none());
        assert!(woken(&mut links.ready, link.id).is_empty());
        links.ack(link, 500);
        assert_eq!(woken(&mut links.ready, link.id), vec![0]);
        assert_eq!(links.reserve(link), Some(500));
        assert_eq!(links.push(link, pkt(1, 500)), 1);
        assert_eq!(woken(&mut links.ready, link.id), vec![1]);
        // A port with no link has no head.
        let none = Instr::recv_grad(0u32, 0u32, d1);
        let at = Blocked {
            device: d0,
            instr: none,
            ..at
        };
        assert_eq!(links.head(&at, none.kind.p2p().expect("p2p")), None);
    }
}
