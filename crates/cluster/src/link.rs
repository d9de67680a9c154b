//! The emulator's links.
//!
//! Each directed `(sender, receiver, class, part)` link of the run's
//! [`LinkTable`] is a `mario_ir::Fifo` of timestamped packets — the ack
//! window the makespan sweep, the deadlock check and the what-if re-timer
//! use too — plus whether each end has settled. An empty or full link
//! parks the machine; once the peer has settled it reads as disconnected
//! instead, FIFO-ordered after all genuine traffic. A packet wakes its
//! receiver and an ack its sender in the driver's [`Ready`] queue, if it
//! waits on that link. Links only move packets and timestamps; what a
//! timestamp does to a device clock is the [`crate::machine`]'s
//! business, which is why the emulated timeline is deterministic under
//! any firing order.

use crate::error::EmuError;
use crate::machine::{Ckpt, DeviceReport, Settled, Transport};
use mario_ir::{DeviceId, Dir, Fifo, Link, LinkTable, Msg, Nanos, Ready};

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

/// Why a link operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// The peer settled (failed or finished) and will never answer.
    Disconnected,
    /// Received packet identity does not match the expectation.
    Mismatch(Msg),
    /// No link was built for the port: it is not in its device's
    /// [`LinkTable`] ports.
    NoRoute,
}

/// One bounded-FIFO link: the shared [`Fifo`] plus whether each end has
/// settled.
#[derive(Debug, Default)]
struct Channel {
    fifo: Fifo<Packet>,
    sender_settled: bool,
    receiver_settled: bool,
}

/// The run's links, indexed by link number, the devices that may run,
/// and each device's outcome once it settled: everything a link
/// operation, a settlement and quiescence touch.
pub(crate) struct Links<'a> {
    table: &'a LinkTable,
    chans: Vec<Channel>,
    capacity: usize,
    /// Which devices may run.
    pub ready: Ready,
    /// Each device's outcome and checkpoint progress, once it settled.
    pub results: Vec<Option<Settled>>,
}

impl<'a> Links<'a> {
    /// The links of `table` with `capacity` packets of window each, for
    /// `devices` devices, none settled.
    pub fn new(table: &'a LinkTable, devices: usize, capacity: usize, ready: Ready) -> Self {
        Self {
            table,
            chans: (0..table.len()).map(|_| Channel::default()).collect(),
            capacity,
            ready,
            results: (0..devices).map(|_| None).collect(),
        }
    }

    /// Records `d`'s outcome and checkpoint progress and marks every link
    /// end it owns as settled: peers observe end-of-stream only after
    /// consuming all genuine traffic (FIFO order). Wakes the peers waiting
    /// on those links.
    pub fn settle(&mut self, d: usize, result: Result<DeviceReport, EmuError>, ckpt: Ckpt) {
        self.results[d] = Some((result, ckpt));
        let device = DeviceId(d as u32);
        for &((peer, ..), id) in self.table.ports(device, Dir::Send) {
            self.chans[id].sender_settled = true;
            self.ready.wake(peer.index(), id);
        }
        for &((peer, ..), id) in self.table.ports(device, Dir::Recv) {
            self.chans[id].receiver_settled = true;
            self.ready.wake(peer.index(), id);
        }
    }
}

impl Transport for Links<'_> {
    #[inline]
    fn reserve(&mut self, link: Link) -> Result<Option<Nanos>, LinkError> {
        let chan = &mut self.chans[link.id];
        match chan.fifo.reserve(self.capacity) {
            None if chan.receiver_settled => Err(LinkError::Disconnected),
            freed => Ok(freed),
        }
    }

    #[inline]
    fn push(&mut self, link: Link, pkt: Packet) -> usize {
        let occupancy = self.chans[link.id].fifo.push(pkt);
        self.ready.wake(self.table.key(link.id).1.index(), link.id);
        occupancy
    }

    #[inline]
    fn pop(&mut self, link: Link) -> Result<Option<Packet>, LinkError> {
        let chan = &mut self.chans[link.id];
        match chan.fifo.pop() {
            None if chan.sender_settled => Err(LinkError::Disconnected),
            pkt => Ok(pkt),
        }
    }

    #[inline]
    fn ack(&mut self, link: Link, at: Nanos) {
        self.chans[link.id].fifo.ack(at);
        self.ready.wake(self.table.key(link.id).0.index(), link.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::{
        DeviceProgram, Instr, MicroId, MsgClass, PartId, Schedule, SchemeKind, Topology,
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
    fn the_window_wakes_and_settles_in_fifo_order() {
        let (d0, d1) = (DeviceId(0), DeviceId(1));
        let mut s = Schedule::empty(Topology::new(SchemeKind::OneFOneB, 2), 1, vec![0]);
        *s.program_mut(d0) = DeviceProgram::from_instrs(d0, vec![Instr::send_act(0u32, 0u32, d1)]);
        let table = LinkTable::new(&s);
        let link = table
            .resolve(d0, Dir::Send, (d1, MsgClass::Act, PartId(0)))
            .expect("d0 sends to d1");
        let mut links = Links::new(&table, 2, 1, Ready::fifo(2));
        assert_eq!(woken(&mut links.ready, link.id), vec![0, 1]);
        // One packet fills the window; the next send waits for its ack.
        // A push wakes the receiver and an ack the sender.
        assert_eq!(links.reserve(link), Ok(Some(0)));
        assert_eq!(links.push(link, pkt(0, 10)), 1);
        assert_eq!(woken(&mut links.ready, link.id), vec![1]);
        assert_eq!(links.reserve(link), Ok(None));
        assert_eq!(links.pop(link).map(|p| p.map(|p| p.sent_at)), Ok(Some(10)));
        assert_eq!(links.pop(link).map(|p| p.is_some()), Ok(false));
        assert!(woken(&mut links.ready, link.id).is_empty());
        links.ack(link, 500);
        assert_eq!(woken(&mut links.ready, link.id), vec![0]);
        assert_eq!(links.reserve(link), Ok(Some(500)));
        assert_eq!(links.push(link, pkt(1, 500)), 1);
        assert_eq!(woken(&mut links.ready, link.id), vec![1]);
        // A settled sender reads as disconnected only after its genuine
        // traffic, and its settlement wakes the receiver.
        let failed = |device| Err(EmuError::PeerFailed { device, pc: 0 });
        links.settle(0, failed(d0), Ckpt::default());
        assert_eq!(woken(&mut links.ready, link.id), vec![1]);
        assert_eq!(links.pop(link).map(|p| p.map(|p| p.sent_at)), Ok(Some(500)));
        assert_eq!(
            links.pop(link).map(|p| p.is_some()),
            Err(LinkError::Disconnected)
        );
        // A full window on a settled receiver reads as disconnected, and
        // the receiver's settlement wakes the sender.
        links.settle(1, failed(d1), Ckpt::default());
        assert_eq!(woken(&mut links.ready, link.id), vec![0]);
        assert_eq!(links.reserve(link), Err(LinkError::Disconnected));
        assert!(links.results.iter().all(Option::is_some));
    }
}
