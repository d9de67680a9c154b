//! The bounded point-to-point link, once.
//!
//! Blocking p2p is the rule the paper's pass 4 must respect ("`SA` and
//! `RA` must be paired to avoid deadlock", §5.1): each directed device
//! pair owns one FIFO channel per message class and partition
//! (activations and gradients of each model chunk travel on separate
//! links, as with distinct NCCL tags / per-chunk process groups), with a
//! small bounded capacity — one in-flight message by default, like a
//! single pre-allocated communication buffer.
//!
//! This module holds that rule for every single-threaded engine: the
//! symbolic deadlock check ([`crate::exec`]), the makespan sweep, the
//! emulator's event backend (which the simulator runs) and the what-if
//! re-timer. [`InstrKind::p2p`]
//! classifies an instruction into the channel end it uses; a [`Fifo`]
//! is one channel's state — the in-flight queue and the sender's ack
//! window. A send may proceed once [`Fifo::reserve`] frees a slot, and
//! completes no earlier than the dequeue time it returns; a receive pops
//! the head and acknowledges it at its own dequeue time. What a
//! timestamp does to a device clock stays with each engine.
//!
//! A [`LinkTable`] numbers every channel a schedule's sends use, once,
//! and gives each device a sorted port table onto the numbers, so an
//! engine keeps its channels in a `Vec` by link number and hashes
//! nothing per operation. A port missing from the table has no link:
//! nobody ever sends on it, and each engine keeps its own answer for a
//! receive there.

use crate::cost::Nanos;
use crate::ids::{DeviceId, MicroId, PartId};
use crate::instr::{Instr, InstrKind};
use crate::schedule::Schedule;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Message class carried on a channel (activation or gradient).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MsgClass {
    /// Stage-boundary activation (SA → RA).
    Act,
    /// Stage-boundary gradient (SG → RG).
    Grad,
}

/// A message in flight on a directed channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Msg {
    /// Activation or gradient.
    pub class: MsgClass,
    /// Micro-batch id.
    pub micro: MicroId,
    /// Partition id (tagged with the producer-side part).
    pub part: PartId,
}

/// A directed channel: `(sender, receiver, class, part)`.
pub type ChanKey = (DeviceId, DeviceId, MsgClass, PartId);

/// Which end of a channel a p2p instruction is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// `SA` / `SG`: pushes onto the channel to the peer.
    Send,
    /// `RA` / `RG`: pops from the channel from the peer.
    Recv,
}

/// The channel end a p2p instruction uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct P2p {
    /// Send or receive.
    pub dir: Dir,
    /// The device at the other end.
    pub peer: DeviceId,
    /// Activation or gradient.
    pub class: MsgClass,
}

impl InstrKind {
    /// The channel end this instruction uses; `None` for compute and
    /// collectives.
    #[inline]
    pub fn p2p(self) -> Option<P2p> {
        let (dir, peer, class) = match self {
            InstrKind::SendAct { peer } => (Dir::Send, peer, MsgClass::Act),
            InstrKind::RecvAct { peer } => (Dir::Recv, peer, MsgClass::Act),
            InstrKind::SendGrad { peer } => (Dir::Send, peer, MsgClass::Grad),
            InstrKind::RecvGrad { peer } => (Dir::Recv, peer, MsgClass::Grad),
            _ => return None,
        };
        Some(P2p { dir, peer, class })
    }
}

impl P2p {
    /// The directed channel this end uses on device `me` for `part`.
    #[inline]
    pub fn chan(self, me: DeviceId, part: PartId) -> ChanKey {
        match self.dir {
            Dir::Send => (me, self.peer, self.class, part),
            Dir::Recv => (self.peer, me, self.class, part),
        }
    }

    /// The message `instr` sends, or expects to receive.
    #[inline]
    pub fn msg(self, instr: &Instr) -> Msg {
        Msg {
            class: self.class,
            micro: instr.micro,
            part: instr.part,
        }
    }
}

/// One end of a link as its device sees it: `(peer, class, part)`.
pub type Port = (DeviceId, MsgClass, PartId);

impl P2p {
    /// The port this end uses for `part`.
    #[inline]
    pub fn port(self, part: PartId) -> Port {
        (self.peer, self.class, part)
    }
}

/// Every directed link `schedule`'s sends use, once each, in program
/// order. A link's sender is the device whose send names it, so each
/// device's links are deduplicated on their own, by their sending port
/// packed whole into one word; a device sends on a handful of links, so a
/// scan beats a hash.
pub fn links(schedule: &Schedule) -> Vec<ChanKey> {
    let mut keys: Vec<ChanKey> = Vec::new();
    let mut mine: Vec<u128> = Vec::new();
    for (d, prog) in schedule.programs().iter().enumerate() {
        mine.clear();
        for (_, i) in prog.iter() {
            let Some(p) = i.kind.p2p().filter(|p| p.dir == Dir::Send) else {
                continue;
            };
            let port = packed(p.port(i.part));
            if !mine.contains(&port) {
                mine.push(port);
                keys.push(p.chan(DeviceId(d as u32), i.part));
            }
        }
    }
    keys
}

/// `port` as one word, every id at full width: the peer, the part and
/// the class, in bits 64–95, 1–32 and 0.
#[inline]
fn packed((peer, class, part): Port) -> u128 {
    (peer.0 as u128) << 64 | (part.0 as u128) << 1 | class as u128
}

/// A port resolved through the [`LinkTable`]: the link's number, its
/// position in [`links`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// The link's number.
    pub id: usize,
}

/// Every directed link of a schedule, numbered by position in [`links`],
/// and each device's sorted port table onto them: the one port lookup
/// every engine resolves through. A port missing from its device's
/// table has no link.
#[derive(Debug)]
pub struct LinkTable {
    keys: Vec<ChanKey>,
    /// Per device, its sending and its receiving ports, sorted, each with
    /// its link number.
    out: Vec<Vec<(Port, usize)>>,
    inp: Vec<Vec<(Port, usize)>>,
}

impl LinkTable {
    /// The links `schedule`'s sends use and every device's ports onto
    /// them.
    pub fn new(schedule: &Schedule) -> Self {
        let keys = links(schedule);
        let devices = schedule.devices() as usize;
        let (mut out, mut inp) = (vec![Vec::new(); devices], vec![Vec::new(); devices]);
        for (id, &(src, dst, class, part)) in keys.iter().enumerate() {
            out[src.index()].push(((dst, class, part), id));
            // A send to a device past the count has no receiving end.
            if let Some(ports) = inp.get_mut(dst.index()) {
                ports.push(((src, class, part), id));
            }
        }
        for ports in out.iter_mut().chain(&mut inp) {
            ports.sort_unstable();
        }
        Self { keys, out, inp }
    }

    /// Number of links.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the schedule sends nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The `(sender, receiver, class, part)` of link `id`.
    #[inline]
    pub fn key(&self, id: usize) -> ChanKey {
        self.keys[id]
    }

    /// `device`'s ports that `dir` uses, with their link numbers, sorted
    /// by port.
    #[inline]
    pub fn ports(&self, device: DeviceId, dir: Dir) -> &[(Port, usize)] {
        let table = if dir == Dir::Send {
            &self.out
        } else {
            &self.inp
        };
        table.get(device.index()).map_or(&[], Vec::as_slice)
    }

    /// The link behind `device`'s `port` in direction `dir`, if one was
    /// built. A device has a handful of ports, so a scan beats a search.
    #[inline]
    pub fn resolve(&self, device: DeviceId, dir: Dir, port: Port) -> Option<Link> {
        let &(_, id) = self.ports(device, dir).iter().find(|&&(p, _)| p == port)?;
        Some(Link { id })
    }
}

/// One bounded FIFO channel, whatever its packets carry: the in-flight
/// queue, the receiver's dequeue timestamps not yet consumed by the
/// sender (the acks), and the sender's un-acked window.
///
/// `outstanding` grows on a send and shrinks only when a send on a full
/// window consumes the oldest ack, so it never exceeds the capacity the
/// sender reserves with, and the `k`-th blocked send consumes exactly
/// the `k`-th ack.
#[derive(Debug)]
pub struct Fifo<T> {
    queue: VecDeque<T>,
    acks: VecDeque<Nanos>,
    outstanding: usize,
}

/// Field by field, so that `clone_from` reuses the destination's queues.
impl<T: Clone> Clone for Fifo<T> {
    fn clone(&self) -> Self {
        Self {
            queue: self.queue.clone(),
            acks: self.acks.clone(),
            outstanding: self.outstanding,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.queue.clone_from(&source.queue);
        self.acks.clone_from(&source.acks);
        self.outstanding = source.outstanding;
    }
}

impl<T> Default for Fifo<T> {
    fn default() -> Self {
        Self {
            queue: VecDeque::new(),
            acks: VecDeque::new(),
            outstanding: 0,
        }
    }
}

impl<T> Fifo<T> {
    /// The channel after `sent` sends, each reserved at `capacity`, and
    /// `received` receives: send `j` pushed `packet(j)` and receive `j`
    /// acknowledged at `ack(j)`. Only what a later call can read is asked
    /// for: the packets `received..sent` still in flight and the acks of
    /// receives `sent - capacity..received`, which no send has consumed.
    ///
    /// # Panics
    ///
    /// Unless `sent - capacity <= received <= sent`, the states a channel
    /// reaches: a receive pops a sent packet, and send `j ≥ capacity`
    /// consumes the ack of receive `j - capacity`.
    pub fn after(
        capacity: usize,
        sent: usize,
        received: usize,
        packet: impl FnMut(usize) -> T,
        ack: impl FnMut(usize) -> Nanos,
    ) -> Self {
        assert!(
            received <= sent && sent - received <= capacity,
            "no channel at capacity {capacity} reaches {sent} sends and {received} receives"
        );
        Self {
            queue: (received..sent).map(packet).collect(),
            acks: (sent.saturating_sub(capacity)..received).map(ack).collect(),
            outstanding: sent.min(capacity),
        }
    }

    /// Frees a slot for one more send: `Some(0)` while the window has
    /// room; on a full window, consumes the oldest ack and returns its
    /// dequeue time; `None` when the window is full and no ack is queued
    /// (the send must wait for the receiver).
    #[inline]
    pub fn reserve(&mut self, capacity: usize) -> Option<Nanos> {
        if self.outstanding < capacity {
            return Some(0);
        }
        let at = self.acks.pop_front()?;
        self.outstanding -= 1;
        Some(at)
    }

    /// Enqueues `item` after a successful [`Fifo::reserve`]; returns the
    /// un-acked window right after the send.
    #[inline]
    pub fn push(&mut self, item: T) -> usize {
        self.queue.push_back(item);
        self.outstanding += 1;
        self.outstanding
    }

    /// The oldest message in flight.
    #[inline]
    pub fn front(&self) -> Option<&T> {
        self.queue.front()
    }

    /// Dequeues the oldest message in flight.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.queue.pop_front()
    }

    /// Acknowledges the message just popped, dequeued at `at`.
    #[inline]
    pub fn ack(&mut self, at: Nanos) {
        self.acks.push_back(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::DeviceProgram;
    use crate::topology::{SchemeKind, Topology};

    #[test]
    fn window_frees_at_the_oldest_ack_and_waits_without_one() {
        let mut f: Fifo<u32> = Fifo::default();
        assert_eq!(f.reserve(1), Some(0));
        assert_eq!(f.push(0), 1);
        // Full and un-acked: the second send must wait.
        assert_eq!(f.reserve(1), None);
        assert_eq!(f.pop(), Some(0));
        f.ack(500);
        // At capacity 1 the second send frees at the first ack's time.
        assert_eq!(f.reserve(1), Some(500));
        assert_eq!(f.push(1), 1);

        // Acks are consumed oldest first, not earliest first.
        let mut f: Fifo<u32> = Fifo::default();
        for m in 0..2 {
            assert_eq!(f.reserve(2), Some(0));
            f.push(m);
        }
        for at in [900, 700] {
            f.pop();
            f.ack(at);
        }
        assert_eq!(f.reserve(2), Some(900));
        assert_eq!(f.push(2), 2);
        assert_eq!(f.reserve(2), Some(700));
        assert_eq!(f.push(3), 2);
        assert_eq!(f.reserve(2), None);
    }

    #[test]
    fn a_channel_built_after_its_traffic_answers_as_one_driven_through_it() {
        // Send j carries j and receive j acks at a time of its own, so a
        // wrong packet or a wrong ack shows in the next answers.
        let at = |j: usize| 1_000 + 7 * j as Nanos;
        for capacity in 1usize..=3 {
            for sent in 0usize..=8 {
                for received in sent.saturating_sub(capacity)..=sent {
                    let mut driven: Fifo<usize> = Fifo::default();
                    for j in 0..sent {
                        // Receive j - capacity must precede send j.
                        if let Some(r) = j.checked_sub(capacity) {
                            assert_eq!(driven.pop(), Some(r));
                            driven.ack(at(r));
                        }
                        assert!(driven.reserve(capacity).is_some());
                        driven.push(j);
                    }
                    for r in sent.saturating_sub(capacity)..received {
                        assert_eq!(driven.pop(), Some(r));
                        driven.ack(at(r));
                    }
                    let mut built = Fifo::after(capacity, sent, received, |j| j, at);
                    let case = format!("capacity {capacity}, {sent} sent, {received} received");
                    // The next reserve and the next pop.
                    let next = |f: &Fifo<usize>| (f.clone().reserve(capacity), f.clone().pop());
                    assert_eq!(next(&built), next(&driven), "{case}");
                    // Then the same traffic on both: receive everything in
                    // flight, send one, until every held ack is consumed.
                    let (mut s, mut r) = (sent, received);
                    for _ in 0..=capacity {
                        for f in [&mut built, &mut driven] {
                            for j in r..s {
                                assert_eq!(f.pop(), Some(j), "{case}");
                                f.ack(at(j));
                            }
                        }
                        r = s;
                        assert_eq!(built.reserve(capacity), driven.reserve(capacity), "{case}");
                        assert_eq!(built.push(s), driven.push(s), "{case}");
                        s += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn p2p_classifies_every_transfer_and_nothing_else() {
        let d = DeviceId(1);
        let peer = DeviceId(2);
        let send = Instr::send_grad(3u32, 1u32, peer);
        let p = send.kind.p2p().unwrap();
        assert_eq!((p.dir, p.peer, p.class), (Dir::Send, peer, MsgClass::Grad));
        assert_eq!(p.chan(d, send.part), (d, peer, MsgClass::Grad, PartId(1)));
        let recv = Instr::recv_act(3u32, 1u32, peer);
        let p = recv.kind.p2p().unwrap();
        assert_eq!(p.chan(d, recv.part), (peer, d, MsgClass::Act, PartId(1)));
        assert_eq!(
            p.msg(&recv),
            Msg {
                class: MsgClass::Act,
                micro: MicroId(3),
                part: PartId(1)
            }
        );
        for i in [Instr::forward(0u32, 0u32), Instr::all_reduce()] {
            assert_eq!(i.kind.p2p(), None);
        }
    }

    #[test]
    fn link_table_numbers_links_and_resolves_only_built_ports() {
        let (d0, d1, far) = (DeviceId(0), DeviceId(1), DeviceId(9));
        let mut s = Schedule::empty(Topology::new(SchemeKind::OneFOneB, 2), 1, vec![0]);
        *s.program_mut(d0) = DeviceProgram::from_instrs(
            d0,
            vec![
                Instr::send_act(0u32, 0u32, far),
                Instr::send_act(0u32, 0u32, d1),
                Instr::recv_grad(0u32, 0u32, d1),
            ],
        );
        *s.program_mut(d1) = DeviceProgram::from_instrs(d1, vec![Instr::send_grad(0u32, 0u32, d0)]);
        let t = LinkTable::new(&s);
        let (act, grad, p0) = (MsgClass::Act, MsgClass::Grad, PartId(0));
        // Numbered in program order; ports sorted within each device.
        assert_eq!(t.len(), 3);
        assert_eq!(t.key(0), (d0, far, act, p0));
        let send = |port| t.resolve(d0, Dir::Send, port);
        assert_eq!(send((d1, act, p0)), Some(Link { id: 1 }));
        assert_eq!(send((far, act, p0)), Some(Link { id: 0 }));
        assert_eq!(
            t.resolve(d0, Dir::Recv, (d1, grad, p0)),
            Some(Link { id: 2 })
        );
        // No link: a port nobody sends on, a device past the count.
        assert_eq!(t.resolve(d1, Dir::Recv, (d0, grad, p0)), None);
        assert_eq!(send((d1, grad, p0)), None);
        assert_eq!(t.resolve(far, Dir::Recv, (d0, act, p0)), None);
        assert!(t.ports(far, Dir::Send).is_empty());
    }

    #[test]
    fn links_keep_sends_apart_by_every_bit_of_their_key() {
        // Sends from one device to one peer that differ only in class, or
        // only in a part id's high bit, travel on links of their own.
        let (d0, d1, high) = (DeviceId(0), DeviceId(1), 1u32 << 31);
        let mut s = Schedule::empty(Topology::new(SchemeKind::OneFOneB, 2), 1, vec![0]);
        *s.program_mut(d0) = DeviceProgram::from_instrs(
            d0,
            vec![
                Instr::send_act(0u32, 0u32, d1),
                Instr::send_grad(0u32, 0u32, d1),
                Instr::send_act(0u32, high, d1),
                Instr::send_act(1u32, 0u32, d1),
                Instr::send_grad(1u32, high, d1),
                Instr::send_grad(2u32, high, d1),
            ],
        );
        let (act, grad, p0, ph) = (MsgClass::Act, MsgClass::Grad, PartId(0), PartId(high));
        let keys = [
            (d0, d1, act, p0),
            (d0, d1, grad, p0),
            (d0, d1, act, ph),
            (d0, d1, grad, ph),
        ];
        assert_eq!(links(&s), keys);
        let t = LinkTable::new(&s);
        assert_eq!(t.len(), 4);
        for (id, &(_, peer, class, part)) in keys.iter().enumerate() {
            assert_eq!(t.resolve(d0, Dir::Send, (peer, class, part)), Some(Link { id }));
            assert_eq!(t.resolve(d1, Dir::Recv, (d0, class, part)), Some(Link { id }));
        }
    }
}
