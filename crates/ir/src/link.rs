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
//! symbolic deadlock check ([`crate::exec`]), the DP simulator, the
//! emulator's event backend and the what-if re-timer. [`InstrKind::p2p`]
//! classifies an instruction into the channel end it uses; a [`Fifo`]
//! is one channel's state — the in-flight queue and the sender's ack
//! window. A send may proceed once [`Fifo::reserve`] frees a slot, and
//! completes no earlier than the dequeue time it returns; a receive pops
//! the head and acknowledges it at its own dequeue time. What a
//! timestamp does to a device clock stays with each engine.

use crate::cost::Nanos;
use crate::ids::{DeviceId, MicroId, PartId};
use crate::instr::{Instr, InstrKind};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// One bounded FIFO channel, whatever its packets carry: the in-flight
/// queue, the receiver's dequeue timestamps not yet consumed by the
/// sender (the acks), and the sender's un-acked window.
///
/// `outstanding` grows on a send and shrinks only when a send on a full
/// window consumes the oldest ack, so it never exceeds the capacity the
/// sender reserves with, and the `k`-th blocked send consumes exactly
/// the `k`-th ack.
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    queue: VecDeque<T>,
    acks: VecDeque<Nanos>,
    outstanding: usize,
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
}
