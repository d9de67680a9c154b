//! The thread backend's transport: bounded point-to-point links between
//! device threads.
//!
//! Each directed `(sender, receiver, class, part)` link is a data channel
//! carrying `(msg, bytes, send-timestamp)` packets and an
//! acknowledgement channel carrying dequeue timestamps back. The sender
//! keeps at most `capacity` packets un-acknowledged: one more send first
//! blocks (in real time) for the oldest ack. This is the ack window of
//! `mario_ir::link::Fifo`, written a second time on purpose: the
//! single-threaded engines share that `Fifo`, but here the two ends live
//! on different threads, and real concurrency is the reason this backend
//! exists. Links only move packets and timestamps; what a timestamp does
//! to a device clock is the [`crate::machine`]'s business, which is why
//! the emulated timeline is deterministic under any thread interleaving.

use crate::machine::Transport;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use mario_ir::{DeviceId, Dir, Link, LinkTable, Msg, Nanos};
use std::time::Duration;

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

/// What travels on the data channel: a genuine packet, or the poison
/// marker a settling device enqueues behind all its real traffic.
#[derive(Debug, Clone, Copy)]
enum Wire {
    Pkt(Packet),
    Poison,
}

/// What travels on the ack channel: a dequeue timestamp, or poison.
#[derive(Debug, Clone, Copy)]
enum Ack {
    At(Nanos),
    Poison,
}

/// Why a link operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// No progress within the watchdog timeout: deadlock suspected.
    Timeout,
    /// The peer settled (failed or finished) and will never answer.
    Disconnected,
    /// Received packet identity does not match the expectation.
    Mismatch(Msg),
    /// No link was built for the port: it is not in its device's
    /// [`LinkTable`] ports.
    NoRoute,
}

/// Sending half of a link.
pub struct SendHalf {
    data: Sender<Wire>,
    ack: Receiver<Ack>,
    /// Un-acknowledged packets in flight. It grows on a send and shrinks
    /// only when a capacity-blocked send consumes the oldest ack, exactly
    /// like `Fifo`'s window, so per-link occupancy telemetry is
    /// parity-safe.
    in_flight: usize,
    capacity: usize,
    timeout: Duration,
    poisoned: bool,
}

/// Receiving half of a link.
pub struct RecvHalf {
    data: Receiver<Wire>,
    ack: Sender<Ack>,
    timeout: Duration,
    poisoned: bool,
}

/// Creates a link with the given buffer `capacity` and watchdog `timeout`.
pub fn link(capacity: usize, timeout: Duration) -> (SendHalf, RecvHalf) {
    assert!(capacity >= 1);
    // Channels sized to capacity + 1: the ack window guarantees at most
    // `capacity` packets (and `capacity` buffered acks) are ever in
    // flight, so sends never block in real time — all blocking is on acks
    // — and the extra slot is reserved for the single poison marker each
    // half may enqueue at teardown.
    let (data_tx, data_rx) = bounded(capacity + 1);
    let (ack_tx, ack_rx) = bounded(capacity + 1);
    (
        SendHalf {
            data: data_tx,
            ack: ack_rx,
            in_flight: 0,
            capacity,
            timeout,
            poisoned: false,
        },
        RecvHalf {
            data: data_rx,
            ack: ack_tx,
            timeout,
            poisoned: false,
        },
    )
}

fn wait<T>(rx: &Receiver<T>, timeout: Duration) -> Result<T, LinkError> {
    rx.recv_timeout(timeout).map_err(|e| match e {
        RecvTimeoutError::Timeout => LinkError::Timeout,
        RecvTimeoutError::Disconnected => LinkError::Disconnected,
    })
}

impl SendHalf {
    /// Frees a window slot: with `capacity` packets in flight, blocks for
    /// the oldest ack and returns its dequeue time; otherwise returns 0.
    pub fn reserve(&mut self) -> Result<Nanos, LinkError> {
        if self.in_flight < self.capacity {
            return Ok(0);
        }
        match wait(&self.ack, self.timeout)? {
            Ack::At(t) => {
                self.in_flight -= 1;
                Ok(t)
            }
            Ack::Poison => Err(LinkError::Disconnected),
        }
    }

    /// Enqueues `pkt`; returns the packets in flight right after.
    pub fn push(&mut self, pkt: Packet) -> Result<usize, LinkError> {
        self.data
            .send(Wire::Pkt(pkt))
            .map_err(|_| LinkError::Disconnected)?;
        self.in_flight += 1;
        Ok(self.in_flight)
    }

    /// Enqueues the poison marker behind all genuine traffic (once). A
    /// settling device calls this instead of dropping the half, so a
    /// blocked peer wakes on a FIFO-ordered event — after consuming every
    /// real packet — rather than on the racy teardown of the channel.
    pub fn poison(&mut self) {
        if !self.poisoned {
            // The reserved extra slot means this never blocks; it only
            // errs if the peer already dropped its end (nobody listening).
            let _ = self.data.send(Wire::Poison);
            self.poisoned = true;
        }
    }
}

impl RecvHalf {
    /// Blocks for the next packet.
    pub fn pop(&mut self) -> Result<Packet, LinkError> {
        match wait(&self.data, self.timeout)? {
            Wire::Pkt(p) => Ok(p),
            // The sender settled and will never send again: equivalent to
            // a hang-up, but FIFO-ordered behind its genuine traffic, so
            // the observation is deterministic.
            Wire::Poison => Err(LinkError::Disconnected),
        }
    }

    /// Acknowledges the last packet, dequeued at `at`.
    pub fn ack(&mut self, at: Nanos) {
        // The ack channel outsizes the in-flight ack count and the sender
        // reads one ack per extra send, so this never blocks; a sender that
        // has already finished (dropped its ack end) simply no longer cares.
        let _ = self.ack.send(Ack::At(at));
    }

    /// Enqueues poison on the ack channel (once): a peer blocked waiting
    /// for an ack from this settling device wakes deterministically after
    /// consuming every genuine ack.
    pub fn poison(&mut self) {
        if !self.poisoned {
            let _ = self.ack.send(Ack::Poison);
            self.poisoned = true;
        }
    }
}

/// One device's link halves, in the slot order of its [`LinkTable`]
/// ports.
pub(crate) struct ThreadLinks {
    out: Vec<SendHalf>,
    inp: Vec<RecvHalf>,
}

impl ThreadLinks {
    /// Every device's halves of the links in `table`, each with the given
    /// buffer `capacity` and watchdog `timeout`. The receiving half of a
    /// link to a device past the count is dropped: sends on it read as
    /// disconnected.
    pub fn build(
        table: &LinkTable,
        devices: usize,
        capacity: usize,
        timeout: Duration,
    ) -> Vec<Self> {
        let mut halves: Vec<_> = (0..table.len())
            .map(|_| {
                let (tx, rx) = link(capacity, timeout);
                (Some(tx), Some(rx))
            })
            .collect();
        (0..devices)
            .map(|d| {
                let device = DeviceId(d as u32);
                let ids = |dir| table.ports(device, dir).iter().map(|&(_, id)| id);
                Self {
                    out: (ids(Dir::Send))
                        .map(|id| halves[id].0.take().expect("one sender per link"))
                        .collect(),
                    inp: (ids(Dir::Recv))
                        .map(|id| halves[id].1.take().expect("one receiver per link"))
                        .collect(),
                }
            })
            .collect()
    }

    /// Poisons every half this device owns: outgoing data links and the
    /// ack sides of incoming links. Called once the device has settled
    /// (completed or failed), before the halves are dropped, so peers
    /// blocked on this device observe a FIFO-ordered end-of-stream marker
    /// instead of a real-time-racy channel teardown.
    pub fn poison(&mut self) {
        self.out.iter_mut().for_each(SendHalf::poison);
        self.inp.iter_mut().for_each(RecvHalf::poison);
    }
}

impl Transport for ThreadLinks {
    fn reserve(&mut self, link: Link) -> Result<Option<Nanos>, LinkError> {
        self.out[link.slot].reserve().map(Some)
    }

    fn push(&mut self, link: Link, pkt: Packet) -> Result<usize, LinkError> {
        self.out[link.slot].push(pkt)
    }

    fn pop(&mut self, link: Link) -> Result<Option<Packet>, LinkError> {
        self.inp[link.slot].pop().map(Some)
    }

    fn ack(&mut self, link: Link, at: Nanos) {
        self.inp[link.slot].ack(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::{MicroId, MsgClass, PartId};
    use std::thread;

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

    #[test]
    fn window_frees_a_slot_at_the_oldest_dequeue_time() {
        let (mut tx, mut rx) = link(2, Duration::from_secs(2));
        let s = thread::spawn(move || {
            // Two eager sends fit the window without waiting.
            assert_eq!(tx.reserve().unwrap(), 0);
            assert_eq!(tx.push(pkt(0, 10)).unwrap(), 1);
            assert_eq!(tx.reserve().unwrap(), 0);
            assert_eq!(tx.push(pkt(1, 20)).unwrap(), 2);
            // The third waits for the first dequeue.
            assert_eq!(tx.reserve().unwrap(), 500);
            assert_eq!(tx.push(pkt(2, 500)).unwrap(), 2);
        });
        for (m, at) in [(0, 500), (1, 900), (2, 900)] {
            let p = rx.pop().unwrap();
            assert_eq!(p.msg.micro, MicroId(m));
            rx.ack(at);
        }
        s.join().unwrap();
    }

    #[test]
    fn pop_times_out_when_nothing_is_sent() {
        let (_tx, mut rx) = link(1, Duration::from_millis(50));
        assert_eq!(rx.pop().unwrap_err(), LinkError::Timeout);
    }

    #[test]
    fn poison_and_hang_up_read_as_disconnected() {
        let (mut tx, mut rx) = link(1, Duration::from_secs(2));
        tx.push(pkt(0, 0)).unwrap();
        tx.poison();
        // Genuine traffic first, then the end-of-stream marker.
        assert_eq!(rx.pop().unwrap().msg.micro, MicroId(0));
        assert_eq!(rx.pop().unwrap_err(), LinkError::Disconnected);
        rx.poison();
        assert_eq!(tx.reserve().unwrap_err(), LinkError::Disconnected);
        let (tx, mut rx) = link(1, Duration::from_secs(2));
        drop(tx);
        assert_eq!(rx.pop().unwrap_err(), LinkError::Disconnected);
    }
}
