//! The order in which the single-threaded engines run their devices.
//!
//! In-order devices joined by bounded FIFO channels form a Kahn process
//! network: a bounded channel is a data channel plus an acknowledgement
//! channel, and every device reads its inputs in program order, so every
//! fair firing order gives each device the same history, and a run that
//! cannot finish ends in the same blocked state (Kahn, "The semantics of
//! a simple language for parallel programming", 1974). The timed engines
//! stay determinate too, because packets carry their departure time and
//! acks their dequeue time.
//!
//! So an engine may run a device until it blocks on a link — a send on a
//! full window, a receive on an empty or mismatched channel — and then
//! take the next device from a [`Ready`] queue. Only the other end of
//! that link can change what the device waits for, so every p2p
//! operation wakes its peer if the peer waits on the same link. A woken
//! device may find it still cannot move (a pushed message that is not
//! the one it expects), and simply blocks again. The queue is first in,
//! first out; a shuffled queue, for tests only, wakes devices into random
//! places and preempts running ones.

use std::collections::VecDeque;

/// The devices that may be able to move, each at most once; the front
/// one is the device running.
#[derive(Debug)]
pub struct Ready {
    queue: VecDeque<u32>,
    /// Per device, the link it is blocked on; [`QUEUED`] while it is
    /// queued or running, [`STUCK`] once nothing can wake it.
    waits: Vec<usize>,
    /// A SplitMix64 state when the order is shuffled.
    shuffle: Option<u64>,
}

/// A device in the queue.
const QUEUED: usize = usize::MAX;
/// A device that finished, or waits on a port with no link.
const STUCK: usize = usize::MAX - 1;

impl Ready {
    /// Every one of `devices` devices queued, in order.
    pub fn fifo(devices: usize) -> Self {
        Self {
            queue: (0..devices as u32).collect(),
            waits: vec![QUEUED; devices],
            shuffle: None,
        }
    }

    /// Every one of `devices` devices queued in a random order drawn from
    /// `seed`; wakes land in random places and a running device is
    /// preempted at random. The answers must not change.
    pub fn shuffled(devices: usize, seed: u64) -> Self {
        let mut ready = Self {
            queue: VecDeque::with_capacity(devices),
            waits: vec![QUEUED; devices],
            shuffle: Some(seed),
        };
        for d in 0..devices as u32 {
            let at = ready.below(ready.queue.len() + 1);
            ready.queue.insert(at, d);
        }
        ready
    }

    /// The device to run, if any may move.
    #[inline]
    pub fn front(&self) -> Option<usize> {
        self.queue.front().map(|&d| d as usize)
    }

    /// Drops the running device from the queue: it blocked on link `on`,
    /// or, given `None`, finished or blocked where no link can wake it.
    #[inline]
    pub fn block(&mut self, on: Option<usize>) {
        if let Some(d) = self.queue.pop_front() {
            self.waits[d as usize] = on.unwrap_or(STUCK);
        }
    }

    /// Queues device `d` if it is blocked on `link`; a device past the
    /// count is ignored.
    #[inline]
    pub fn wake(&mut self, d: usize, link: usize) {
        match self.waits.get_mut(d) {
            Some(waits) if *waits == link => *waits = QUEUED,
            _ => return,
        }
        match self.shuffle {
            None => self.queue.push_back(d as u32),
            Some(_) => {
                // Never in front of the running device.
                let at = 1 + self.below(self.queue.len());
                self.queue.insert(at.min(self.queue.len()), d as u32);
            }
        }
    }

    /// Whether the running device must stop here although it could go
    /// on; it then stays queued, somewhere. Never, in first-in-first-out
    /// order.
    #[inline]
    pub fn preempt(&mut self) -> bool {
        if self.shuffle.is_none() || self.below(4) != 0 {
            return false;
        }
        let d = self.queue.pop_front().expect("a running device");
        let at = self.below(self.queue.len() + 1);
        self.queue.insert(at, d);
        true
    }

    /// A uniform draw below `n` from the shuffle stream (0 when the order
    /// is not shuffled).
    fn below(&mut self, n: usize) -> usize {
        let Some(state) = &mut self.shuffle else {
            return 0;
        };
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }
}

/// Field by field, so that `clone_from` reuses the destination's buffers.
impl Clone for Ready {
    fn clone(&self) -> Self {
        Self {
            queue: self.queue.clone(),
            waits: self.waits.clone(),
            shuffle: self.shuffle,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.queue.clone_from(&source.queue);
        self.waits.clone_from(&source.waits);
        self.shuffle = source.shuffle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut ready: Ready) -> Vec<usize> {
        let mut order = Vec::new();
        while let Some(d) = ready.front() {
            if !ready.preempt() {
                order.push(d);
                ready.block(None);
            }
        }
        order
    }

    #[test]
    fn fifo_runs_in_order_and_wakes_only_on_the_awaited_link() {
        let mut ready = Ready::fifo(3);
        assert_eq!(ready.front(), Some(0));
        ready.block(Some(5));
        // Queued already, blocked on another link, past the count.
        ready.wake(2, 5);
        ready.wake(0, 4);
        ready.wake(7, 5);
        assert_eq!(ready.front(), Some(1));
        ready.wake(0, 5);
        ready.wake(0, 5);
        assert!(!ready.preempt());
        assert_eq!(drain(ready), vec![1, 2, 0]);
    }

    #[test]
    fn a_shuffled_queue_is_a_seeded_permutation() {
        let order = |seed| {
            let mut ready = Ready::shuffled(8, seed);
            let first = ready.front().unwrap();
            ready.block(Some(0));
            // A woken device never lands in front of the running one.
            let running = ready.front().unwrap();
            ready.wake(first, 0);
            assert_eq!(ready.front(), Some(running));
            drain(ready)
        };
        let mut sorted = order(3);
        assert_eq!(sorted, order(3));
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        assert!((0..8).any(|seed| order(seed) != order(seed + 1)));
    }
}
