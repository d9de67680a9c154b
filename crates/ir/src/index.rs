//! Lookup tables built once, so that validation, communication insertion
//! and the graph-tuner passes find instructions and hops by index instead
//! of by a scan repeated per query.
//!
//! * [`ProgramIndex`] maps `(tag, micro, part)` to the first position and
//!   the number of matching instructions in one device program. One pass
//!   over the program builds it; [`ProgramIndex::rebuild`] re-indexes
//!   another program in the same buffer.
//! * [`RouteHops`] holds each route's forward path and, for every
//!   `(device, part)`, its hop index along that route. A scheme has one or
//!   two routes, so the table is tiny.
//!
//! Ids outside the schedule's range (a micro at or past the micro count, a
//! part the scheme lacks, a device past the last) are simply absent: a
//! lookup answers `None` or zero and never panics, which is what hostile
//! input needs.

use crate::ids::{DeviceId, MicroId, PartId};
use crate::instr::{Instr, InstrTag};
use crate::topology::Topology;

/// The tags that carry a `(micro, part)` identity, in slot order.
const INDEXED_TAGS: usize = 9;

fn slot_of(tag: InstrTag) -> Option<usize> {
    Some(match tag {
        InstrTag::Forward => 0,
        InstrTag::Backward => 1,
        InstrTag::BackwardInput => 2,
        InstrTag::BackwardWeight => 3,
        InstrTag::Recompute => 4,
        InstrTag::SendAct => 5,
        InstrTag::RecvAct => 6,
        InstrTag::SendGrad => 7,
        InstrTag::RecvGrad => 8,
        InstrTag::AllReduce | InstrTag::OptimizerStep => return None,
    })
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    first: u32,
    count: u32,
}

const ABSENT: Entry = Entry { first: 0, count: 0 };

/// First position and count of every `(tag, micro, part)` in one device
/// program, for micros below `micros` and parts below `parts`.
#[derive(Debug, Clone, Default)]
pub struct ProgramIndex {
    micros: u32,
    parts: u32,
    entries: Vec<Entry>,
}

impl ProgramIndex {
    /// Indexes `instrs` for micros in `0..micros` and parts in `0..parts`.
    pub fn new(instrs: &[Instr], micros: u32, parts: u32) -> Self {
        let mut index = Self::default();
        index.rebuild(instrs, micros, parts);
        index
    }

    /// Re-indexes `instrs`, reusing this index's buffer.
    pub fn rebuild(&mut self, instrs: &[Instr], micros: u32, parts: u32) {
        self.micros = micros;
        self.parts = parts;
        self.entries.clear();
        self.entries
            .resize(INDEXED_TAGS * micros as usize * parts as usize, ABSENT);
        for (pos, i) in instrs.iter().enumerate() {
            if let Some(k) = self.key(i.kind.tag(), i.micro, i.part) {
                let e = &mut self.entries[k];
                if e.count == 0 {
                    e.first = pos as u32;
                }
                e.count += 1;
            }
        }
    }

    fn key(&self, tag: InstrTag, micro: MicroId, part: PartId) -> Option<usize> {
        let slot = slot_of(tag)?;
        (micro.0 < self.micros && part.0 < self.parts).then(|| {
            (slot * self.micros as usize + micro.index()) * self.parts as usize + part.index()
        })
    }

    /// Position of the first `tag` instruction of `(micro, part)`.
    #[inline]
    pub fn first(&self, tag: InstrTag, micro: MicroId, part: PartId) -> Option<usize> {
        let e = self.entries[self.key(tag, micro, part)?];
        (e.count > 0).then_some(e.first as usize)
    }

    /// Number of `tag` instructions of `(micro, part)`.
    #[inline]
    pub fn count(&self, tag: InstrTag, micro: MicroId, part: PartId) -> usize {
        self.key(tag, micro, part)
            .map_or(0, |k| self.entries[k].count as usize)
    }

    /// Position of the instruction that unblocks the upstream stage: the
    /// first full backward, or else the first input-gradient half.
    #[inline]
    pub fn effective_backward(&self, micro: MicroId, part: PartId) -> Option<usize> {
        self.first(InstrTag::Backward, micro, part)
            .or_else(|| self.first(InstrTag::BackwardInput, micro, part))
    }
}

const OFF_ROUTE: u32 = u32::MAX;

/// Each route's forward path and every `(device, part)`'s hop along it.
#[derive(Debug, Clone)]
pub struct RouteHops {
    devices: u32,
    parts: u32,
    paths: Vec<Vec<(DeviceId, PartId)>>,
    /// Per route, `device * parts + part` → hop index, or `OFF_ROUTE`.
    hops: Vec<Vec<u32>>,
}

impl RouteHops {
    /// Tabulates every route of `topology`.
    pub fn new(topology: &Topology) -> Self {
        let devices = topology.devices;
        let parts = topology.parts_per_device();
        let paths: Vec<_> = (0..topology.num_routes())
            .map(|r| topology.forward_path(r))
            .collect();
        let hops = paths
            .iter()
            .map(|path| {
                let mut hop = vec![OFF_ROUTE; devices as usize * parts as usize];
                for (h, &(d, p)) in path.iter().enumerate() {
                    let slot = &mut hop[d.index() * parts as usize + p.index()];
                    if *slot == OFF_ROUTE {
                        *slot = h as u32;
                    }
                }
                hop
            })
            .collect();
        Self {
            devices,
            parts,
            paths,
            hops,
        }
    }

    /// The table row for `route`. Like [`Topology::forward_path`], every
    /// route past the last names the last one.
    fn row(&self, route: u32) -> usize {
        (route as usize).min(self.paths.len() - 1)
    }

    /// The `(device, part)` hops of `route`, first stage to last.
    #[inline]
    pub fn path(&self, route: u32) -> &[(DeviceId, PartId)] {
        &self.paths[self.row(route)]
    }

    /// Index of `(device, part)` along `route`, or `None` when the route
    /// never visits it.
    #[inline]
    pub fn hop(&self, route: u32, device: DeviceId, part: PartId) -> Option<usize> {
        if device.0 >= self.devices || part.0 >= self.parts {
            return None;
        }
        let h = self.hops[self.row(route)][device.index() * self.parts as usize + part.index()];
        (h != OFF_ROUTE).then_some(h as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::SchemeKind;

    fn program() -> Vec<Instr> {
        vec![
            Instr::forward(0u32, 0u32),
            Instr::forward(1u32, 1u32),
            Instr::recompute(1u32, 1u32),
            Instr::backward(0u32, 0u32),
            Instr::forward(0u32, 0u32),
            Instr::backward_input(1u32, 1u32),
            Instr::all_reduce(),
        ]
    }

    #[test]
    fn first_positions_and_counts() {
        let ix = ProgramIndex::new(&program(), 2, 2);
        let (m0, m1, p0, p1) = (MicroId(0), MicroId(1), PartId(0), PartId(1));
        assert_eq!(ix.first(InstrTag::Forward, m0, p0), Some(0));
        assert_eq!(ix.count(InstrTag::Forward, m0, p0), 2);
        assert_eq!(ix.first(InstrTag::Forward, m1, p1), Some(1));
        assert_eq!(ix.first(InstrTag::Recompute, m1, p1), Some(2));
        assert_eq!(ix.first(InstrTag::Forward, m1, p0), None);
        assert_eq!(ix.count(InstrTag::Backward, m1, p1), 0);
        assert_eq!(ix.effective_backward(m0, p0), Some(3));
        assert_eq!(ix.effective_backward(m1, p1), Some(5));
        assert_eq!(ix.count(InstrTag::AllReduce, m0, p0), 0);
    }

    #[test]
    fn hostile_ids_are_absent_not_panics() {
        let mut instrs = program();
        instrs.push(Instr::forward(u32::MAX, 0u32));
        instrs.push(Instr::forward(0u32, 7u32));
        let mut ix = ProgramIndex::new(&instrs, 2, 2);
        assert_eq!(
            ix.first(InstrTag::Forward, MicroId(u32::MAX), PartId(0)),
            None
        );
        assert_eq!(ix.count(InstrTag::Forward, MicroId(0), PartId(7)), 0);
        // Rebuilding in place forgets the previous program.
        ix.rebuild(&[Instr::backward(1u32, 0u32)], 2, 1);
        assert_eq!(ix.first(InstrTag::Forward, MicroId(0), PartId(0)), None);
        assert_eq!(ix.first(InstrTag::Backward, MicroId(1), PartId(0)), Some(0));
    }

    #[test]
    fn route_hops_agree_with_forward_paths() {
        for scheme in [
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks: 3 },
            SchemeKind::Wave { chunks: 2 },
            SchemeKind::ZeroBubbleV,
        ] {
            let topo = Topology::new(scheme, 4);
            let hops = RouteHops::new(&topo);
            for route in 0..topo.num_routes() + 1 {
                let path = topo.forward_path(route);
                assert_eq!(hops.path(route), &path[..], "{scheme:?}");
                for d in 0..5u32 {
                    for p in 0..topo.parts_per_device() + 1 {
                        let want = path.iter().position(|&h| h == (DeviceId(d), PartId(p)));
                        assert_eq!(hops.hop(route, DeviceId(d), PartId(p)), want, "{scheme:?}");
                    }
                }
            }
        }
    }
}
