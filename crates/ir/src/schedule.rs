//! A complete pipeline schedule: one instruction list per device plus the
//! virtual-pipeline topology and the per-micro-batch route assignment.

use crate::ids::{DeviceId, MicroId, PartId};
use crate::instr::{Instr, InstrTag};
use crate::list::DeviceProgram;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A full schedule for one training iteration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// The virtual pipeline this schedule runs on.
    pub topology: Topology,
    /// Number of micro-batches `N` per iteration.
    pub micros: u32,
    /// Route taken by each micro-batch (always 0 except for Chimera, where
    /// 0 = down pipeline and 1 = up pipeline). Indexed by micro id.
    pub routes: Vec<u32>,
    programs: Vec<DeviceProgram>,
}

impl Schedule {
    /// Creates a schedule with empty per-device programs.
    pub fn empty(topology: Topology, micros: u32, routes: Vec<u32>) -> Self {
        assert_eq!(
            routes.len(),
            micros as usize,
            "one route per micro-batch required"
        );
        for &r in &routes {
            assert!(r < topology.num_routes(), "route {r} out of range");
        }
        let programs = (0..topology.devices)
            .map(|d| DeviceProgram::new(DeviceId(d)))
            .collect();
        Self {
            topology,
            micros,
            routes,
            programs,
        }
    }

    /// Creates a schedule from prebuilt programs.
    pub fn from_programs(
        topology: Topology,
        micros: u32,
        routes: Vec<u32>,
        programs: Vec<DeviceProgram>,
    ) -> Self {
        assert_eq!(programs.len() as u32, topology.devices);
        let mut s = Self::empty(topology, micros, routes);
        s.programs = programs;
        s
    }

    /// Number of devices.
    #[inline]
    pub fn devices(&self) -> u32 {
        self.topology.devices
    }

    /// The route of `micro`.
    #[inline]
    pub fn route_of(&self, micro: MicroId) -> u32 {
        self.routes[micro.index()]
    }

    /// The program of one device.
    #[inline]
    pub fn program(&self, device: DeviceId) -> &DeviceProgram {
        &self.programs[device.index()]
    }

    /// Mutable access to the program of one device.
    #[inline]
    pub fn program_mut(&mut self, device: DeviceId) -> &mut DeviceProgram {
        &mut self.programs[device.index()]
    }

    /// All programs, in device order.
    #[inline]
    pub fn programs(&self) -> &[DeviceProgram] {
        &self.programs
    }

    /// Mutable access to all programs.
    #[inline]
    pub fn programs_mut(&mut self) -> &mut [DeviceProgram] {
        &mut self.programs
    }

    /// Total instruction count across all devices.
    pub fn total_instrs(&self) -> usize {
        self.programs.iter().map(|p| p.len()).sum()
    }

    /// Counts instructions with the given tag across all devices.
    pub fn count_tag(&self, tag: InstrTag) -> usize {
        self.programs
            .iter()
            .map(|p| p.count(|i| i.kind.tag() == tag))
            .sum()
    }

    /// Counts checkpointed forwards across all devices.
    pub fn count_ckpt_forwards(&self) -> usize {
        self.programs
            .iter()
            .map(|p| p.count(|i| i.is_ckpt_forward()))
            .sum()
    }

    /// True if any forward in the schedule is checkpointed.
    pub fn has_checkpointing(&self) -> bool {
        self.count_ckpt_forwards() > 0
    }

    /// Per-device peak on-the-fly micro-batch count (see
    /// [`DeviceProgram::peak_on_the_fly`]).
    pub fn peak_on_the_fly_per_device(&self, count_ckpt: bool) -> Vec<usize> {
        self.programs
            .iter()
            .map(|p| p.peak_on_the_fly(count_ckpt))
            .collect()
    }

    /// Removes every communication and bookkeeping instruction, leaving only
    /// compute. Useful for shape-level comparisons in tests.
    pub fn compute_only(&self) -> Schedule {
        let mut s = self.clone();
        for p in &mut s.programs {
            let kept: Vec<Instr> = p
                .instrs()
                .iter()
                .copied()
                .filter(|i| i.kind.is_compute())
                .collect();
            *p = DeviceProgram::from_instrs(p.device, kept);
        }
        s
    }

    /// The `(device, part)` pairs that host compute for `micro` along its
    /// route, in forward order.
    pub fn forward_path_of(&self, micro: MicroId) -> Vec<(DeviceId, PartId)> {
        self.topology.forward_path(self.route_of(micro))
    }

    /// Whether the forward of `(micro, part)` on `device` was emitted as a
    /// checkpointed forward.
    pub fn is_ckpt(&self, device: DeviceId, micro: MicroId, part: PartId) -> bool {
        self.program(device)
            .instrs()
            .iter()
            .any(|i| i.is_forward_of(micro, part) && i.is_ckpt_forward())
    }

    /// Total number of forward compute instructions expected for this
    /// schedule: every micro crosses every stage of its route exactly once.
    pub fn expected_forward_count(&self) -> usize {
        self.micros as usize * self.topology.num_stages() as usize
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule {:?} D={} N={}",
            self.topology.scheme, self.topology.devices, self.micros
        )?;
        for p in &self.programs {
            writeln!(f, "  {p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::InstrKind;
    use crate::topology::SchemeKind;

    fn tiny() -> Schedule {
        let topo = Topology::new(SchemeKind::OneFOneB, 2);
        let mut s = Schedule::empty(topo, 2, vec![0, 0]);
        let d0 = s.program_mut(DeviceId(0));
        d0.push(Instr::forward(0u32, 0u32));
        d0.push(Instr::forward(1u32, 0u32));
        d0.push(Instr::backward(0u32, 0u32));
        d0.push(Instr::backward(1u32, 0u32));
        let d1 = s.program_mut(DeviceId(1));
        d1.push(Instr::forward(0u32, 0u32));
        d1.push(Instr::backward(0u32, 0u32));
        d1.push(Instr::forward(1u32, 0u32));
        d1.push(Instr::backward(1u32, 0u32));
        s
    }

    #[test]
    fn counts_and_totals() {
        let s = tiny();
        assert_eq!(s.total_instrs(), 8);
        assert_eq!(s.count_tag(InstrTag::Forward), 4);
        assert_eq!(s.count_tag(InstrTag::Backward), 4);
        assert_eq!(s.count_ckpt_forwards(), 0);
        assert!(!s.has_checkpointing());
        assert_eq!(s.expected_forward_count(), 4);
    }

    #[test]
    fn peak_on_the_fly_differs_per_device() {
        let s = tiny();
        assert_eq!(s.peak_on_the_fly_per_device(true), vec![2, 1]);
    }

    #[test]
    fn ckpt_detection() {
        let mut s = tiny();
        s.program_mut(DeviceId(0))
            .replace_kind(0, InstrKind::Forward { ckpt: true });
        assert!(s.is_ckpt(DeviceId(0), MicroId(0), PartId(0)));
        assert!(!s.is_ckpt(DeviceId(0), MicroId(1), PartId(0)));
        assert!(s.has_checkpointing());
    }

    #[test]
    #[should_panic(expected = "one route per micro-batch")]
    fn route_length_must_match_micros() {
        let topo = Topology::new(SchemeKind::OneFOneB, 2);
        let _ = Schedule::empty(topo, 3, vec![0]);
    }

    #[test]
    fn compute_only_strips_comm() {
        let mut s = tiny();
        s.program_mut(DeviceId(0))
            .push(Instr::send_act(0u32, 0u32, DeviceId(1)));
        s.program_mut(DeviceId(0)).push(Instr::optimizer_step());
        let c = s.compute_only();
        assert_eq!(c.program(DeviceId(0)).len(), 4);
        assert!(c
            .program(DeviceId(0))
            .instrs()
            .iter()
            .all(|i| i.kind.is_compute()));
    }
}
