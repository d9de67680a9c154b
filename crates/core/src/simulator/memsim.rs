//! Device-level memory simulation (paper §5.2): accumulate static memory,
//! track peak dynamic memory by walking each device's instruction list with
//! the shared activation-lifecycle rules.

use mario_ir::{CostModel, DeviceId, DeviceProgram, Instr, MemLedger, MemoryRules, Schedule};
use serde::{Deserialize, Serialize};

/// Per-device peak memory, plus the first OOM if a capacity was given.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemReport {
    /// Peak bytes per device (static + dynamic).
    pub peak: Vec<u64>,
    /// Static bytes per device.
    pub static_bytes: Vec<u64>,
    /// First device that would OOM under the given capacity, if any. Peaks
    /// for all devices are still reported (computed without the cap), which
    /// is how the paper fills Table 5's OOM rows from the simulator.
    pub oom: Option<OomAt>,
}

/// Where an OOM occurs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OomAt {
    /// The faulting device.
    pub device: DeviceId,
    /// Instruction index in the device program.
    pub pc: usize,
    /// Rendered instruction.
    pub instr: String,
}

impl MemReport {
    /// Max peak across devices.
    pub fn max_peak(&self) -> u64 {
        self.peak.iter().copied().max().unwrap_or(0)
    }

    /// Min peak across devices (Table 5 reports `[min, max]`).
    pub fn min_peak(&self) -> u64 {
        self.peak.iter().copied().min().unwrap_or(0)
    }

    /// Whether the schedule fits in `capacity` bytes per device.
    pub fn fits(&self, capacity: u64) -> bool {
        self.max_peak() <= capacity
    }
}

/// One device's memory level after each of its instructions — the series
/// behind Fig. 7-style plots.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemSeries {
    /// The device.
    pub device: DeviceId,
    /// `(instruction index, total bytes after executing it)`.
    pub points: Vec<(usize, u64)>,
}

/// Walks `prog` through `rules` on a fresh ledger with no capacity,
/// telling `each` every instruction and the footprint after it, and
/// returns the ledger.
fn walk(
    rules: &MemoryRules,
    cost: &dyn CostModel,
    prog: &DeviceProgram,
    mut each: impl FnMut(usize, &Instr, u64),
) -> MemLedger {
    let dev = prog.device;
    let mut ledger = rules.ledger(dev, cost, cost.static_mem(dev), None);
    for (pc, instr) in prog.iter() {
        rules
            .apply(&mut ledger, cost, dev, instr)
            .expect("capacity disabled; alloc cannot fail");
        each(pc, instr, ledger.current());
    }
    ledger
}

/// Computes the per-instruction memory level series for every device.
pub fn memory_series(schedule: &Schedule, cost: &dyn CostModel) -> Vec<MemSeries> {
    let rules = MemoryRules::new(schedule);
    schedule
        .programs()
        .iter()
        .map(|prog| {
            let mut points = Vec::with_capacity(prog.len());
            walk(&rules, cost, prog, |pc, _, now| points.push((pc, now)));
            MemSeries {
                device: prog.device,
                points,
            }
        })
        .collect()
}

/// Simulates memory for every device. `capacity` only marks the OOM point;
/// peaks are always computed in full.
pub fn simulate_memory(
    schedule: &Schedule,
    cost: &dyn CostModel,
    capacity: Option<u64>,
) -> MemReport {
    let rules = MemoryRules::new(schedule);
    let mut peak = Vec::with_capacity(schedule.devices() as usize);
    let mut static_bytes = Vec::with_capacity(schedule.devices() as usize);
    let mut oom: Option<OomAt> = None;
    for prog in schedule.programs() {
        let dev = prog.device;
        let mut device_oom: Option<OomAt> = None;
        let ledger = walk(&rules, cost, prog, |pc, instr, now| {
            if capacity.is_some_and(|cap| now > cap) && device_oom.is_none() {
                device_oom = Some(OomAt {
                    device: dev,
                    pc,
                    instr: instr.to_string(),
                });
            }
        });
        debug_assert_eq!(
            ledger.live_count(),
            0,
            "{dev}: activations leaked across the iteration"
        );
        static_bytes.push(ledger.static_bytes());
        peak.push(ledger.peak());
        if oom.is_none() {
            oom = device_oom;
        }
    }
    MemReport {
        peak,
        static_bytes,
        oom,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::{SchemeKind, UnitCost};
    use mario_schedules::{generate, ScheduleConfig};

    #[test]
    fn one_f_one_b_peaks_decline_with_device_index() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let r = simulate_memory(&s, &UnitCost::paper_grid(), None);
        assert_eq!(r.peak, vec![4, 3, 2, 1]);
        assert_eq!(r.max_peak(), 4);
        assert_eq!(r.min_peak(), 1);
        assert!(r.oom.is_none());
    }

    #[test]
    fn gpipe_peaks_at_n_everywhere() {
        let s = generate(ScheduleConfig::new(SchemeKind::GPipe, 4, 8));
        let r = simulate_memory(&s, &UnitCost::paper_grid(), None);
        assert_eq!(r.peak, vec![8; 4]);
    }

    #[test]
    fn oom_location_is_reported_but_peaks_complete() {
        let s = generate(ScheduleConfig::new(SchemeKind::GPipe, 2, 8));
        let r = simulate_memory(&s, &UnitCost::paper_grid(), Some(4));
        let oom = r.oom.clone().expect("should OOM");
        assert_eq!(oom.device, DeviceId(0));
        assert_eq!(r.peak[0], 8); // still fully computed
        assert!(!r.fits(4));
        assert!(r.fits(8));
    }

    #[test]
    fn memory_series_tracks_the_sawtooth() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 2, 4));
        let series = memory_series(&s, &UnitCost::paper_grid());
        assert_eq!(series.len(), 2);
        let d1: Vec<u64> = series[1].points.iter().map(|&(_, b)| b).collect();
        // Last device alternates F (+1) and B (-1): a 1-0 sawtooth over
        // the compute instructions; comm points repeat the level.
        let max = *d1.iter().max().unwrap();
        let min = *d1.iter().min().unwrap();
        assert_eq!(max, 1);
        assert_eq!(min, 0);
        assert_eq!(*d1.last().unwrap(), 0, "all freed at iteration end");
        // Series peak equals the report peak.
        let rep = simulate_memory(&s, &UnitCost::paper_grid(), None);
        assert_eq!(max, rep.peak[1]);
    }

    #[test]
    fn matches_cluster_emulator_peaks() {
        for scheme in [
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks: 2 },
        ] {
            let s = generate(ScheduleConfig::new(scheme, 4, 8));
            let sim = simulate_memory(&s, &UnitCost::paper_grid(), None);
            let emu = mario_cluster::run(
                &s,
                &UnitCost::paper_grid(),
                mario_cluster::EmulatorConfig::default(),
            )
            .unwrap();
            assert_eq!(sim.peak, emu.peak_mem, "{scheme:?}");
        }
    }
}
