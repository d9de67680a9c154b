//! The simulator-based performance model (paper §5.2): timeline + memory.

pub mod memsim;
pub mod timeline;

pub use memsim::{memory_series, simulate_memory, MemReport, MemSeries, OomAt};
pub use timeline::{
    simulate_timeline, simulate_timeline_ckpt, simulate_timeline_iters, simulate_timeline_serving,
    simulate_timeline_startup,
    simulate_timeline_with, SimError, SimEvent, SimTimeline,
};
pub(crate) use timeline::simulate_makespan;

use mario_ir::{CostModel, Schedule};
use serde::{Deserialize, Serialize};

/// Combined simulation result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// The timing result.
    pub timeline: SimTimeline,
    /// The memory result.
    pub memory: MemReport,
}

impl SimReport {
    /// Throughput in samples/s for `samples` per iteration.
    pub fn throughput(&self, samples: u64) -> f64 {
        self.timeline.throughput(samples)
    }
}

/// Simulation options.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// p2p buffer depth.
    pub channel_capacity: usize,
    /// Per-device memory capacity for OOM detection.
    pub mem_capacity: Option<u64>,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            channel_capacity: 1,
            mem_capacity: None,
        }
    }
}

/// Runs both the timeline and memory simulations.
pub fn simulate(
    schedule: &Schedule,
    cost: &dyn CostModel,
    opts: SimOptions,
) -> Result<SimReport, SimError> {
    let timeline = simulate_timeline(schedule, cost, opts.channel_capacity)?;
    let memory = simulate_memory(schedule, cost, opts.mem_capacity);
    Ok(SimReport { timeline, memory })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::{SchemeKind, UnitCost};
    use mario_schedules::{generate, ScheduleConfig};

    #[test]
    fn combined_report() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let r = simulate(&s, &UnitCost::paper_grid(), SimOptions::default()).unwrap();
        assert!(r.throughput(128) > 0.0);
        assert_eq!(r.memory.peak.len(), 4);
    }

    /// The headline fidelity property: with zero jitter, the DP simulator
    /// and the threaded cluster emulator produce *identical* timelines.
    #[test]
    fn simulator_equals_emulator_without_jitter() {
        for scheme in [
            SchemeKind::GPipe,
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks: 2 },
        ] {
            let s = generate(ScheduleConfig::new(scheme, 4, 8));
            let sim = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
            let emu = mario_cluster::run(
                &s,
                &UnitCost::paper_grid(),
                mario_cluster::EmulatorConfig::default(),
            )
            .unwrap();
            assert_eq!(sim.device_clocks, emu.device_clocks, "{scheme:?}");
            assert_eq!(sim.total_ns, emu.total_ns, "{scheme:?}");
        }
    }
}
