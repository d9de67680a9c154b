//! The simulator-based performance model (paper §5.2): timeline + memory.

pub mod memsim;
pub mod timeline;

pub use memsim::{memory_series, simulate_memory, MemReport, MemSeries, OomAt};
pub(crate) use timeline::{simulate_makespan, Observe, OnTheFly, Run, Sweep, Timing};
pub use timeline::{simulate, simulate_timeline, SimError, SimOptions, SimTimeline};
#[cfg(feature = "test-order")]
#[doc(hidden)]
pub use timeline::simulate_shuffled;

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::{SchemeKind, UnitCost};
    use mario_schedules::{generate, ScheduleConfig};

    #[test]
    fn default_options_simulate_one_pristine_iteration() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let cost = UnitCost::paper_grid();
        let t = simulate(&s, &cost, &SimOptions::default()).unwrap();
        let cap1 = simulate_timeline(&s, &cost, 1).unwrap();
        assert_eq!(t.spans, cap1.spans);
        assert_eq!(t.device_clocks, cap1.device_clocks);
        assert!(t.completions.is_empty());
        assert!(t.throughput(128) > 0.0);
    }

    /// The headline fidelity property: with zero jitter, the simulator
    /// and the cluster emulator produce *identical* timelines.
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
