//! The graph tuner (paper §5.1): four optimization passes applied
//! iteratively to tessellate activation checkpointing into a pipeline
//! schedule.

pub mod apply_checkpoint;
pub mod overlap_recompute;
pub mod prepose_forward;
pub mod remove_redundancy;
pub mod split_backward;

pub use apply_checkpoint::apply_checkpoint;
pub use overlap_recompute::overlap_recompute;
pub use prepose_forward::{prepose_forward, PreposeOptions};
pub use remove_redundancy::remove_redundancy;
pub use split_backward::{split_backward, SplitOptions};

use mario_ir::{CostModel, Schedule};
use prepose_forward::Trials;
use serde::{Deserialize, Serialize};

/// What the pass pipeline did.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PassStats {
    /// Forwards converted to checkpointed forwards (pass 1).
    pub checkpointed: usize,
    /// Recomputes hoisted into bubbles (pass 2).
    pub overlapped: usize,
    /// Redundant checkpoints reverted (pass 3).
    pub reverted: usize,
    /// Forward groups preposed (pass 4).
    pub preposed: usize,
}

/// Which passes to run.
#[derive(Debug, Clone, Copy)]
pub struct GraphTunerOptions {
    /// Run pass 1 (apply-checkpoint).
    pub checkpoint: bool,
    /// Run pass 2 (overlap-recompute).
    pub overlap: bool,
    /// Run pass 3 (remove-redundancy).
    pub remove_redundant: bool,
    /// Run pass 4 (prepose-forward, simulator-guided).
    pub prepose: bool,
    /// Options for the simulator-guided pass.
    pub prepose_opts: PreposeOptions,
}

impl Default for GraphTunerOptions {
    fn default() -> Self {
        Self {
            checkpoint: true,
            overlap: true,
            remove_redundant: true,
            prepose: true,
            prepose_opts: PreposeOptions::default(),
        }
    }
}

impl GraphTunerOptions {
    /// Naive checkpointing only (the paper's `ckpt` configuration).
    pub fn ckpt_only() -> Self {
        Self {
            overlap: false,
            remove_redundant: false,
            prepose: false,
            ..Default::default()
        }
    }

    /// Full Mario optimization (the paper's `ovlp` configuration).
    pub fn mario() -> Self {
        Self::default()
    }
}

/// Runs the graph tuner: pass 1, then passes 2–4 iterated to a fixpoint
/// (pass 4 is simulator-guided, so each accepted prepose can expose new
/// overlap opportunities for pass 2), at most `max_rounds` times. The
/// iteration stops once prepose accepts nothing, or once prepose stopped
/// at its own fixpoint and passes 2–3 then edited nothing: another prepose
/// call would repeat its last scan and accept nothing.
pub fn run_graph_tuner(
    schedule: &mut Schedule,
    cost: &dyn CostModel,
    opts: GraphTunerOptions,
) -> PassStats {
    graph_tuner(schedule, cost, opts, |_, _| ())
}

/// [`run_graph_tuner`], handing each prepose call's accepted swaps and
/// trial counts to `on_prepose`.
pub(crate) fn graph_tuner(
    schedule: &mut Schedule,
    cost: &dyn CostModel,
    opts: GraphTunerOptions,
    mut on_prepose: impl FnMut(usize, Trials),
) -> PassStats {
    let mut stats = PassStats::default();
    if opts.checkpoint {
        stats.checkpointed = apply_checkpoint(schedule);
    }
    if opts.overlap {
        stats.overlapped += overlap_recompute(schedule);
    }
    if opts.remove_redundant {
        stats.reverted += remove_redundancy(schedule);
    }
    if opts.prepose {
        for _ in 0..opts.prepose_opts.max_rounds {
            let (moved, trials, fixpoint) =
                prepose_forward::prepose(schedule, cost, opts.prepose_opts);
            on_prepose(moved, trials);
            stats.preposed += moved;
            // Passes 2–3 rebuild a program only when their count is positive.
            let (mut overlapped, mut reverted) = (0, 0);
            if opts.overlap {
                overlapped = overlap_recompute(schedule);
            }
            if opts.remove_redundant {
                reverted = remove_redundancy(schedule);
            }
            stats.overlapped += overlapped;
            stats.reverted += reverted;
            if moved == 0 || (fixpoint && overlapped + reverted == 0) {
                break;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{simulate_memory, simulate_timeline};
    use mario_ir::{validate, InstrTag, SchemeKind, UnitCost};
    use mario_schedules::{generate, ScheduleConfig};

    #[test]
    fn full_pipeline_is_valid_and_faster_than_naive_ckpt() {
        let cost = UnitCost::paper_grid();
        for scheme in [
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks: 2 },
        ] {
            let base = generate(ScheduleConfig::new(scheme, 4, 8));
            let mut naive = base.clone();
            run_graph_tuner(&mut naive, &cost, GraphTunerOptions::ckpt_only());
            let mut mario = base.clone();
            let stats = run_graph_tuner(&mut mario, &cost, GraphTunerOptions::mario());
            validate(&mario).unwrap_or_else(|e| panic!("{scheme:?}: {e:?}"));
            assert!(stats.checkpointed > 0);
            let t_naive = simulate_timeline(&naive, &cost, 1).unwrap().total_ns;
            let t_mario = simulate_timeline(&mario, &cost, 1).unwrap().total_ns;
            assert!(
                t_mario < t_naive,
                "{scheme:?}: mario {t_mario} vs naive ckpt {t_naive}"
            );
        }
    }

    #[test]
    fn tuned_schedule_preserves_compute_multiset_modulo_recompute() {
        let cost = UnitCost::paper_grid();
        let base = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let mut tuned = base.clone();
        run_graph_tuner(&mut tuned, &cost, GraphTunerOptions::mario());
        assert_eq!(
            base.count_tag(InstrTag::Forward),
            tuned.count_tag(InstrTag::Forward)
        );
        assert_eq!(
            base.count_tag(InstrTag::Backward),
            tuned.count_tag(InstrTag::Backward)
        );
    }

    #[test]
    fn mario_flattens_the_memory_profile() {
        // Table 1: base 1F1B peaks at D×M_θ on device 0; Mario at ~M_θ.
        let cost = UnitCost::paper_grid();
        let base = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let mut tuned = base.clone();
        run_graph_tuner(&mut tuned, &cost, GraphTunerOptions::mario());
        let base_mem = simulate_memory(&base, &cost, None);
        let tuned_mem = simulate_memory(&tuned, &cost, None);
        assert_eq!(base_mem.peak[0], 4);
        assert!(tuned_mem.peak[0] <= 2, "{:?}", tuned_mem.peak);
        // Balanced: spread of at most one replica across devices.
        let spread = tuned_mem.max_peak() - tuned_mem.min_peak();
        assert!(spread <= 1, "{:?}", tuned_mem.peak);
    }

    #[test]
    fn stats_accumulate_sanely() {
        let cost = UnitCost::paper_grid();
        let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let stats = run_graph_tuner(&mut s, &cost, GraphTunerOptions::mario());
        assert_eq!(stats.checkpointed, 4 * 8);
        assert!(stats.overlapped > 0);
        assert!(stats.reverted >= 8);
    }
}
