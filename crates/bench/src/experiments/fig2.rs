//! Figure 2: the motivating example — a 4-stage 1F1B pipeline reaches
//! near zero-cost activation checkpointing step by step:
//!
//! | step | transformation                | paper time |
//! |------|-------------------------------|------------|
//! | 0    | baseline (no checkpointing)   | 21t        |
//! | 1    | naive checkpointing           | 28t        |
//! | 2    | + overlap-recompute           | 25t        |
//! | 3    | + remove-redundancy           | 23t        |
//! | 4    | + prepose-forward             | 22t        |

use crate::table::Table;
use mario_core::passes::{
    apply_checkpoint, overlap_recompute, prepose_forward, remove_redundancy, PreposeOptions,
};
use mario_core::simulator::simulate_timeline;
use mario_core::viz::{render_ascii, VizOptions};
use mario_ir::{Schedule, SchemeKind, UnitCost};
use mario_schedules::{generate, ScheduleConfig};
use serde::{Deserialize, Serialize};

/// One step of Fig. 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Step {
    /// Step index (0 = baseline).
    pub step: u32,
    /// Description.
    pub what: String,
    /// Measured time in grid units `t`.
    pub measured_t: u64,
    /// The paper's value.
    pub paper_t: u64,
    /// ASCII rendering of the timeline.
    pub gantt: String,
}

fn t_units(s: &Schedule, cost: &UnitCost) -> u64 {
    simulate_timeline(s, cost, 1).unwrap().total_ns / cost.unit
}

fn gantt(s: &Schedule, cost: &UnitCost) -> String {
    render_ascii(
        &simulate_timeline(s, cost, 1).unwrap().spans,
        s,
        VizOptions::default(),
    )
}

/// Reproduces the five steps on a 4-stage pipeline with 4 micro-batches.
pub fn run() -> Vec<Step> {
    let cost = UnitCost::paper_grid();
    let mut steps = Vec::new();

    let base = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 4));
    steps.push(Step {
        step: 0,
        what: "baseline (no checkpointing)".into(),
        measured_t: t_units(&base, &cost),
        paper_t: 21,
        gantt: gantt(&base, &cost),
    });

    let mut s = base.clone();
    apply_checkpoint(&mut s);
    steps.push(Step {
        step: 1,
        what: "apply-checkpoint (recompute before backward)".into(),
        measured_t: t_units(&s, &cost),
        paper_t: 28,
        gantt: gantt(&s, &cost),
    });

    overlap_recompute(&mut s);
    steps.push(Step {
        step: 2,
        what: "overlap-recompute (hide RC in bubbles)".into(),
        measured_t: t_units(&s, &cost),
        paper_t: 25,
        gantt: gantt(&s, &cost),
    });

    remove_redundancy(&mut s);
    steps.push(Step {
        step: 3,
        what: "remove-redundancy (drop adjacent CFW/BW pairs)".into(),
        measured_t: t_units(&s, &cost),
        paper_t: 23,
        gantt: gantt(&s, &cost),
    });

    prepose_forward(&mut s, &cost, PreposeOptions::default());
    overlap_recompute(&mut s);
    steps.push(Step {
        step: 4,
        what: "prepose-forward (reshape bubbles)".into(),
        measured_t: t_units(&s, &cost),
        paper_t: 22,
        gantt: gantt(&s, &cost),
    });

    steps
}

/// Renders the step table plus Gantt charts.
pub fn render(steps: &[Step]) -> String {
    let mut t = Table::new(&["step", "transformation", "measured", "paper"]);
    for s in steps {
        t.row(vec![
            s.step.to_string(),
            s.what.clone(),
            format!("{}t", s.measured_t),
            format!("{}t", s.paper_t),
        ]);
    }
    let mut out = t.render();
    for s in steps {
        out.push_str(&format!("\nstep {} ({}):\n{}", s.step, s.what, s.gantt));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_paper_exactly() {
        let steps = run();
        let measured: Vec<u64> = steps.iter().map(|s| s.measured_t).collect();
        let paper: Vec<u64> = steps.iter().map(|s| s.paper_t).collect();
        assert_eq!(measured, paper, "Fig. 2 step times diverge");
        assert_eq!(paper, vec![21, 28, 25, 23, 22]);
    }

    #[test]
    fn steps_are_monotonically_improving_after_step_one() {
        let steps = run();
        for w in steps[1..].windows(2) {
            assert!(w[1].measured_t < w[0].measured_t);
        }
    }

    #[test]
    fn zb_candidates_in_the_tuner_do_not_perturb_the_fig2_pin() {
        // Enumerating zero-bubble candidates runs the full pass pipeline
        // over ZB schedules (split backwards included). That must be a
        // read-only affair for everyone else. The scenario: a memory
        // budget of *exactly* the tuned 1F1B peak. ZB-H1's peak sits
        // strictly above it (the deferred weight half stashes its layer
        // inputs — the one place its memory profile differs from 1F1B's),
        // and ZB-V's reflected chunk is far above it, so the ZB configs
        // that would win all OOM: present on the curve, never selected
        // (smaller ZB configs still fit but lose on throughput). The
        // Fig. 2 sequence, which exercises the same passes on a plain
        // 1F1B pipeline, must stay pinned.
        use mario_core::tuner::{evaluate, tune, Candidate, SchemeChoice, TunerConfig};
        use mario_model::{GpuSpec, ModelConfig};

        let model = ModelConfig::gpt3_1_6b();
        let gpu = GpuSpec::a100_40g();
        let roomy = TunerConfig {
            mbs_options: vec![1, 2],
            min_pp: 8,
            prepose: false,
            ..TunerConfig::new(8, 32, 40 * (1 << 30))
        };
        // Calibrate: the winning classic candidate's exact peak bytes.
        let v_peak = evaluate(
            &model,
            &gpu,
            &roomy,
            Candidate {
                scheme: SchemeKind::OneFOneB,
                pp: 8,
                dp: 1,
                mbs: 2,
                mario: true,
            },
        )
        .unwrap()
        .peak_mem
        .1;

        let cfg = TunerConfig {
            scheme_choice: SchemeChoice::Fixed(vec![
                SchemeKind::OneFOneB,
                SchemeKind::ZeroBubbleH1,
                SchemeKind::ZeroBubbleV,
            ]),
            mem_capacity: v_peak,
            ..roomy
        };
        let r = tune(&model, &gpu, &cfg).unwrap();
        let zb_evals: Vec<_> = r
            .curve
            .iter()
            .filter(|e| {
                matches!(
                    e.candidate.scheme,
                    SchemeKind::ZeroBubbleH1 | SchemeKind::ZeroBubbleV
                )
            })
            .collect();
        assert!(!zb_evals.is_empty(), "ZB kinds must be on the search curve");
        // The head-to-head ZB-H1 config (same pp/mbs as the winner) is
        // priced out by exactly its wgrad stash.
        let head_to_head = zb_evals.iter().find(|e| {
            e.candidate.scheme == SchemeKind::ZeroBubbleH1
                && e.candidate.mbs == r.best.candidate.mbs
                && e.candidate.mario
        });
        assert!(
            head_to_head.is_some_and(|e| e.oom),
            "ZB-H1 at the winner's config should OOM at the 1F1B peak budget"
        );
        assert!(
            !matches!(
                r.best.candidate.scheme,
                SchemeKind::ZeroBubbleH1 | SchemeKind::ZeroBubbleV
            ),
            "scenario expects ZB to lose here, got {}",
            r.best.candidate
        );

        let measured: Vec<u64> = run().iter().map(|s| s.measured_t).collect();
        assert_eq!(measured, vec![21, 28, 25, 23, 22]);
    }
}
