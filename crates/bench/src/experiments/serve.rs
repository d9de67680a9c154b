//! Serving-latency sweep: forward-only fill–drain pipelines under
//! open-loop load, with and without injected faults.
//!
//! Not a paper artifact — ROADMAP item 3's question, priced in the
//! currency users feel: what does a rack failure do to p99 latency when
//! the pipeline is *serving*, not training? Each of the five training
//! schemes contributes its analytic cost model (the scheme decides how
//! the model is partitioned, so its per-stage forward time differs); the
//! pipeline itself is always the forward-only chain. A seeded Poisson
//! trace drives the emulator's serving loop at a range of offered loads
//! `ρ` (arrival rate over saturated service rate), and each load point
//! runs pristine and under three fault cases: a mid-pipeline crash, a
//! correlated rack failure, and a 3× straggler.
//!
//! Two gates hold (enforced by the binary and CI):
//! * **Closed form** — with every request released at t = 0 and one
//!   request per micro-batch, the emulated serving makespan under the
//!   unit grid is exactly `(m + p − 1)·F`, i.e. the classic fill–drain
//!   bubble fraction `(p − 1)/(m + p − 1)`;
//! * **Finite p99 under faults** — a crash or rack failure strands
//!   requests but never the pipe: error sentinels drain the downstream
//!   stages, the stranded micro-batches are retried within policy, and
//!   every request still completes with a finite p99.

use crate::table::Table;
use mario_cluster::{
    form_batches, poisson_arrivals, serve, BatchPolicy, EmulatorConfig, FaultKind, FaultPlan,
    Request, RetryPolicy, ServeConfig,
};
use mario_ir::{CostModel, DeviceId, Instr, Nanos, SchemeKind, Topology, UnitCost};
use mario_model::{AnalyticCost, GpuSpec, ModelConfig, TrainSetup};
use mario_schedules::{generate, ScheduleConfig};
use serde::{Deserialize, Serialize};

/// Pipeline depth of every serving sweep point.
pub const PP: u32 = 4;

/// Offered-load points of the full sweep (arrival rate over saturated
/// service rate). The SLO-attainment cliff lives around ρ = 1.
pub const FULL_LOADS: [f64; 4] = [0.5, 0.8, 1.0, 1.3];

/// The five training schemes whose cost models the sweep prices.
pub const SCHEMES: [SchemeKind; 5] = [
    SchemeKind::GPipe,
    SchemeKind::OneFOneB,
    SchemeKind::Chimera,
    SchemeKind::Interleave { chunks: 2 },
    SchemeKind::Wave { chunks: 2 },
];

/// Which fault the scenario injects into the serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultCase {
    /// Pristine pipeline.
    None,
    /// A 3× straggler on the first stage (absorbable — no retry).
    Straggler,
    /// A mid-pipeline device crash (error sentinels + retry).
    Crash,
    /// A seeded correlated rack failure (crash + link stalls).
    Rack,
}

impl FaultCase {
    /// All cases, pristine first.
    pub const ALL: [FaultCase; 4] = [
        FaultCase::None,
        FaultCase::Straggler,
        FaultCase::Crash,
        FaultCase::Rack,
    ];

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            FaultCase::None => "none",
            FaultCase::Straggler => "straggler",
            FaultCase::Crash => "crash",
            FaultCase::Rack => "rack",
        }
    }

    /// Whether the case injects a hard fault the serve loop must retry
    /// past (as opposed to absorbing or not faulting at all).
    pub fn is_hard(&self) -> bool {
        matches!(self, FaultCase::Crash | FaultCase::Rack)
    }
}

/// One sweep point and its serving digest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServePoint {
    /// Cost-model scheme label (`G`, `V`, `X`, `W`, `H`).
    pub scheme: String,
    /// Injected fault case.
    pub fault: String,
    /// Offered load ρ.
    pub load: f64,
    /// Requests offered.
    pub requests: u32,
    /// Requests completed (on time or late).
    pub completed: u32,
    /// Completed requests past their deadline.
    pub deadline_misses: u32,
    /// Micro-batch re-dispatches.
    pub retries: u32,
    /// Pipeline attempts (1 = no failure).
    pub attempts: u32,
    /// Faults that killed an attempt.
    pub faults_hit: usize,
    /// Median completion latency, ns.
    pub p50_ns: Nanos,
    /// 99th-percentile completion latency, ns.
    pub p99_ns: Nanos,
    /// Fraction of offered requests completed within deadline.
    pub slo_attainment: f64,
    /// In-deadline completions per second.
    pub goodput_rps: f64,
    /// Whether the scenario upheld its invariant.
    pub ok: bool,
    /// Failure description when `ok` is false.
    pub outcome: String,
}

/// Runs one sweep point: `scheme`'s cost model, offered load `rho`,
/// fault case `fault`.
fn scenario(scheme: SchemeKind, fault: FaultCase, rho: f64, smoke: bool) -> ServePoint {
    let setup = TrainSetup::pipeline(
        ModelConfig::gpt3_1_6b(),
        GpuSpec::a100_40g(),
        Topology::new(scheme, PP),
        2,
    );
    let cost = AnalyticCost::new(&setup);
    // Per-slot forward time of this scheme's partitioning: the saturated
    // pipeline drains one micro-batch (max_batch requests) every F ns.
    let f = cost.duration(DeviceId(0), &Instr::forward(0u32, 0u32));
    let batch = BatchPolicy {
        max_batch: 4,
        max_wait_ns: f,
    };
    let count: u32 = if smoke { 16 } else { 48 };
    let mean_gap = (f as f64 / (rho * batch.max_batch as f64)).round() as Nanos;
    let slo_ns = (PP as Nanos + 6) * f;
    let requests = poisson_arrivals(11 + scheme_index(scheme), count, mean_gap.max(1), slo_ns);

    // Fault plans are drawn against the first attempt's schedule (one
    // micro-batch per formed batch).
    let micros = form_batches(&requests, batch).len() as u32;
    let schedule = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, PP, micros));
    let plan = match fault {
        FaultCase::None => FaultPlan::none(),
        FaultCase::Straggler => FaultPlan::none().with(FaultKind::Slowdown {
            device: DeviceId(0),
            factor: 3.0,
            from_pc: 0,
            until_pc: usize::MAX,
        }),
        FaultCase::Crash => {
            let mid = DeviceId(PP / 2);
            let pc = schedule.program(mid).len() / 2;
            FaultPlan::none().with(FaultKind::Crash { device: mid, pc })
        }
        FaultCase::Rack => FaultPlan::rack_failure(7, &schedule),
    };

    let cfg = ServeConfig {
        emulator: EmulatorConfig {
            channel_capacity: 1,
            ..Default::default()
        },
        batch,
        retry: RetryPolicy {
            max_retries: 3,
            backoff_ns: f,
            drop_missed: false,
        },
    };

    let build = |m: u32| generate(ScheduleConfig::new(SchemeKind::ForwardOnly, PP, m));
    let (serving, faults_hit, mut ok, mut outcome) =
        match serve(build, &cost, &cfg, &plan, &requests) {
            Ok(out) => {
                let s = out.serving.clone();
                let mut ok = true;
                let mut why = String::new();
                if s.completed + s.failed != s.requests {
                    ok = false;
                    why = format!("{} of {} requests unaccounted", s.completed, s.requests);
                }
                // Retry within policy: every request completes even under
                // a hard fault (drop_missed is off), and the completions
                // carry a finite latency digest.
                if s.completed != s.requests {
                    ok = false;
                    why = format!("{}/{} completed", s.completed, s.requests);
                }
                if s.completed > 0 && (s.p99_ns == 0 || s.p99_ns == u64::MAX) {
                    ok = false;
                    why = format!("p99 not finite: {}", s.p99_ns);
                }
                if fault.is_hard() && out.fault_log.is_empty() {
                    ok = false;
                    why = "hard fault never fired".into();
                }
                if fault.is_hard() && s.attempts < 2 {
                    ok = false;
                    why = "hard fault did not cost an attempt".into();
                }
                (s, out.fault_log.len(), ok, why)
            }
            Err(e) => (
                Default::default(),
                0,
                false,
                format!("serve failed: {e}"),
            ),
        };
    if ok {
        outcome = "ok".into();
    }
    // A degraded pipeline can only hurt the tail, never help it (same
    // trace, same batches): cross-checked in `run` against the pristine
    // row, here we only pin obvious nonsense.
    if serving.slo_attainment > 1.0 {
        ok = false;
        outcome = format!("slo attainment {} > 1", serving.slo_attainment);
    }
    ServePoint {
        scheme: scheme.shape_letter().to_string(),
        fault: fault.label().to_string(),
        load: rho,
        requests: serving.requests,
        completed: serving.completed,
        deadline_misses: serving.deadline_misses,
        retries: serving.retries,
        attempts: serving.attempts,
        faults_hit,
        p50_ns: serving.p50_ns,
        p99_ns: serving.p99_ns,
        slo_attainment: serving.slo_attainment,
        goodput_rps: serving.goodput_rps,
        ok,
        outcome,
    }
}

fn scheme_index(s: SchemeKind) -> u64 {
    SCHEMES
        .iter()
        .position(|&k| k == s)
        .map(|i| i as u64)
        .unwrap_or(0)
}

/// Sweeps the serving grid: every scheme's cost model × offered loads ×
/// fault cases (smoke: one load, pristine + rack only).
pub fn run(smoke: bool) -> Vec<ServePoint> {
    let loads: &[f64] = if smoke { &[0.8] } else { &FULL_LOADS };
    let cases: &[FaultCase] = if smoke {
        &[FaultCase::None, FaultCase::Rack]
    } else {
        &FaultCase::ALL
    };
    let mut rows = Vec::new();
    for scheme in SCHEMES {
        for &rho in loads {
            for &fault in cases {
                rows.push(scenario(scheme, fault, rho, smoke));
            }
        }
    }
    rows
}

/// One closed-form gate row: all `m` requests released at t = 0, one
/// request per micro-batch, unit-grid cost — the emulated serving
/// makespan must be exactly `(m + p − 1)·F`, the fill–drain closed form
/// behind the bubble fraction `(p − 1)/(m + p − 1)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClosedFormRow {
    /// Pipeline depth.
    pub p: u32,
    /// Micro-batches.
    pub m: u32,
    /// Emulated serving makespan, ns.
    pub total_ns: Nanos,
    /// The closed form `(m + p − 1)·F`, ns.
    pub expect_ns: Nanos,
    /// The implied bubble fraction `(p − 1)/(m + p − 1)`.
    pub bubble_fraction: f64,
    /// Whether the closed form held exactly.
    pub ok: bool,
}

/// Runs the closed-form gate across depths.
pub fn closed_form() -> Vec<ClosedFormRow> {
    const F: Nanos = 1_000;
    [(2u32, 4u32), (4, 8), (8, 3)]
        .into_iter()
        .map(|(p, m)| {
            let requests: Vec<Request> = (0..m)
                .map(|id| Request {
                    id,
                    arrival_ns: 0,
                    deadline_ns: Nanos::MAX,
                })
                .collect();
            let cfg = ServeConfig {
                batch: BatchPolicy {
                    max_batch: 1,
                    max_wait_ns: 0,
                },
                ..ServeConfig::default()
            };
            let out = serve(
                |micros| generate(ScheduleConfig::new(SchemeKind::ForwardOnly, p, micros)),
                &UnitCost::paper_grid(),
                &cfg,
                &FaultPlan::none(),
                &requests,
            )
            .expect("pristine closed-form serve completes");
            let total_ns = out.serving.makespan_ns;
            let expect_ns = ((m + p - 1) as Nanos) * F;
            // Integer cross-multiplied bubble check:
            // (total − m·F)/total == (p − 1)/(m + p − 1).
            let ok = total_ns == expect_ns
                && (total_ns - m as Nanos * F) * (m + p - 1) as Nanos
                    == (p - 1) as Nanos * total_ns;
            ClosedFormRow {
                p,
                m,
                total_ns,
                expect_ns,
                bubble_fraction: (p - 1) as f64 / (m + p - 1) as f64,
                ok,
            }
        })
        .collect()
}

/// Renders the sweep table, the cliff summary and the verdict line.
pub fn render(rows: &[ServePoint]) -> String {
    let mut t = Table::new(&[
        "cost model",
        "fault",
        "rho",
        "done",
        "miss",
        "retry",
        "att",
        "p50 us",
        "p99 us",
        "SLO %",
        "goodput rps",
    ]);
    for r in rows {
        t.row(vec![
            r.scheme.clone(),
            r.fault.clone(),
            format!("{:.1}", r.load),
            format!("{}/{}", r.completed, r.requests),
            r.deadline_misses.to_string(),
            r.retries.to_string(),
            r.attempts.to_string(),
            format!("{:.1}", r.p50_ns as f64 / 1e3),
            format!("{:.1}", r.p99_ns as f64 / 1e3),
            if r.ok {
                format!("{:.1}", r.slo_attainment * 100.0)
            } else {
                format!("VIOLATION: {}", r.outcome)
            },
            format!("{:.0}", r.goodput_rps),
        ]);
    }
    let bad = rows.iter().filter(|r| !r.ok).count();
    let mut out = t.render();
    // The cliff, summarized: pristine SLO attainment per load, averaged
    // over the five cost models.
    let mut cliff: Vec<(f64, f64, usize)> = Vec::new();
    for r in rows.iter().filter(|r| r.fault == "none") {
        match cliff.iter_mut().find(|(l, _, _)| *l == r.load) {
            Some((_, sum, n)) => {
                *sum += r.slo_attainment;
                *n += 1;
            }
            None => cliff.push((r.load, r.slo_attainment, 1)),
        }
    }
    if cliff.len() > 1 {
        out.push_str("\nSLO-attainment cliff (pristine, mean over cost models):\n");
        for (l, sum, n) in &cliff {
            out.push_str(&format!("  rho {:.1}: {:.1}%\n", l, sum / *n as f64 * 100.0));
        }
    }
    out.push_str(&format!(
        "\n**Verdict:** {}/{} serving scenarios upheld the invariant \
         (complete + finite p99 + retry within policy).\n",
        rows.len() - bad,
        rows.len()
    ));
    out
}

/// Renders the closed-form gate table.
pub fn render_closed_form(rows: &[ClosedFormRow]) -> String {
    let mut t = Table::new(&["p", "m", "makespan ns", "closed form", "bubble"]);
    for r in rows {
        t.row(vec![
            r.p.to_string(),
            r.m.to_string(),
            r.total_ns.to_string(),
            if r.ok {
                r.expect_ns.to_string()
            } else {
                format!("VIOLATION: expected {}", r.expect_ns)
            },
            format!("{:.3}", r.bubble_fraction),
        ]);
    }
    let bad = rows.iter().filter(|r| !r.ok).count();
    let mut out = t.render();
    out.push_str(&format!(
        "\n**Verdict:** {}/{} fill–drain points matched (m+p-1)·F exactly \
         (bubble fraction (p-1)/(m+p-1)).\n",
        rows.len() - bad,
        rows.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_holds_at_every_depth() {
        for r in closed_form() {
            assert!(r.ok, "p={} m={}: {} != {}", r.p, r.m, r.total_ns, r.expect_ns);
        }
    }

    #[test]
    fn smoke_sweep_upholds_the_invariant() {
        let rows = run(true);
        assert_eq!(rows.len(), SCHEMES.len() * 2);
        for r in &rows {
            assert!(r.ok, "{} {} rho {}: {}", r.scheme, r.fault, r.load, r.outcome);
        }
        // The rack rows actually exercised the sentinel path.
        for r in rows.iter().filter(|r| r.fault == "rack") {
            assert!(r.attempts >= 2, "{}: attempts {}", r.scheme, r.attempts);
            assert!(r.completed == r.requests);
            assert!(r.p99_ns > 0 && r.p99_ns < u64::MAX);
        }
    }

    #[test]
    fn overload_degrades_slo_attainment() {
        // The cliff: for one cost model, pristine attainment at rho 0.5
        // is no worse than at rho 1.3.
        let low = scenario(SchemeKind::OneFOneB, FaultCase::None, 0.5, true);
        let high = scenario(SchemeKind::OneFOneB, FaultCase::None, 1.3, true);
        assert!(low.ok && high.ok, "{} / {}", low.outcome, high.outcome);
        assert!(
            low.slo_attainment >= high.slo_attainment,
            "{} < {}",
            low.slo_attainment,
            high.slo_attainment
        );
        assert!(low.p99_ns <= high.p99_ns);
    }
}
