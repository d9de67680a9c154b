//! Serving mode: forward-only pipelines under live traffic.
//!
//! Training runs execute a fixed number of identical iterations; serving
//! runs execute whatever the load generator produced. This module adds the
//! request layer on top of the emulator: a seeded deterministic arrival
//! process ([`poisson_arrivals`]), a batching policy that forms
//! micro-batches from queued requests ([`BatchPolicy`]), per-request
//! deadlines with a bounded retry/backoff policy ([`RetryPolicy`]), and the
//! attempt loop ([`serve_with`]) that re-dispatches the micro-batches a
//! stage failure stranded.
//!
//! Error-sentinel recovery reuses the emulator's link rule: when a stage
//! crashes, its peers go on with all the genuine traffic it sent and park
//! only where they would wait on it for good, so every micro-batch
//! already past the failed stage drains through to the last stage and
//! completes — the [`ServeBoard`] survives the failed attempt and keeps
//! those completions — and the crash, not a deadlock, is the run's
//! answer.
//! Only the micro-batches that never reached the end are retried, gated at
//! `fault time + backoff` so wall-clock continuity holds across attempts.
//!
//! The same arithmetic runs on the emulator ([`crate::runner::run_with`])
//! and the DP simulator (`mario-core`'s `simulate` with a release
//! schedule): with zero jitter the two agree bit-for-bit on every
//! per-request completion time.

use crate::error::EmuError;
use crate::faults::{FaultPlan, FaultReport};
use crate::runner::{run_with, EmulatorConfig, RunOptions, RunReport};
use mario_ir::{CostModel, MicroId, Nanos, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared completion scoreboard: the last pipeline stage records the
/// virtual time each micro-batch finished its final forward. Writes are
/// observational (the executing device never reads the board), so serving
/// instrumentation cannot perturb timing — single-run parity with the
/// un-instrumented emulator is exact.
///
/// The board outlives a failed attempt: micro-batches that drained past
/// the sentinel before the pipe unwound keep their completion times, which
/// is exactly what the retry loop needs to know what *not* to re-dispatch.
#[derive(Debug)]
pub struct ServeBoard {
    /// Completion time per micro, `u64::MAX` = never completed.
    done: Vec<AtomicU64>,
}

impl ServeBoard {
    /// A board for `micros` micro-batches, none completed.
    pub fn new(micros: u32) -> Self {
        Self {
            done: (0..micros).map(|_| AtomicU64::new(u64::MAX)).collect(),
        }
    }

    /// Records that `micro` completed its last forward at `clock` ns.
    /// Keeps the earliest completion if recorded twice (multi-iteration
    /// runs re-execute the program; the first pass is the serving one).
    pub fn record(&self, micro: MicroId, clock: Nanos) {
        if let Some(slot) = self.done.get(micro.index()) {
            slot.fetch_min(clock, Ordering::Relaxed);
        }
    }

    /// Completion time of `micro`, if it finished.
    pub fn completion(&self, micro: u32) -> Option<Nanos> {
        self.done
            .get(micro as usize)
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|&t| t != u64::MAX)
    }

    /// All completion times, indexed by micro.
    pub fn completions(&self) -> Vec<Option<Nanos>> {
        (0..self.done.len() as u32)
            .map(|m| self.completion(m))
            .collect()
    }
}

/// Per-run serving instrumentation handed to the executors: which
/// micro-batch may start when (ingress gating at the first stage) and
/// where completions are recorded (the last stage). `Copy` so device
/// runtimes can hold it by value.
#[derive(Clone, Copy)]
pub struct ServingHooks<'a> {
    /// Release time per micro, ns: the first-stage forward of micro `m`
    /// may not start before `release[m]` (missing entries mean 0).
    pub release: &'a [Nanos],
    /// Completion scoreboard written by the last stage.
    pub board: &'a ServeBoard,
}

impl ServingHooks<'_> {
    /// Release time of `micro` (0 when unspecified).
    pub fn release_of(&self, micro: MicroId) -> Nanos {
        self.release.get(micro.index()).copied().unwrap_or(0)
    }
}

/// One inference request in the open-loop load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Request id (its index in the trace).
    pub id: u32,
    /// Virtual arrival time, ns.
    pub arrival_ns: Nanos,
    /// Absolute completion deadline, ns (the SLO).
    pub deadline_ns: Nanos,
}

/// A seeded open-loop Poisson arrival trace: `count` requests with
/// exponential inter-arrival gaps of mean `mean_gap_ns`, each carrying an
/// absolute deadline `slo_ns` past its arrival. Deterministic given the
/// seed — the same trace drives the simulator and the emulator.
pub fn poisson_arrivals(seed: u64, count: u32, mean_gap_ns: Nanos, slo_ns: Nanos) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t: Nanos = 0;
    (0..count)
        .map(|id| {
            // gen_range is half-open at 1.0 and u > 0 keeps ln finite.
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += (-u.ln() * mean_gap_ns as f64).round() as Nanos;
            Request {
                id,
                arrival_ns: t,
                deadline_ns: t + slo_ns,
            }
        })
        .collect()
}

/// How queued requests are folded into micro-batches.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BatchPolicy {
    /// A batch closes as soon as it holds this many requests.
    pub max_batch: u32,
    /// ... or once its oldest request has waited this long, whichever
    /// comes first.
    pub max_wait_ns: Nanos,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 4,
            max_wait_ns: 2_000,
        }
    }
}

/// One formed micro-batch: the member requests and the time the batch
/// closed (= the earliest the pipeline may start its first forward).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Batch {
    /// Member request ids (indices into the request trace).
    pub members: Vec<u32>,
    /// Virtual time the batch was released to the pipeline, ns.
    pub release_ns: Nanos,
}

/// Greedily folds an arrival-ordered request trace into micro-batches: a
/// batch opens at its first request's arrival and closes either when the
/// `max_batch`-th request arrives (released at that arrival) or when
/// `max_wait_ns` elapses (released at `open + max_wait_ns` — the batcher
/// waited that long hoping to fill up). Pure integer arithmetic, so every
/// executor derives identical batches.
pub fn form_batches(requests: &[Request], policy: BatchPolicy) -> Vec<Batch> {
    let max_batch = policy.max_batch.max(1) as usize;
    let mut batches = Vec::new();
    let mut i = 0;
    while i < requests.len() {
        let open = requests[i].arrival_ns;
        let close = open + policy.max_wait_ns;
        let mut members = vec![requests[i].id];
        i += 1;
        while i < requests.len() && members.len() < max_batch && requests[i].arrival_ns <= close {
            members.push(requests[i].id);
            i += 1;
        }
        let release_ns = if members.len() == max_batch {
            requests[members[members.len() - 1] as usize].arrival_ns
        } else {
            close
        };
        batches.push(Batch {
            members,
            release_ns,
        });
    }
    batches
}

/// Bounded retry with exponential backoff for micro-batches stranded by a
/// stage failure.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Failed attempts tolerated before the stranded requests are
    /// abandoned (0 = never retry).
    pub max_retries: u32,
    /// Backoff after the `k`-th failure: `backoff_ns << (k-1)` past the
    /// fault's virtual time before stranded micro-batches re-enter.
    pub backoff_ns: Nanos,
    /// Drop a stranded batch instead of retrying it once every member's
    /// deadline lies before the retry floor (the retry could only produce
    /// misses).
    pub drop_missed: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff_ns: 5_000,
            drop_missed: false,
        }
    }
}

/// Serving-side counters and latency digest, computed by [`serve_with`]
/// from per-request completion times and surfaced on
/// [`RunReport::serving`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServingTelemetry {
    /// Requests offered.
    pub requests: u32,
    /// Requests that completed (on time or late).
    pub completed: u32,
    /// Requests abandoned (stranded past the retry budget or dropped).
    pub failed: u32,
    /// Completed requests that finished after their deadline.
    pub deadline_misses: u32,
    /// Micro-batch re-dispatches across all retry attempts.
    pub retries: u32,
    /// Pipeline attempts, including the first (1 = no failure).
    pub attempts: u32,
    /// Median completion latency (completion − arrival), ns.
    pub p50_ns: Nanos,
    /// 99th-percentile completion latency, ns.
    pub p99_ns: Nanos,
    /// Worst completion latency, ns.
    pub max_ns: Nanos,
    /// Last completion time, ns (the serving makespan).
    pub makespan_ns: Nanos,
    /// In-deadline completions per second of makespan.
    pub goodput_rps: f64,
    /// Fraction of offered requests that completed within deadline.
    pub slo_attainment: f64,
}

/// What a whole serving session produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Completion time per request id (None = abandoned).
    pub completions: Vec<Option<Nanos>>,
    /// The micro-batches the batching policy formed.
    pub batches: Vec<Batch>,
    /// Structured reports of every fault that killed an attempt.
    pub fault_log: Vec<FaultReport>,
    /// The last successful attempt's run report, serving telemetry
    /// stamped (None when even the final attempt failed).
    pub report: Option<RunReport>,
    /// Serving counters and latency digest.
    pub serving: ServingTelemetry,
}

/// The serving attempt loop, generic over the executor so the simulator
/// and the emulator share the batching, retry, backoff and telemetry
/// arithmetic verbatim.
///
/// `run(micros, release, attempt)` executes one pipeline attempt over
/// `micros` micro-batches whose first-stage forwards are gated at
/// `release`, returning the attempt outcome and the per-micro completion
/// times the scoreboard observed (partial on failure). `retryable`
/// classifies an attempt error: `Some(report)` means an injected fault the
/// loop may retry past; `None` propagates the error (a broken schedule
/// cannot be retried into working).
///
/// Wall-clock continuity across attempts: a retry re-dispatches the
/// stranded micro-batches onto the recovered (drained) pipeline with
/// release times floored at `fault.vtime + backoff`, so completion times
/// from different attempts share one time axis.
pub fn serve_with<E>(
    requests: &[Request],
    batch: BatchPolicy,
    retry: RetryPolicy,
    mut run: impl FnMut(u32, &[Nanos], u32) -> (Result<RunReport, E>, Vec<Option<Nanos>>),
    retryable: impl Fn(&E) -> Option<FaultReport>,
) -> Result<ServeOutcome, E> {
    let batches = form_batches(requests, batch);
    let mut batch_done: Vec<Option<Nanos>> = vec![None; batches.len()];
    let mut pending: Vec<usize> = (0..batches.len()).collect();
    let mut fault_log: Vec<FaultReport> = Vec::new();
    let mut report: Option<RunReport> = None;
    let mut retries: u32 = 0;
    let mut attempt: u32 = 0;
    // Earliest re-entry time for retried micro-batches, pushed forward by
    // each failure's virtual time plus backoff.
    let mut floor: Nanos = 0;
    while !pending.is_empty() {
        let release: Vec<Nanos> = pending
            .iter()
            .map(|&b| batches[b].release_ns.max(floor))
            .collect();
        let (res, completions) = run(pending.len() as u32, &release, attempt);
        attempt += 1;
        for (j, done) in completions.iter().enumerate() {
            if let (Some(t), Some(&b)) = (done, pending.get(j)) {
                batch_done[b] = Some(*t);
            }
        }
        pending.retain(|&b| batch_done[b].is_none());
        match res {
            Ok(rep) => {
                report = Some(rep);
                debug_assert!(pending.is_empty(), "successful attempt left micros unfinished");
                break;
            }
            Err(e) => {
                let Some(rep) = retryable(&e) else { return Err(e) };
                let failures = fault_log.len() as u32 + 1;
                let backoff = retry
                    .backoff_ns
                    .saturating_mul(1u64 << (failures - 1).min(32));
                floor = floor.max(rep.vtime.saturating_add(backoff));
                fault_log.push(rep);
                if failures > retry.max_retries {
                    break;
                }
                if retry.drop_missed {
                    pending.retain(|&b| {
                        batches[b]
                            .members
                            .iter()
                            .any(|&r| requests[r as usize].deadline_ns >= floor)
                    });
                }
                retries += pending.len() as u32;
            }
        }
    }

    // Expand batch completions to requests and digest.
    let mut completions: Vec<Option<Nanos>> = vec![None; requests.len()];
    for (b, done) in batches.iter().zip(&batch_done) {
        if let Some(t) = done {
            for &r in &b.members {
                completions[r as usize] = Some(*t);
            }
        }
    }
    let mut latencies: Vec<Nanos> = Vec::new();
    let mut on_time: u32 = 0;
    let mut misses: u32 = 0;
    let mut makespan: Nanos = 0;
    for (r, done) in requests.iter().zip(&completions) {
        let Some(t) = done else { continue };
        latencies.push(t.saturating_sub(r.arrival_ns));
        makespan = makespan.max(*t);
        if *t <= r.deadline_ns {
            on_time += 1;
        } else {
            misses += 1;
        }
    }
    latencies.sort_unstable();
    // Integer nearest-rank percentile on the sorted latencies: exact and
    // platform-independent, so parity assertions can compare digests.
    let pct = |num: u64, den: u64| -> Nanos {
        if latencies.is_empty() {
            0
        } else {
            latencies[((latencies.len() - 1) as u64 * num / den) as usize]
        }
    };
    let completed = latencies.len() as u32;
    let serving = ServingTelemetry {
        requests: requests.len() as u32,
        completed,
        failed: requests.len() as u32 - completed,
        deadline_misses: misses,
        retries,
        attempts: attempt,
        p50_ns: pct(50, 100),
        p99_ns: pct(99, 100),
        max_ns: latencies.last().copied().unwrap_or(0),
        makespan_ns: makespan,
        goodput_rps: if makespan == 0 {
            0.0
        } else {
            on_time as f64 / (makespan as f64 / 1e9)
        },
        slo_attainment: if requests.is_empty() {
            0.0
        } else {
            on_time as f64 / requests.len() as f64
        },
    };
    if let Some(rep) = report.as_mut() {
        rep.serving = Some(serving.clone());
    }
    Ok(ServeOutcome {
        completions,
        batches,
        fault_log,
        report,
        serving,
    })
}

/// Serving knobs for the emulator-backed [`serve`] loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeConfig {
    /// Emulator knobs (jitter, seed, capacity; `iterations` is
    /// forced to 1 — a serving attempt is one pass of the schedule).
    pub emulator: EmulatorConfig,
    /// How queued requests fold into micro-batches.
    pub batch: BatchPolicy,
    /// Retry/backoff for stranded micro-batches.
    pub retry: RetryPolicy,
}

/// Serves `requests` through forward-only pipelines built by `build` (a
/// closure from micro-batch count to schedule — retry attempts run fewer
/// micros), under `plan`'s injected faults. Each failed attempt consumes
/// the plan's armed follow-ups exactly like [`crate::run_with_recovery`],
/// so cascading fault plans behave identically in training and serving.
pub fn serve(
    mut build: impl FnMut(u32) -> Schedule,
    cost: &dyn CostModel,
    cfg: &ServeConfig,
    plan: &FaultPlan,
    requests: &[Request],
) -> Result<ServeOutcome, EmuError> {
    let mut active = plan.clone();
    let mut last_attempt = 0;
    serve_with(
        requests,
        cfg.batch,
        cfg.retry,
        |micros, release, attempt| {
            if attempt > last_attempt {
                // The faulted component was replaced; a cascading plan may
                // have armed a follow-up for this attempt.
                active = active.take_armed();
                last_attempt = attempt;
            }
            let schedule = build(micros);
            let board = ServeBoard::new(micros);
            let run_cfg = EmulatorConfig {
                iterations: 1,
                ..cfg.emulator
            };
            let opts = RunOptions {
                serving: Some(ServingHooks {
                    release,
                    board: &board,
                }),
                ..RunOptions::new(&active)
            };
            let res = run_with(&schedule, cost, run_cfg, &opts);
            (res, board.completions())
        },
        |e| match e {
            EmuError::Fault(r) => Some((**r).clone()),
            _ => None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;
    use mario_ir::DeviceId;

    fn req(id: u32, arrival: Nanos, deadline: Nanos) -> Request {
        Request {
            id,
            arrival_ns: arrival,
            deadline_ns: deadline,
        }
    }

    fn fault_at(vtime: Nanos) -> FaultReport {
        FaultReport {
            fault: FaultKind::Crash {
                device: DeviceId(0),
                pc: 0,
            },
            device: DeviceId(0),
            pc: 0,
            instr: String::new(),
            blocked_peer: None,
            vtime,
            iteration: 0,
            last_checkpoint: 0,
            ckpt_paid_ns: 0,
            group: None,
            detail: String::new(),
        }
    }

    #[test]
    fn poisson_trace_is_deterministic_and_monotone() {
        let a = poisson_arrivals(7, 64, 1_000, 50_000);
        let b = poisson_arrivals(7, 64, 1_000, 50_000);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].arrival_ns <= w[1].arrival_ns);
        }
        assert_ne!(a, poisson_arrivals(8, 64, 1_000, 50_000));
        for r in &a {
            assert_eq!(r.deadline_ns, r.arrival_ns + 50_000);
        }
    }

    #[test]
    fn batches_close_on_count_or_timeout() {
        let policy = BatchPolicy {
            max_batch: 2,
            max_wait_ns: 100,
        };
        // r0+r1 fill a batch (released at r1's arrival); r2 times out
        // alone (released at open + wait); r3+r4 fill again.
        let rs = [
            req(0, 0, 1_000),
            req(1, 50, 1_000),
            req(2, 500, 1_000),
            req(3, 2_000, 9_000),
            req(4, 2_010, 9_000),
        ];
        let batches = form_batches(&rs, policy);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].members, vec![0, 1]);
        assert_eq!(batches[0].release_ns, 50);
        assert_eq!(batches[1].members, vec![2]);
        assert_eq!(batches[1].release_ns, 600);
        assert_eq!(batches[2].members, vec![3, 4]);
        assert_eq!(batches[2].release_ns, 2_010);
    }

    #[test]
    fn board_keeps_partial_completions() {
        let board = ServeBoard::new(3);
        board.record(MicroId(1), 500);
        board.record(MicroId(1), 900); // later pass loses
        assert_eq!(board.completions(), vec![None, Some(500), None]);
    }

    #[test]
    fn serve_with_retries_stranded_batches_with_backoff() {
        let rs = [req(0, 0, 100_000), req(1, 10, 100_000)];
        let policy = BatchPolicy {
            max_batch: 1,
            max_wait_ns: 0,
        };
        let retry = RetryPolicy {
            max_retries: 2,
            backoff_ns: 1_000,
            drop_missed: false,
        };
        let mut calls: Vec<(u32, Vec<Nanos>)> = Vec::new();
        let out = serve_with(
            &rs,
            policy,
            retry,
            |micros, release, attempt| {
                calls.push((micros, release.to_vec()));
                if attempt == 0 {
                    // Micro 0 drains past the sentinel; micro 1 is stranded.
                    (Err(fault_at(5_000)), vec![Some(3_000), None])
                } else {
                    // Retry completes the one stranded micro.
                    (
                        Ok(RunReport::default()),
                        vec![Some(release[0] + 500)],
                    )
                }
            },
            |e: &FaultReport| Some(e.clone()),
        )
        .unwrap();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].0, 2);
        // Retry gates at fault vtime + backoff.
        assert_eq!(calls[1].0, 1);
        assert_eq!(calls[1].1, vec![6_000]);
        assert_eq!(out.completions, vec![Some(3_000), Some(6_500)]);
        assert_eq!(out.serving.retries, 1);
        assert_eq!(out.serving.attempts, 2);
        assert_eq!(out.serving.completed, 2);
        assert_eq!(out.serving.failed, 0);
        assert_eq!(out.fault_log.len(), 1);
    }

    #[test]
    fn serve_with_abandons_past_retry_budget() {
        let rs = [req(0, 0, 1_000)];
        let retry = RetryPolicy {
            max_retries: 1,
            backoff_ns: 100,
            drop_missed: false,
        };
        let out = serve_with(
            &rs,
            BatchPolicy::default(),
            retry,
            |_, _, _| (Err::<RunReport, _>(fault_at(50)), vec![None]),
            |e: &FaultReport| Some(e.clone()),
        )
        .unwrap();
        assert_eq!(out.completions, vec![None]);
        assert_eq!(out.serving.failed, 1);
        assert_eq!(out.serving.completed, 0);
        assert_eq!(out.fault_log.len(), 2); // initial + one retry
        assert!(out.report.is_none());
    }

    #[test]
    fn drop_missed_abandons_hopeless_batches() {
        // Deadline at 1_000, fault at 10_000: a retry cannot make it.
        let rs = [req(0, 0, 1_000)];
        let retry = RetryPolicy {
            max_retries: 5,
            backoff_ns: 100,
            drop_missed: true,
        };
        let mut attempts = 0;
        let out = serve_with(
            &rs,
            BatchPolicy::default(),
            retry,
            |_, _, _| {
                attempts += 1;
                (Err::<RunReport, _>(fault_at(10_000)), vec![None])
            },
            |e: &FaultReport| Some(e.clone()),
        )
        .unwrap();
        assert_eq!(attempts, 1, "hopeless batch must not be retried");
        assert_eq!(out.serving.failed, 1);
        assert_eq!(out.serving.retries, 0);
    }

    #[test]
    fn telemetry_digest_counts_misses_and_percentiles() {
        let rs = [
            req(0, 0, 1_000),
            req(1, 0, 1_000),
            req(2, 0, 500),
        ];
        let policy = BatchPolicy {
            max_batch: 1,
            max_wait_ns: 0,
        };
        let out = serve_with(
            &rs,
            policy,
            RetryPolicy::default(),
            |micros, _, _| {
                (
                    Ok(RunReport::default()),
                    (0..micros).map(|m| Some(600 + m as u64 * 100)).collect(),
                )
            },
            |e: &FaultReport| Some(e.clone()),
        )
        .unwrap();
        assert_eq!(out.serving.completed, 3);
        assert_eq!(out.serving.deadline_misses, 1); // r2 done at 800 > 500
        assert_eq!(out.serving.p50_ns, 700);
        assert_eq!(out.serving.max_ns, 800);
        assert_eq!(out.serving.makespan_ns, 800);
        assert!((out.serving.slo_attainment - 2.0 / 3.0).abs() < 1e-9);
        // Digest is stamped onto the surviving report.
        assert_eq!(out.report.unwrap().serving.unwrap(), out.serving);
    }
}
