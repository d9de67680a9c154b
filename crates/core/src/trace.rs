//! Chrome-trace export: serialize a span graph — the DP simulator's or
//! the emulator's — to the Trace Event Format consumed by
//! `chrome://tracing` / Perfetto, giving an interactive alternative to the
//! ASCII/SVG Gantt charts. Every exporter takes the [`SpanGraph`] and the
//! schedule it executed, and names each span through the schedule.
//!
//! Three tiers of export:
//!
//! * [`chrome_trace`] — slices grouped into one process per pipeline
//!   *part* (the part each instruction acts on, so Chimera's up and down
//!   pipelines land in separate process groups),
//!   with `process_name`/`thread_name` metadata;
//! * [`chrome_trace_rich`] — additionally emits flow arrows connecting
//!   every send slice to its matching recv slice, per-device live-memory
//!   counter tracks (replayed through the shared `MemoryRules` ledger),
//!   per-link queue-depth counter tracks, and schedule-aware thread names
//!   (`device N · stage S`);
//! * [`chrome_trace_annotated`] — the rich export with causal overlays:
//!   critical-path and slack annotations, and serving completion markers.
//!
//! The writer is self-contained (no JSON dependency): the event fields are
//! numbers plus instruction names from our own compact notation, so the
//! only escaping required is for the quote/backslash/control classes.

use crate::critpath::CritReport;
use crate::simulator::memory_series;
use mario_ir::{
    CostModel, DeviceId, Dir, Instr, InstrKind, Nanos, OpSpan, PartId, Schedule, SpanGraph,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The synthetic process id counter tracks are parented under, so memory
/// and link-depth series render as one "counters" group instead of being
/// interleaved with the per-part slice tracks.
pub const COUNTER_PID: u32 = 9999;

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// The trace category of an instruction; `other` for collectives and
/// checkpoint writes (`None`).
fn category(instr: Option<Instr>) -> &'static str {
    match instr.map(|i| i.kind) {
        Some(InstrKind::Forward { ckpt: true }) => "ckpt-forward",
        Some(InstrKind::Forward { ckpt: false }) => "forward",
        Some(InstrKind::BackwardInput) => "backward-input",
        Some(InstrKind::BackwardWeight) => "backward-weight",
        Some(InstrKind::Backward) => "backward",
        Some(InstrKind::RecvAct { .. } | InstrKind::RecvGrad { .. }) => "recv",
        Some(InstrKind::Recompute) => "recompute",
        Some(InstrKind::SendAct { .. } | InstrKind::SendGrad { .. }) => "send",
        _ => "other",
    }
}

/// Incremental Trace Event Format writer.
struct Writer {
    out: String,
    first: bool,
}

impl Writer {
    fn new() -> Self {
        Self {
            out: String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["),
            first: true,
        }
    }

    fn open(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
    }

    /// A slice in its part's process and its device's thread, with
    /// optional causal annotation: `Some((on_path, slack))` stamps
    /// `args.cp` / `args.slack_ns`, and critical-path slices get a
    /// reserved color name so the path pops visually in the viewer.
    fn slice_annotated(&mut self, s: &Slice, annot: Option<(bool, Nanos)>) {
        let (pid, tid, span) = (s.pid(), s.span.device.0, s.span);
        self.open();
        self.out
            .push_str(&format!("{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\""));
        escape(&s.name, &mut self.out);
        self.out.push_str("\",\"cat\":\"");
        self.out.push_str(category(s.instr));
        self.out.push_str(&format!(
            "\",\"ts\":{:.3},\"dur\":{:.3}",
            span.start as f64 / 1e3,
            (span.end - span.start) as f64 / 1e3
        ));
        if let Some((cp, slack)) = annot {
            if cp {
                self.out.push_str(",\"cname\":\"terrible\"");
            }
            self.out.push_str(&format!(
                ",\"args\":{{\"cp\":{cp},\"slack_ns\":{slack}}}"
            ));
        }
        self.out.push('}');
    }

    /// An instant marker (`ph: i`), e.g. a serving completion.
    fn instant(&mut self, pid: u32, tid: u32, name: &str, ts: Nanos) {
        self.open();
        self.out
            .push_str(&format!("{{\"ph\":\"i\",\"s\":\"g\",\"pid\":{pid},\"tid\":{tid},\"name\":\""));
        escape(name, &mut self.out);
        self.out.push_str(&format!(
            "\",\"cat\":\"serving\",\"ts\":{:.3}}}",
            ts as f64 / 1e3
        ));
    }

    /// `M`-phase metadata: names a process (`tid: None`) or a thread.
    fn metadata(&mut self, pid: u32, tid: Option<u32>, kind: &str, name: &str) {
        self.open();
        self.out.push_str(&format!("{{\"ph\":\"M\",\"pid\":{pid}"));
        if let Some(tid) = tid {
            self.out.push_str(&format!(",\"tid\":{tid}"));
        }
        self.out.push_str(&format!(",\"name\":\"{kind}\",\"args\":{{\"name\":\""));
        escape(name, &mut self.out);
        self.out.push_str("\"}}");
    }

    fn counter(&mut self, pid: u32, name: &str, ts: Nanos, series: &str, value: u64) {
        self.open();
        self.out.push_str(&format!("{{\"ph\":\"C\",\"pid\":{pid},\"name\":\""));
        escape(name, &mut self.out);
        self.out.push_str(&format!(
            "\",\"ts\":{:.3},\"args\":{{\"{series}\":{value}}}}}",
            ts as f64 / 1e3
        ));
    }

    /// A flow arrow `s`/`f` pair binding a send slice to its recv slice.
    fn flow(&mut self, id: u64, from: (u32, u32, Nanos), to: (u32, u32, Nanos)) {
        self.open();
        self.out.push_str(&format!(
            "{{\"ph\":\"s\",\"id\":{id},\"pid\":{},\"tid\":{},\"ts\":{:.3},\"name\":\"xfer\",\"cat\":\"flow\"}}",
            from.0,
            from.1,
            from.2 as f64 / 1e3
        ));
        self.open();
        self.out.push_str(&format!(
            "{{\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"pid\":{},\"tid\":{},\"ts\":{:.3},\"name\":\"xfer\",\"cat\":\"flow\"}}",
            to.0,
            to.1,
            to.2 as f64 / 1e3
        ));
    }

    fn finish(mut self) -> String {
        self.out.push_str("]}");
        self.out
    }
}

/// The instruction `span` executed, looked up through the schedule; None
/// for a checkpoint write.
pub(crate) fn span_instr(schedule: &Schedule, span: &OpSpan) -> Option<Instr> {
    if span.is_ckpt() {
        return None;
    }
    schedule.program(span.device).get(span.pc as usize).copied()
}

/// One trace slice: a span, its index in its device's span list (the
/// index a [`CritReport`] uses), the instruction it executed (None for a
/// checkpoint write) and its display name.
struct Slice<'a> {
    span: &'a OpSpan,
    idx: usize,
    instr: Option<Instr>,
    name: String,
}

impl Slice<'_> {
    /// The pipeline part the slice acts on, used as the Perfetto process
    /// id so each part renders as its own group. Part-free slices (`AR`,
    /// `OS`, `CKPT`) land in part 0.
    fn pid(&self) -> u32 {
        match self.instr {
            Some(i) if !matches!(i.kind, InstrKind::AllReduce | InstrKind::OptimizerStep) => {
                i.part.0
            }
            _ => 0,
        }
    }
}

/// Every span in timeline order — stably sorted by `(start, device)`, so
/// each device's spans stay in program order — named through the
/// schedule (`CKPT` for checkpoint writes).
fn slices<'a>(spans: &'a SpanGraph, schedule: &Schedule) -> Vec<Slice<'a>> {
    let mut all: Vec<Slice<'a>> = spans
        .per_device
        .iter()
        .flat_map(|ops| ops.iter().enumerate())
        .map(|(idx, span)| {
            let instr = span_instr(schedule, span);
            Slice {
                span,
                idx,
                instr,
                name: instr.map_or_else(|| "CKPT".to_string(), |i| i.to_string()),
            }
        })
        .collect();
    all.sort_by_key(|s| (s.span.start, s.span.device.0));
    all
}

/// Emits slices plus the process/thread naming metadata. Thread names come
/// from `thread_name(part, device)`; with a `report`, every slice carries
/// its critical-path annotation.
fn write_slices(
    w: &mut Writer,
    slices: &[Slice],
    thread_name: impl Fn(u32, u32) -> String,
    report: Option<&CritReport>,
) {
    // (part → devices) seen, for the metadata pass.
    let mut groups: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for s in slices {
        let (pid, device) = (s.pid(), s.span.device);
        groups.entry(pid).or_default().insert(device.0);
        let annot =
            report.map(|r| (r.on_path[device.index()][s.idx], r.slack[device.index()][s.idx]));
        w.slice_annotated(s, annot);
    }
    for (pid, devices) in groups {
        w.metadata(pid, None, "process_name", &format!("pipeline part {pid}"));
        for d in devices {
            w.metadata(pid, Some(d), "thread_name", &thread_name(pid, d));
        }
    }
}

/// Renders `spans` as a Chrome Trace Event Format JSON document
/// (`displayTimeUnit: ns`; durations are emitted in microseconds as the
/// format requires). Slices are grouped into one process per pipeline
/// part — Chimera's two pipelines get separate groups — and every
/// process/thread carries naming metadata.
pub fn chrome_trace(spans: &SpanGraph, schedule: &Schedule) -> String {
    let mut w = Writer::new();
    write_slices(&mut w, &slices(spans, schedule), |_, d| format!("device {d}"), None);
    w.finish()
}

/// The enriched export: slices and naming metadata (threads are
/// `device N · stage S`, the stage resolved through the schedule's
/// virtual-pipeline topology), flow arrows binding each send to the recv
/// that consumes its payload (the `k`-th receive on a recorded link with
/// its `k`-th send, so multi-iteration timelines pair correctly), a
/// live-memory counter track per device (the schedule replayed through
/// the shared `MemoryRules` ledger — the same arithmetic both executors
/// charge), and a queue-depth counter track per directed device pair (+1
/// when a send completes, −1 when the matching recv drains it). Counter
/// tracks live under the synthetic [`COUNTER_PID`] process.
///
/// Memory counters replay the fault-free program, so on a faulted
/// emulator run they describe the schedule's intended footprint, not the
/// truncated run.
pub fn chrome_trace_rich(spans: &SpanGraph, schedule: &Schedule, cost: &dyn CostModel) -> String {
    rich(spans, schedule, cost, None, &[])
}

/// [`chrome_trace_rich`] with causal overlays.
///
/// * `report` — the [`CritReport`] of `spans`: every slice gets `args.cp`
///   (on the critical path?) and `args.slack_ns` (how much it could slow
///   before the makespan moves), and critical-path slices get a distinct
///   reserved color.
/// * `completions` — serving completion times per micro-batch (a serving
///   run's `SimTimeline::completions` or ServeBoard record; empty for
///   none): each lands as a global instant marker at the moment the last
///   stage finished that micro.
pub fn chrome_trace_annotated(
    spans: &SpanGraph,
    schedule: &Schedule,
    cost: &dyn CostModel,
    report: &CritReport,
    completions: &[Option<Nanos>],
) -> String {
    rich(spans, schedule, cost, Some(report), completions)
}

fn rich(
    spans: &SpanGraph,
    schedule: &Schedule,
    cost: &dyn CostModel,
    report: Option<&CritReport>,
    completions: &[Option<Nanos>],
) -> String {
    let topo = &schedule.topology;
    let slices = slices(spans, schedule);
    let mut w = Writer::new();
    write_slices(
        &mut w,
        &slices,
        |p, d| {
            format!(
                "device {d} · stage {}",
                topo.stage_of(DeviceId(d), PartId(p)).0
            )
        },
        report,
    );
    // Serving completion markers: one instant per finished micro-batch.
    for (m, t) in completions.iter().enumerate() {
        if let Some(t) = t {
            w.instant(0, 0, &format!("serve: micro {m} done"), *t);
        }
    }

    // Flow arrows: the k-th recv on a link drains its k-th send. An `s`
    // event anchors at the send slice start and the matching `f` at the
    // recv slice end, so the arrow spans the whole transfer even when
    // backpressure stretches the send.
    // Two passes because the slices are start-ordered and a recv slice can
    // *start* (begin waiting) before its send slice does: first queue every
    // send on its link, then pair recvs in order — each side of a link
    // runs on one device, so array order is program order.
    let mut sends: Vec<VecDeque<&Slice>> = vec![VecDeque::new(); spans.links.len()];
    let mut next_id = 0u64;
    // Queue-depth deltas per directed pair: +1 at send end, −1 at recv end.
    let mut depth: BTreeMap<(u32, u32), Vec<(Nanos, i64)>> = BTreeMap::new();
    let mut delta = |k: usize, at: Nanos, by: i64| {
        let (src, dst) = spans.links[k];
        depth.entry((src.0, dst.0)).or_default().push((at, by));
    };
    for s in &slices {
        if let Some((Dir::Send, k)) = s.span.link.get() {
            sends[k].push_back(s);
            delta(k, s.span.end, 1);
        }
    }
    for r in &slices {
        if let Some((Dir::Recv, k)) = r.span.link.get() {
            if let Some(send) = sends[k].pop_front() {
                w.flow(
                    next_id,
                    (send.pid(), send.span.device.0, send.span.start),
                    (r.pid(), r.span.device.0, r.span.end),
                );
                next_id += 1;
            }
            delta(k, r.span.end, -1);
        }
    }

    // Live-memory counters: each device's non-checkpoint slices follow its
    // program order, so the per-instruction ledger series maps onto slice
    // end times (cycled per iteration for multi-iteration runs).
    w.metadata(COUNTER_PID, None, "process_name", "counters");
    for series in memory_series(schedule, cost) {
        let d = series.device;
        if series.points.is_empty() {
            continue;
        }
        let name = format!("mem d{}", d.0);
        let mut i = 0usize;
        for s in slices.iter().filter(|s| s.span.device == d && s.instr.is_some()) {
            w.counter(COUNTER_PID, &name, s.span.end, "bytes", series.points[i].1);
            i = (i + 1) % series.points.len();
        }
    }

    // Link queue-depth counters: accumulate the deltas in time order (a
    // drain at the same instant applies before a fill, keeping the series
    // at its minimal envelope).
    for ((src, dst), mut deltas) in depth {
        deltas.sort_by_key(|&(ts, delta)| (ts, delta));
        let name = format!("link d{src}\u{2192}d{dst}");
        let mut level = 0i64;
        for (ts, delta) in deltas {
            level += delta;
            w.counter(COUNTER_PID, &name, ts, "packets", level.max(0) as u64);
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{simulate, simulate_timeline, SimOptions, SimTimeline};
    use mario_ir::{SchemeKind, UnitCost};
    use mario_schedules::{generate, ScheduleConfig};

    fn trace() -> String {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 3));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        chrome_trace(&t.spans, &s)
    }

    #[test]
    fn emits_one_event_per_instruction() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 3));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        let json = chrome_trace(&t.spans, &s);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), s.total_instrs());
    }

    #[test]
    fn sim_trace_pins_1f1b_2x2() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 2, 2));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        assert_eq!(
            chrome_trace(&t.spans, &s),
            concat!(
                r#"{"displayTimeUnit":"ns","traceEvents":["#,
                r#"{"ph":"X","pid":0,"tid":0,"name":"F0^0","cat":"forward","ts":0.000,"dur":1.000},"#,
                r#"{"ph":"X","pid":0,"tid":1,"name":"RA0^0<d0","cat":"recv","ts":0.000,"dur":1.000},"#,
                r#"{"ph":"X","pid":0,"tid":0,"name":"SA0^0>d1","cat":"send","ts":1.000,"dur":0.000},"#,
                r#"{"ph":"X","pid":0,"tid":0,"name":"F1^0","cat":"forward","ts":1.000,"dur":1.000},"#,
                r#"{"ph":"X","pid":0,"tid":1,"name":"F0^0","cat":"forward","ts":1.000,"dur":1.000},"#,
                r#"{"ph":"X","pid":0,"tid":0,"name":"SA1^0>d1","cat":"send","ts":2.000,"dur":0.000},"#,
                r#"{"ph":"X","pid":0,"tid":0,"name":"RG0^0<d1","cat":"recv","ts":2.000,"dur":2.000},"#,
                r#"{"ph":"X","pid":0,"tid":1,"name":"B0^0","cat":"backward","ts":2.000,"dur":2.000},"#,
                r#"{"ph":"X","pid":0,"tid":0,"name":"B0^0","cat":"backward","ts":4.000,"dur":2.000},"#,
                r#"{"ph":"X","pid":0,"tid":1,"name":"SG0^0>d0","cat":"send","ts":4.000,"dur":0.000},"#,
                r#"{"ph":"X","pid":0,"tid":1,"name":"RA1^0<d0","cat":"recv","ts":4.000,"dur":0.000},"#,
                r#"{"ph":"X","pid":0,"tid":1,"name":"F1^0","cat":"forward","ts":4.000,"dur":1.000},"#,
                r#"{"ph":"X","pid":0,"tid":1,"name":"B1^0","cat":"backward","ts":5.000,"dur":2.000},"#,
                r#"{"ph":"X","pid":0,"tid":0,"name":"RG1^0<d1","cat":"recv","ts":6.000,"dur":1.000},"#,
                r#"{"ph":"X","pid":0,"tid":0,"name":"B1^0","cat":"backward","ts":7.000,"dur":2.000},"#,
                r#"{"ph":"X","pid":0,"tid":1,"name":"SG1^0>d0","cat":"send","ts":7.000,"dur":0.000},"#,
                r#"{"ph":"X","pid":0,"tid":1,"name":"OS","cat":"other","ts":7.000,"dur":0.000},"#,
                r#"{"ph":"X","pid":0,"tid":0,"name":"OS","cat":"other","ts":9.000,"dur":0.000},"#,
                r#"{"ph":"M","pid":0,"name":"process_name","args":{"name":"pipeline part 0"}},"#,
                r#"{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"device 0"}},"#,
                r#"{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"device 1"}}"#,
                r#"]}"#,
            )
        );
    }

    #[test]
    fn document_is_structurally_sound() {
        let json = trace();
        assert!(json.starts_with('{') && json.ends_with('}'));
        // Balanced braces/brackets (no nesting surprises in our writer).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"cat\":\"forward\""));
        assert!(json.contains("\"cat\":\"backward\""));
    }

    #[test]
    fn escaping_handles_hostile_names() {
        let mut json = String::new();
        escape("we\"ird\\na\nme", &mut json);
        assert_eq!(json, "we\\\"ird\\\\na\\u000ame");
    }

    #[test]
    fn categories_cover_every_kind() {
        let d1 = DeviceId(1);
        for (instr, cat) in [
            (Some(Instr::forward(0u32, 0u32)), "forward"),
            (Some(Instr::ckpt_forward(0u32, 0u32)), "ckpt-forward"),
            (Some(Instr::backward(0u32, 0u32)), "backward"),
            (Some(Instr::backward_input(0u32, 0u32)), "backward-input"),
            (Some(Instr::backward_weight(0u32, 0u32)), "backward-weight"),
            (Some(Instr::recompute(0u32, 0u32)), "recompute"),
            (Some(Instr::send_act(0u32, 0u32, d1)), "send"),
            (Some(Instr::send_grad(0u32, 0u32, d1)), "send"),
            (Some(Instr::recv_act(0u32, 0u32, d1)), "recv"),
            (Some(Instr::recv_grad(0u32, 0u32, d1)), "recv"),
            (Some(Instr::all_reduce()), "other"),
            (Some(Instr::optimizer_step()), "other"),
            (None, "other"),
        ] {
            assert_eq!(category(instr), cat, "{instr:?}");
        }
    }

    #[test]
    fn emulator_timeline_exports_too() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 2, 2));
        let r = mario_cluster::run(
            &s,
            &UnitCost::paper_grid(),
            mario_cluster::EmulatorConfig {
                record_spans: true,
                ..Default::default()
            },
        )
        .unwrap();
        let json = chrome_trace(r.spans.as_ref().unwrap(), &s);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), s.total_instrs());
    }

    /// FNV-1a over the rendered bytes: pins a long document compactly.
    fn digest(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn emu_traces_pin_checkpointed_chimera_2x2() {
        use mario_cluster::EmulatorConfig;
        use mario_ir::{CheckpointPolicy, ShardedWrite};
        let s = generate(ScheduleConfig::new(SchemeKind::Chimera, 2, 2));
        let cost = UnitCost::paper_grid().with_shard_bytes(60_000);
        let cfg = EmulatorConfig {
            channel_capacity: 2,
            iterations: 2,
            checkpoint: Some(
                CheckpointPolicy::every(1)
                    .with_sharded(ShardedWrite::new(2_000, 500).with_async_overlap()),
            ),
            record_spans: true,
            ..Default::default()
        };
        let r = mario_cluster::run(&s, &cost, cfg).unwrap();
        let spans = r.spans.expect("spans recorded");
        let plain = chrome_trace(&spans, &s);
        let rich = chrome_trace_rich(&spans, &s, &cost);
        assert!(plain.contains("\"name\":\"CKPT\""));
        assert_eq!(
            (plain.len(), digest(&plain)),
            (3862, 0xfc39_9961_2e7f_0f12),
            "plain trace"
        );
        assert_eq!(
            (rich.len(), digest(&rich)),
            (8883, 0xe70a_d613_7f54_e525),
            "rich trace"
        );
    }

    /// The checkpointed DP run the pins below render: Chimera 2×2 at
    /// capacity 2, two iterations, sharded async writes, so CKPT slices
    /// and both pipeline parts appear.
    fn ckpt_chimera_2x2() -> (Schedule, UnitCost, SimTimeline) {
        use mario_ir::{CheckpointPolicy, ShardedWrite};
        let s = generate(ScheduleConfig::new(SchemeKind::Chimera, 2, 2));
        let cost = UnitCost::paper_grid().with_shard_bytes(60_000);
        let opts = SimOptions {
            channel_capacity: 2,
            iterations: 2,
            checkpoint: Some(
                CheckpointPolicy::every(1)
                    .with_sharded(ShardedWrite::new(2_000, 500).with_async_overlap()),
            ),
            ..SimOptions::default()
        };
        let t = simulate(&s, &cost, &opts).unwrap();
        (s, cost, t)
    }

    #[test]
    fn sim_traces_pin_checkpointed_chimera_2x2() {
        let (s, cost, t) = ckpt_chimera_2x2();
        let plain = chrome_trace(&t.spans, &s);
        let rich = chrome_trace_rich(&t.spans, &s, &cost);
        let report = crate::critpath::analyze(&s, &t.spans);
        let annotated = chrome_trace_annotated(&t.spans, &s, &cost, &report, &t.completions);
        assert!(plain.contains("\"name\":\"CKPT\""));
        assert!(plain.contains("pipeline part 1"));
        for (what, doc, pin) in [
            ("plain", &plain, (3862usize, 0xfc39_9961_2e7f_0f12u64)),
            ("rich", &rich, (8883, 0xe70a_d613_7f54_e525)),
            ("annotated", &annotated, (10647, 0x13b9_b232_5150_1a25)),
        ] {
            assert_eq!((doc.len(), digest(doc)), pin, "{what} trace");
        }
    }

    /// The one exporter renders the DP run and a zero-jitter event-backend
    /// run of the same schedule to the same bytes.
    #[test]
    fn dp_and_event_backend_traces_are_byte_identical() {
        use mario_cluster::EmulatorConfig;
        let (s, cost, t) = ckpt_chimera_2x2();
        let cfg = EmulatorConfig {
            channel_capacity: 2,
            iterations: 2,
            checkpoint: Some(
                mario_ir::CheckpointPolicy::every(1).with_sharded(
                    mario_ir::ShardedWrite::new(2_000, 500).with_async_overlap(),
                ),
            ),
            record_spans: true,
            ..Default::default()
        };
        let r = mario_cluster::run(&s, &cost, cfg).unwrap();
        let spans = r.spans.expect("spans recorded");
        assert_eq!(chrome_trace(&spans, &s), chrome_trace(&t.spans, &s));
        assert_eq!(
            chrome_trace_rich(&spans, &s, &cost),
            chrome_trace_rich(&t.spans, &s, &cost)
        );
    }

    #[test]
    fn annotated_serving_trace_pins_forward_only() {
        let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, 3, 3));
        let cost = UnitCost::paper_grid();
        let opts = SimOptions {
            release: Some(&[0, 5_000, 9_000]),
            ..SimOptions::default()
        };
        let t = simulate(&s, &cost, &opts).unwrap();
        let report = crate::critpath::analyze(&s, &t.spans);
        let json = chrome_trace_annotated(&t.spans, &s, &cost, &report, &t.completions);
        assert_eq!((json.len(), digest(&json)), (6620, 0xf36f_fa94_be50_b08c));
    }

    #[test]
    fn metadata_names_every_process_and_thread() {
        let json = trace();
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("pipeline part 0"));
        assert!(json.contains("device 0"));
        // 1F1B has a single part, so a single process group.
        assert!(!json.contains("pipeline part 1"));
    }

    #[test]
    fn chimera_parts_get_separate_process_groups() {
        let s = generate(ScheduleConfig::new(SchemeKind::Chimera, 2, 2));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 2).unwrap();
        let json = chrome_trace(&t.spans, &s);
        // Both pipelines present, each with its own named process.
        assert!(json.contains("pipeline part 0"));
        assert!(json.contains("pipeline part 1"));
        assert!(json.contains("\"pid\":1,"));
    }

    #[test]
    fn rich_trace_pairs_every_transfer_with_a_flow_arrow() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 3));
        let cost = UnitCost::paper_grid();
        let t = simulate_timeline(&s, &cost, 1).unwrap();
        let json = chrome_trace_rich(&t.spans, &s, &cost);
        let sends = t
            .spans
            .per_device
            .iter()
            .flatten()
            .filter(|sp| span_instr(&s, sp).is_some_and(|i| i.kind.is_send()))
            .count();
        assert!(sends > 0);
        assert_eq!(json.matches("\"ph\":\"s\"").count(), sends);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), sends);
        // Schedule-aware thread names and both counter families present.
        assert!(json.contains("device 0 · stage 0"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("mem d0"));
        assert!(json.contains("link d0\u{2192}d1"));
        assert!(json.contains("\"name\":\"counters\""));
        // Still structurally sound.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn rich_trace_covers_the_emulator_and_multi_part_schemes() {
        let s = generate(ScheduleConfig::new(SchemeKind::Chimera, 2, 2));
        let cost = UnitCost::paper_grid();
        let r = mario_cluster::run(
            &s,
            &cost,
            mario_cluster::EmulatorConfig {
                record_spans: true,
                channel_capacity: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let spans = r.spans.as_ref().unwrap();
        let json = chrome_trace_rich(spans, &s, &cost);
        // Chimera device 0 hosts stage 0 of part 0 and the last stage of
        // part 1 — the thread metadata reflects both.
        assert!(json.contains("device 0 · stage 0"));
        assert!(json.contains("pipeline part 1"));
        let sends = spans
            .per_device
            .iter()
            .flatten()
            .filter(|sp| s.program(sp.device).instrs()[sp.pc as usize].kind.is_send())
            .count();
        assert_eq!(json.matches("\"ph\":\"s\"").count(), sends);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), sends);
    }

    #[test]
    fn annotated_trace_marks_the_critical_path() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 4));
        let cost = UnitCost::paper_grid();
        let t = simulate_timeline(&s, &cost, 1).unwrap();
        let report = crate::critpath::analyze(&s, &t.spans);
        let json = chrome_trace_annotated(&t.spans, &s, &cost, &report, &t.completions);
        // Every instruction slice got an annotation, critical-path ones
        // carry the reserved color, and at least one off-path slice
        // reports nonzero slack.
        let slices = t.spans.len();
        assert_eq!(json.matches("\"cp\":").count(), slices);
        let on_path: usize = report
            .on_path
            .iter()
            .flatten()
            .filter(|&&on| on)
            .count();
        assert_eq!(json.matches("\"cname\":\"terrible\"").count(), on_path);
        assert!(json.contains("\"cp\":true"));
        assert!(json.matches("\"slack_ns\":0").count() >= on_path);
        // Structurally sound JSON with the overlay present.
        assert!(json.contains("\"slack_ns\":"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn annotated_trace_emits_serving_completion_markers() {
        let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, 3, 3));
        let cost = UnitCost::paper_grid();
        let opts = SimOptions {
            release: Some(&[0, 5_000, 9_000]),
            ..SimOptions::default()
        };
        let t = simulate(&s, &cost, &opts).unwrap();
        let report = crate::critpath::analyze(&s, &t.spans);
        let json = chrome_trace_annotated(&t.spans, &s, &cost, &report, &t.completions);
        let finished = t.completions.iter().filter(|c| c.is_some()).count();
        assert_eq!(finished, 3);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), finished);
        assert!(json.contains("serve: micro 0 done"));
        // The held releases surface as path bubbles in the report the
        // overlay was built from.
        assert!(report.breakdown.bubble_ns > 0);
    }
}
