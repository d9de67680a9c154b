//! Chrome-trace export: serialize a simulated or emulated timeline to the
//! Trace Event Format consumed by `chrome://tracing` / Perfetto, giving an
//! interactive alternative to the ASCII/SVG Gantt charts.
//!
//! Two tiers of export:
//!
//! * [`to_chrome_trace`] — slices grouped into one process per pipeline
//!   *part* (parsed from the `F0^1`-style instruction notation, so
//!   Chimera's up and down pipelines land in separate process groups),
//!   with `process_name`/`thread_name` metadata;
//! * [`rich_chrome_trace`] (and the [`sim_to_chrome_trace_rich`] /
//!   [`emu_to_chrome_trace_rich`] wrappers) — additionally emits flow
//!   arrows connecting every send slice to its matching recv slice,
//!   per-device live-memory counter tracks (replayed through the shared
//!   `MemoryRules` ledger), per-link queue-depth counter tracks, and
//!   schedule-aware thread names (`device N · stage S`).
//!
//! The writer is self-contained (no JSON dependency): the event fields are
//! numbers plus instruction names from our own compact notation, so the
//! only escaping required is for the quote/backslash/control classes.

use crate::critpath::CritReport;
use crate::simulator::{memory_series, SimEvent, SimTimeline};
use mario_ir::{CostModel, DeviceId, Nanos, OpSpan, PartId, Schedule, SpanGraph};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// One trace event, format-agnostic.
#[derive(Debug, Clone)]
pub struct TraceEvent<'a> {
    /// Row (device).
    pub device: u32,
    /// Display name.
    pub name: &'a str,
    /// Start, ns.
    pub start: Nanos,
    /// End, ns.
    pub end: Nanos,
}

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

fn category(name: &str) -> &'static str {
    if name.starts_with("cF") {
        "ckpt-forward"
    } else if name.starts_with('F') {
        "forward"
    } else if name.starts_with("Bi") {
        "backward-input"
    } else if name.starts_with("Bw") {
        "backward-weight"
    } else if name.starts_with('B') {
        "backward"
    } else if name.starts_with("RA") || name.starts_with("RG") {
        "recv"
    } else if name.starts_with('R') {
        "recompute"
    } else if name.starts_with("SA") || name.starts_with("SG") {
        "send"
    } else {
        "other"
    }
}

/// The pipeline part encoded in the instruction notation (`F3^1` → 1),
/// used as the Perfetto process id so each part renders as its own group.
/// Part-free instructions (`AR`, `OS`, `CKPT`) and foreign names fall back
/// to part 0.
fn part_of(name: &str) -> u32 {
    let Some(caret) = name.find('^') else {
        return 0;
    };
    let digits: String = name[caret + 1..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap_or(0)
}

/// Identity of one logical transfer: `(activation?, micro, part, src,
/// dst)`. A send and its matching recv parse to the same key; repeated
/// iterations repeat keys and are paired FIFO.
type XferKey = (bool, u32, u32, u32, u32);

fn xfer_key(device: u32, name: &str, send: bool) -> Option<XferKey> {
    let (prefix_act, prefix_grad, sep) = if send {
        ("SA", "SG", '>')
    } else {
        ("RA", "RG", '<')
    };
    let act = if name.starts_with(prefix_act) {
        true
    } else if name.starts_with(prefix_grad) {
        false
    } else {
        return None;
    };
    let (mp, peer) = name[2..].split_once(sep)?;
    let (m, p) = mp.split_once('^')?;
    let peer: u32 = peer.strip_prefix('d')?.parse().ok()?;
    let (m, p) = (m.parse().ok()?, p.parse().ok()?);
    Some(if send {
        (act, m, p, device, peer)
    } else {
        (act, m, p, peer, device)
    })
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

    /// A slice with optional causal annotation: `Some((on_path, slack))`
    /// stamps `args.cp` / `args.slack_ns`, and critical-path slices get a
    /// reserved color name so the path pops visually in the viewer.
    fn slice_annotated(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        start: Nanos,
        end: Nanos,
        annot: Option<(bool, Nanos)>,
    ) {
        self.open();
        self.out
            .push_str(&format!("{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\""));
        escape(name, &mut self.out);
        self.out.push_str("\",\"cat\":\"");
        self.out.push_str(category(name));
        self.out.push_str(&format!(
            "\",\"ts\":{:.3},\"dur\":{:.3}",
            start as f64 / 1e3,
            (end - start) as f64 / 1e3
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

/// Emits slices plus the process/thread naming metadata. Thread names come
/// from `thread_name(part, device)`.
fn write_slices<'a>(
    w: &mut Writer,
    events: &[TraceEvent<'a>],
    thread_name: impl Fn(u32, u32) -> String,
) {
    write_slices_annotated(w, events, thread_name, &[]);
}

/// [`write_slices`] with per-event causal annotations (parallel to
/// `events`; pass `&[]` for none).
fn write_slices_annotated<'a>(
    w: &mut Writer,
    events: &[TraceEvent<'a>],
    thread_name: impl Fn(u32, u32) -> String,
    annots: &[Option<(bool, Nanos)>],
) {
    // (part → devices) seen, for the metadata pass.
    let mut groups: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let pid = part_of(e.name);
        groups.entry(pid).or_default().insert(e.device);
        w.slice_annotated(
            pid,
            e.device,
            e.name,
            e.start,
            e.end,
            annots.get(i).copied().flatten(),
        );
    }
    for (pid, devices) in groups {
        w.metadata(pid, None, "process_name", &format!("pipeline part {pid}"));
        for d in devices {
            w.metadata(pid, Some(d), "thread_name", &thread_name(pid, d));
        }
    }
}

/// Renders events as a Chrome Trace Event Format JSON document
/// (`displayTimeUnit: ns`; durations are emitted in microseconds as the
/// format requires). Slices are grouped into one process per pipeline
/// part — Chimera's two pipelines get separate groups instead of the
/// historical constant `pid 0` — and every process/thread carries naming
/// metadata.
pub fn to_chrome_trace<'a>(events: impl IntoIterator<Item = TraceEvent<'a>>) -> String {
    let events: Vec<TraceEvent<'a>> = events.into_iter().collect();
    let mut w = Writer::new();
    write_slices(&mut w, &events, |_, d| format!("device {d}"));
    w.finish()
}

/// The enriched export: slices and naming metadata (threads are
/// `device N · stage S`, the stage resolved through the schedule's
/// virtual-pipeline topology), flow arrows binding each send to the recv
/// that consumes its payload (paired FIFO per logical transfer, so
/// multi-iteration timelines pair correctly), a live-memory counter track
/// per device (the schedule replayed through the shared `MemoryRules`
/// ledger — the same arithmetic both executors charge), and a queue-depth
/// counter track per directed link (+1 when a send completes, −1 when the
/// matching recv drains it). Counter tracks live under the synthetic
/// [`COUNTER_PID`] process.
///
/// Memory counters replay the fault-free program, so on a faulted
/// emulator timeline they describe the schedule's intended footprint, not
/// the truncated run.
pub fn rich_chrome_trace<'a>(
    events: &[TraceEvent<'a>],
    schedule: &Schedule,
    cost: &dyn CostModel,
) -> String {
    rich_chrome_trace_annotated(events, schedule, cost, None, None)
}

/// [`rich_chrome_trace`] with causal overlays.
///
/// * `crit` — the recorded span graph and its [`CritReport`]: every slice
///   that matches a recorded span gets `args.cp` (on the critical path?)
///   and `args.slack_ns` (how much it could slow before the makespan
///   moves), and critical-path slices get a distinct reserved color.
///   Slices are matched to spans by `(device, start, end)` extent, so the
///   overlay works on both the simulator's and the emulators' timelines.
/// * `completions` — serving completion times per micro-batch (the
///   ServeBoard record of a forward-only run): each lands as a global
///   instant marker at the moment the last stage finished that micro.
pub fn rich_chrome_trace_annotated<'a>(
    events: &[TraceEvent<'a>],
    schedule: &Schedule,
    cost: &dyn CostModel,
    crit: Option<(&SpanGraph, &CritReport)>,
    completions: Option<&[Option<Nanos>]>,
) -> String {
    let topo = &schedule.topology;
    let mut w = Writer::new();
    // Causal overlay: recorded spans keyed by extent, consumed FIFO so a
    // repeated (device, start, end) — e.g. zero-length boundary markers —
    // pairs in order.
    let annots: Vec<Option<(bool, Nanos)>> = match crit {
        Some((spans, report)) => {
            let mut by_extent: HashMap<(u32, Nanos, Nanos), VecDeque<(usize, usize)>> =
                HashMap::new();
            for (d, ops) in spans.per_device.iter().enumerate() {
                for (i, s) in ops.iter().enumerate() {
                    by_extent
                        .entry((s.device.0, s.start, s.end))
                        .or_default()
                        .push_back((d, i));
                }
            }
            events
                .iter()
                .map(|e| {
                    by_extent
                        .get_mut(&(e.device, e.start, e.end))
                        .and_then(VecDeque::pop_front)
                        .map(|(d, i)| (report.on_path[d][i], report.slack[d][i]))
                })
                .collect()
        }
        None => Vec::new(),
    };
    write_slices_annotated(
        &mut w,
        events,
        |p, d| {
            format!(
                "device {d} · stage {}",
                topo.stage_of(DeviceId(d), PartId(p)).0
            )
        },
        &annots,
    );
    // Serving completion markers: one instant per finished micro-batch.
    if let Some(done) = completions {
        for (m, t) in done.iter().enumerate() {
            if let Some(t) = t {
                w.instant(0, 0, &format!("serve: micro {m} done"), *t);
            }
        }
    }

    // Flow arrows: sends queue their slice under the transfer key, recvs
    // consume FIFO. An `s` event anchors at the send slice start and the
    // matching `f` at the recv slice end, so the arrow spans the whole
    // transfer even when backpressure stretches the send.
    // Two passes because the event stream is start-ordered and a recv
    // slice can *start* (begin waiting) before its send slice does: first
    // queue every send under its key, then pair recvs FIFO — per key both
    // sides come from a single device, so array order is program order.
    let mut pending: HashMap<XferKey, VecDeque<&TraceEvent<'a>>> = HashMap::new();
    let mut next_id = 0u64;
    // Queue-depth deltas per directed link: +1 at send end, −1 at recv end.
    let mut depth: BTreeMap<(u32, u32), Vec<(Nanos, i64)>> = BTreeMap::new();
    for e in events {
        if let Some(key) = xfer_key(e.device, e.name, true) {
            pending.entry(key).or_default().push_back(e);
            depth.entry((key.3, key.4)).or_default().push((e.end, 1));
        }
    }
    for e in events {
        if let Some(key) = xfer_key(e.device, e.name, false) {
            if let Some(send) = pending.get_mut(&key).and_then(VecDeque::pop_front) {
                w.flow(
                    next_id,
                    (part_of(send.name), send.device, send.start),
                    (part_of(e.name), e.device, e.end),
                );
                next_id += 1;
            }
            depth.entry((key.3, key.4)).or_default().push((e.end, -1));
        }
    }

    // Live-memory counters: each device's non-checkpoint events follow its
    // program order, so the per-instruction ledger series maps onto event
    // end times (cycled per iteration for multi-iteration timelines).
    w.metadata(COUNTER_PID, None, "process_name", "counters");
    for series in memory_series(schedule, cost) {
        let d = series.device;
        if series.points.is_empty() {
            continue;
        }
        let name = format!("mem d{}", d.0);
        let mut i = 0usize;
        for e in events.iter().filter(|e| e.device == d.0 && e.name != "CKPT") {
            w.counter(COUNTER_PID, &name, e.end, "bytes", series.points[i].1);
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

/// The simulated events' display names, rendered once per export: the
/// typed events carry no text.
fn sim_names(t: &SimTimeline) -> Vec<String> {
    t.events.iter().map(SimEvent::name).collect()
}

/// The simulated events as [`TraceEvent`]s borrowing their `names`.
fn sim_events<'a>(t: &SimTimeline, names: &'a [String]) -> Vec<TraceEvent<'a>> {
    t.events
        .iter()
        .zip(names)
        .map(|(e, name)| TraceEvent {
            device: e.device.0,
            name,
            start: e.start,
            end: e.end,
        })
        .collect()
}

/// Exports a simulated timeline.
pub fn sim_to_chrome_trace(t: &SimTimeline) -> String {
    let names = sim_names(t);
    to_chrome_trace(sim_events(t, &names))
}

/// An emulated run's spans in timeline order — stably sorted by
/// `(start, device)`, program order within a device — each named through
/// the schedule (`CKPT` for checkpoint writes).
fn emu_names(spans: &SpanGraph, schedule: &Schedule) -> Vec<(OpSpan, String)> {
    let mut named: Vec<(OpSpan, String)> = spans
        .per_device
        .iter()
        .flatten()
        .map(|s| {
            let name = match schedule.program(s.device).get(s.pc as usize) {
                Some(instr) if !s.is_ckpt() => instr.to_string(),
                _ => "CKPT".to_string(),
            };
            (*s, name)
        })
        .collect();
    named.sort_by_key(|(s, _)| (s.start, s.device.0));
    named
}

/// The named spans as [`TraceEvent`]s.
fn emu_events(named: &[(OpSpan, String)]) -> Vec<TraceEvent<'_>> {
    named
        .iter()
        .map(|(s, name)| TraceEvent {
            device: s.device.0,
            name,
            start: s.start,
            end: s.end,
        })
        .collect()
}

/// Exports an emulated run's span graph (requires `record_spans: true`)
/// over the schedule it executed.
pub fn emu_to_chrome_trace(spans: &SpanGraph, schedule: &Schedule) -> String {
    to_chrome_trace(emu_events(&emu_names(spans, schedule)))
}

/// Exports a simulated timeline with flow arrows, counter tracks and
/// schedule-aware thread names (see [`rich_chrome_trace`]).
pub fn sim_to_chrome_trace_rich(
    t: &SimTimeline,
    schedule: &Schedule,
    cost: &dyn CostModel,
) -> String {
    let names = sim_names(t);
    rich_chrome_trace(&sim_events(t, &names), schedule, cost)
}

/// Exports a simulated timeline with the causal overlay: everything
/// [`sim_to_chrome_trace_rich`] emits, plus per-slice `cp`/`slack_ns`
/// annotations from `report` (computed over `t.spans`) and, for serving
/// runs, per-micro completion markers.
pub fn sim_to_chrome_trace_annotated(
    t: &SimTimeline,
    schedule: &Schedule,
    cost: &dyn CostModel,
    report: &CritReport,
    completions: Option<&[Option<Nanos>]>,
) -> String {
    let names = sim_names(t);
    let events = sim_events(t, &names);
    rich_chrome_trace_annotated(&events, schedule, cost, Some((&t.spans, report)), completions)
}

/// Exports an emulated run's span graph with flow arrows, counter tracks
/// and schedule-aware thread names (requires `record_spans: true`; see
/// [`rich_chrome_trace`]).
pub fn emu_to_chrome_trace_rich(
    spans: &SpanGraph,
    schedule: &Schedule,
    cost: &dyn CostModel,
) -> String {
    rich_chrome_trace(&emu_events(&emu_names(spans, schedule)), schedule, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::simulate_timeline;
    use mario_ir::{SchemeKind, UnitCost};
    use mario_schedules::{generate, ScheduleConfig};

    fn trace() -> String {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 3));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        sim_to_chrome_trace(&t)
    }

    #[test]
    fn emits_one_event_per_instruction() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 3));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        let json = sim_to_chrome_trace(&t);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), s.total_instrs());
    }

    #[test]
    fn sim_trace_pins_1f1b_2x2() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 2, 2));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        assert_eq!(
            sim_to_chrome_trace(&t),
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
        let ev = [TraceEvent {
            device: 0,
            name: "we\"ird\\na\nme",
            start: 0,
            end: 1,
        }];
        let json = to_chrome_trace(ev);
        assert!(json.contains("we\\\"ird\\\\na\\u000ame"));
    }

    #[test]
    fn categories_cover_every_notation() {
        for (name, cat) in [
            ("F0^0", "forward"),
            ("cF0^0", "ckpt-forward"),
            ("B0^0", "backward"),
            ("Bi0^0", "backward-input"),
            ("Bw0^0", "backward-weight"),
            ("R0^0", "recompute"),
            ("SA0^0>d1", "send"),
            ("RG0^0<d1", "recv"),
            ("AR", "other"),
        ] {
            assert_eq!(category(name), cat, "{name}");
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
        let json = emu_to_chrome_trace(r.spans.as_ref().unwrap(), &s);
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
        use mario_cluster::{EmulatorBackend, EmulatorConfig};
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
        for backend in [EmulatorBackend::Thread, EmulatorBackend::Event] {
            let r = mario_cluster::run(&s, &cost, EmulatorConfig { backend, ..cfg }).unwrap();
            let spans = r.spans.expect("spans recorded");
            let plain = emu_to_chrome_trace(&spans, &s);
            let rich = emu_to_chrome_trace_rich(&spans, &s, &cost);
            assert!(plain.contains("\"name\":\"CKPT\""), "{backend:?}");
            assert_eq!(
                (plain.len(), digest(&plain)),
                (3862, 0xfc39_9961_2e7f_0f12),
                "{backend:?} plain trace"
            );
            assert_eq!(
                (rich.len(), digest(&rich)),
                (8883, 0xe70a_d613_7f54_e525),
                "{backend:?} rich trace"
            );
        }
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
        let json = sim_to_chrome_trace(&t);
        // Both pipelines present, each with its own named process.
        assert!(json.contains("pipeline part 0"));
        assert!(json.contains("pipeline part 1"));
        assert!(json.contains("\"pid\":1,"));
    }

    #[test]
    fn part_parsing_handles_every_notation() {
        assert_eq!(part_of("F3^1"), 1);
        assert_eq!(part_of("SA0^12>d1"), 12);
        assert_eq!(part_of("AR"), 0);
        assert_eq!(part_of("CKPT"), 0);
        assert_eq!(part_of("we^ird"), 0);
    }

    #[test]
    fn transfer_keys_pair_sends_with_recvs() {
        // d0 sends act (micro 0, part 1) to d2; d2 receives it.
        assert_eq!(xfer_key(0, "SA0^1>d2", true), Some((true, 0, 1, 0, 2)));
        assert_eq!(xfer_key(2, "RA0^1<d0", false), Some((true, 0, 1, 0, 2)));
        // Gradients pair too, and directions are distinct keys.
        assert_eq!(xfer_key(2, "SG0^0>d1", true), Some((false, 0, 0, 2, 1)));
        assert_eq!(xfer_key(1, "RG0^0<d2", false), Some((false, 0, 0, 2, 1)));
        // Non-transfers parse to nothing.
        assert_eq!(xfer_key(0, "F0^0", true), None);
        assert_eq!(xfer_key(0, "AR", false), None);
    }

    #[test]
    fn rich_trace_pairs_every_transfer_with_a_flow_arrow() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 3));
        let cost = UnitCost::paper_grid();
        let t = simulate_timeline(&s, &cost, 1).unwrap();
        let json = sim_to_chrome_trace_rich(&t, &s, &cost);
        let sends = t
            .events
            .iter()
            .filter(|e| e.instr.is_some_and(|i| i.kind.is_send()))
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
        let json = emu_to_chrome_trace_rich(spans, &s, &cost);
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
        let json = sim_to_chrome_trace_annotated(&t, &s, &cost, &report, None);
        // Every instruction slice got an annotation, critical-path ones
        // carry the reserved color, and at least one off-path slice
        // reports nonzero slack.
        let slices = t.events.len();
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
        use crate::simulator::timeline::simulate_timeline_serving;
        use mario_ir::PerturbationProfile;
        let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, 3, 3));
        let cost = UnitCost::paper_grid();
        let release = vec![0, 5_000, 9_000];
        let (t, done) =
            simulate_timeline_serving(&s, &cost, 1, &PerturbationProfile::identity(), &release)
                .unwrap();
        let report = crate::critpath::analyze(&s, &t.spans);
        let json = sim_to_chrome_trace_annotated(&t, &s, &cost, &report, Some(&done));
        let finished = done.iter().filter(|c| c.is_some()).count();
        assert_eq!(finished, 3);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), finished);
        assert!(json.contains("serve: micro 0 done"));
        // The held releases surface as path bubbles in the report the
        // overlay was built from.
        assert!(report.breakdown.bubble_ns > 0);
    }
}
