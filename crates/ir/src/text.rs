//! A plain-text serialization of schedules — the ahead-of-time artifact
//! Mario hands to the training runtime (the paper's instruction lists,
//! §4: "The outputted instruction lists can be directly executed").
//!
//! Format (`mario-schedule v1`):
//!
//! ```text
//! mario-schedule v1
//! scheme V devices 4 micros 6
//! routes 0 0 0 0 0 0
//! d0: F0^0 SA0^0>d1 F1^0 SA1^0>d1 RG0^0<d1 B0^0 ...
//! d1: RA0^0<d0 F0^0 B0^0 SG0^0>d0 ...
//! ```
//!
//! Instructions use the same compact notation as their `Display` impl, so
//! dumps are directly diffable against visualizations and logs.

use crate::ids::DeviceId;
use crate::instr::Instr;
use crate::list::DeviceProgram;
use crate::schedule::Schedule;
use crate::topology::{SchemeKind, Topology};
use std::fmt;

/// Parse failure with line context: what [`from_text`] returns for text
/// it cannot turn into a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for TextError {}

fn scheme_token(s: SchemeKind) -> String {
    match s {
        SchemeKind::GPipe => "G".into(),
        SchemeKind::OneFOneB => "V".into(),
        SchemeKind::Chimera => "X".into(),
        SchemeKind::Interleave { chunks } => format!("W:{chunks}"),
        SchemeKind::Wave { chunks } => format!("H:{chunks}"),
        SchemeKind::ForwardOnly => "F".into(),
        // "F" is taken by ForwardOnly and "B"/"Bi"/"Bw" by the instruction
        // notation, so the ZB family gets "Z"-prefixed tokens.
        SchemeKind::ZeroBubbleH1 => "Z".into(),
        SchemeKind::ZeroBubbleV => "ZV".into(),
    }
}

fn parse_scheme(tok: &str) -> Option<SchemeKind> {
    match tok {
        "G" => Some(SchemeKind::GPipe),
        "V" => Some(SchemeKind::OneFOneB),
        "X" => Some(SchemeKind::Chimera),
        "F" => Some(SchemeKind::ForwardOnly),
        "Z" => Some(SchemeKind::ZeroBubbleH1),
        "ZV" => Some(SchemeKind::ZeroBubbleV),
        _ => {
            let (letter, chunks) = tok.split_once(':')?;
            let chunks: u32 = chunks.parse().ok()?;
            match letter {
                "W" => Some(SchemeKind::Interleave { chunks }),
                "H" => Some(SchemeKind::Wave { chunks }),
                _ => None,
            }
        }
    }
}

/// Serializes a schedule to the v1 text format.
pub fn to_text(s: &Schedule) -> String {
    let mut out = String::from("mario-schedule v1\n");
    out.push_str(&format!(
        "scheme {} devices {} micros {}\n",
        scheme_token(s.topology.scheme),
        s.topology.devices,
        s.micros
    ));
    out.push_str("routes");
    for r in &s.routes {
        out.push_str(&format!(" {r}"));
    }
    out.push('\n');
    for p in s.programs() {
        out.push_str(&p.to_string());
        out.push('\n');
    }
    out
}

/// Parses one instruction token (the `Display` notation).
pub fn parse_instr(tok: &str) -> Option<Instr> {
    if tok == "AR" {
        return Some(Instr::all_reduce());
    }
    if tok == "OS" {
        return Some(Instr::optimizer_step());
    }
    // P2P: e.g. SA3^1>d2 / RG0^0<d1.
    for (prefix, recv) in [("SA", false), ("SG", false), ("RA", true), ("RG", true)] {
        if let Some(rest) = tok.strip_prefix(prefix) {
            let sep = if recv { '<' } else { '>' };
            let (mp, peer) = rest.split_once(sep)?;
            let (m, p) = mp.split_once('^')?;
            let micro: u32 = m.parse().ok()?;
            let part: u32 = p.parse().ok()?;
            let peer: u32 = peer.strip_prefix('d')?.parse().ok()?;
            let peer = DeviceId(peer);
            return Some(match prefix {
                "SA" => Instr::send_act(micro, part, peer),
                "SG" => Instr::send_grad(micro, part, peer),
                "RA" => Instr::recv_act(micro, part, peer),
                _ => Instr::recv_grad(micro, part, peer),
            });
        }
    }
    // Compute: cF3^0 / F3^0 / B3^0 / R3^0.
    let (kind, rest): (fn(u32, u32) -> Instr, &str) = if let Some(r) = tok.strip_prefix("cF") {
        (
            |m, p| Instr::ckpt_forward(m, p),
            r,
        )
    } else if let Some(r) = tok.strip_prefix('F') {
        (|m, p| Instr::forward(m, p), r)
    } else if let Some(r) = tok.strip_prefix("Bi") {
        (|m, p| Instr::backward_input(m, p), r)
    } else if let Some(r) = tok.strip_prefix("Bw") {
        (|m, p| Instr::backward_weight(m, p), r)
    } else if let Some(r) = tok.strip_prefix('B') {
        (|m, p| Instr::backward(m, p), r)
    } else if let Some(r) = tok.strip_prefix('R') {
        (|m, p| Instr::recompute(m, p), r)
    } else {
        return None;
    };
    let (m, p) = rest.split_once('^')?;
    Some(kind(m.parse().ok()?, p.parse().ok()?))
}

/// Parses the v1 text format back into a schedule.
///
/// Malformed text, and a header that names an impossible topology (no
/// devices, Chimera on an odd count, zero chunks) or a route the scheme
/// lacks, is a [`TextError`], never a panic. Whether the instructions
/// form a sound schedule is [`crate::validate`]'s question.
pub fn from_text(text: &str) -> Result<Schedule, TextError> {
    let err = |line: usize, what: &str| TextError {
        line,
        what: what.to_string(),
    };
    let mut lines = text.lines().enumerate();

    let (n, header) = lines.next().ok_or_else(|| err(1, "empty input"))?;
    if header.trim() != "mario-schedule v1" {
        return Err(err(n + 1, "expected header 'mario-schedule v1'"));
    }

    let (n, meta) = lines.next().ok_or_else(|| err(2, "missing scheme line"))?;
    let toks: Vec<&str> = meta.split_whitespace().collect();
    let [kw_s, scheme, kw_d, devices, kw_m, micros] = toks.as_slice() else {
        return Err(err(n + 1, "expected 'scheme <s> devices <d> micros <n>'"));
    };
    if *kw_s != "scheme" || *kw_d != "devices" || *kw_m != "micros" {
        return Err(err(n + 1, "expected 'scheme <s> devices <d> micros <n>'"));
    }
    let scheme = parse_scheme(scheme).ok_or_else(|| err(n + 1, "unknown scheme token"))?;
    let devices: u32 = devices
        .parse()
        .map_err(|_| err(n + 1, "bad device count"))?;
    let micros: u32 = micros.parse().map_err(|_| err(n + 1, "bad micro count"))?;

    let topo = Topology::try_new(scheme, devices).map_err(|e| err(n + 1, &e))?;

    let (n, routes_line) = lines.next().ok_or_else(|| err(3, "missing routes line"))?;
    // No capacity is reserved from the header's counts: hostile text can
    // claim billions.
    let mut routes = Vec::new();
    let mut toks = routes_line.split_whitespace();
    if toks.next() != Some("routes") {
        return Err(err(n + 1, "expected 'routes ...'"));
    }
    for t in toks {
        let route = t.parse::<u32>().map_err(|_| err(n + 1, "bad route"))?;
        if route >= topo.num_routes() {
            return Err(err(n + 1, "route out of range for the scheme"));
        }
        routes.push(route);
    }
    if routes.len() != micros as usize {
        return Err(err(n + 1, "route count != micros"));
    }

    let mut programs: Vec<DeviceProgram> = Vec::new();
    for (n, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (dev, rest) = line
            .split_once(':')
            .ok_or_else(|| err(n + 1, "expected 'dK: <instrs>'"))?;
        let dev: u32 = dev
            .strip_prefix('d')
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err(n + 1, "bad device tag"))?;
        if dev as usize != programs.len() {
            return Err(err(n + 1, "device lines out of order"));
        }
        let mut prog = DeviceProgram::new(DeviceId(dev));
        for tok in rest.split_whitespace() {
            let instr =
                parse_instr(tok).ok_or_else(|| err(n + 1, "unparseable instruction"))?;
            prog.push(instr);
        }
        programs.push(prog);
    }
    if programs.len() != devices as usize {
        return Err(err(0, "wrong number of device lines"));
    }
    Ok(Schedule::from_programs(topo, micros, routes, programs))
}

/// Convenience check used by tests: an instruction survives the notation
/// round trip.
pub fn instr_round_trips(i: &Instr) -> bool {
    parse_instr(&i.to_string()) == Some(*i)
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_instr_kind_round_trips() {
        let peer = DeviceId(3);
        let instrs = [
            Instr::forward(12, 1u32),
            Instr::ckpt_forward(0, 0u32),
            Instr::backward(5, 2u32),
            Instr::backward_input(5, 2u32),
            Instr::backward_weight(5, 2u32),
            Instr::recompute(5, 2u32),
            Instr::send_act(1, 0u32, peer),
            Instr::recv_act(1, 0u32, peer),
            Instr::send_grad(9, 1u32, peer),
            Instr::recv_grad(9, 1u32, peer),
            Instr::all_reduce(),
            Instr::optimizer_step(),
        ];
        for i in instrs {
            assert!(instr_round_trips(&i), "{i}");
        }
    }

    #[test]
    fn schedule_round_trips() {
        let topo = Topology::new(SchemeKind::Chimera, 4);
        let mut s = Schedule::empty(topo, 2, vec![0, 1]);
        s.program_mut(DeviceId(0)).push(Instr::forward(0, 0u32));
        s.program_mut(DeviceId(0))
            .push(Instr::send_act(0, 0u32, DeviceId(1)));
        s.program_mut(DeviceId(1))
            .push(Instr::recv_act(0, 0u32, DeviceId(0)));
        s.program_mut(DeviceId(3)).push(Instr::ckpt_forward(1, 1u32));
        s.program_mut(DeviceId(3)).push(Instr::recompute(1, 1u32));
        s.program_mut(DeviceId(3)).push(Instr::backward(1, 1u32));
        let text = to_text(&s);
        let back = from_text(&text).unwrap();
        assert_eq!(s, back);
    }

    /// Every scheme, exhaustively: the `match` forces a compile error when a
    /// new `SchemeKind` is added, so its text token gets picked deliberately
    /// instead of colliding with an existing letter ("F" already bit us —
    /// it belongs to ForwardOnly, so ZB-H1 had to become "Z").
    fn all_schemes() -> Vec<SchemeKind> {
        match SchemeKind::GPipe {
            SchemeKind::GPipe
            | SchemeKind::OneFOneB
            | SchemeKind::Chimera
            | SchemeKind::Interleave { .. }
            | SchemeKind::Wave { .. }
            | SchemeKind::ForwardOnly
            | SchemeKind::ZeroBubbleH1
            | SchemeKind::ZeroBubbleV => {}
        }
        vec![
            SchemeKind::GPipe,
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks: 3 },
            SchemeKind::Wave { chunks: 2 },
            SchemeKind::ForwardOnly,
            SchemeKind::ZeroBubbleH1,
            SchemeKind::ZeroBubbleV,
        ]
    }

    #[test]
    fn scheme_tokens_round_trip() {
        for s in all_schemes() {
            assert_eq!(parse_scheme(&scheme_token(s)), Some(s));
        }
    }

    #[test]
    fn scheme_tokens_are_pairwise_distinct() {
        let tokens: Vec<String> = all_schemes().iter().map(|&s| scheme_token(s)).collect();
        for (i, a) in tokens.iter().enumerate() {
            for b in &tokens[i + 1..] {
                assert_ne!(a, b, "scheme token collision");
            }
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        assert_eq!(from_text("").unwrap_err().line, 1);
        let bad_header = from_text("not a schedule\n").unwrap_err();
        assert_eq!(bad_header.line, 1);
        let bad_scheme = from_text("mario-schedule v1\nscheme Q devices 2 micros 1\n");
        assert_eq!(bad_scheme.unwrap_err().line, 2);
        let bad_instr = from_text(
            "mario-schedule v1\nscheme V devices 1 micros 1\nroutes 0\nd0: F0^0 QQ\n",
        );
        let e = bad_instr.unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.what.contains("unparseable"));
    }

    #[test]
    fn rejects_out_of_order_device_lines() {
        let text = "mario-schedule v1\nscheme V devices 2 micros 1\nroutes 0\nd1: F0^0\nd0: F0^0\n";
        assert!(from_text(text).unwrap_err().what.contains("out of order"));
    }

    #[test]
    fn garbage_tokens_do_not_parse() {
        for t in ["", "Z1^0", "F1", "SA1^0", "SA1^0>x2", "F^0", "cB1^0"] {
            assert_eq!(parse_instr(t), None, "{t:?}");
        }
    }
}
