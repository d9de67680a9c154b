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
//!
//! # Accepted grammar
//!
//! - Lines end at `\n`. Tokens are separated by runs of white space, which
//!   may also open and close a line. White space is Unicode's White_Space
//!   set (`char::is_whitespace`): tab, line tabulation (VT, which
//!   `u8::is_ascii_whitespace` leaves out), form feed, carriage return and
//!   space, and beyond ASCII U+0085, U+00A0, U+1680, U+2000–U+200A,
//!   U+2028, U+2029, U+202F, U+205F and U+3000. So `\r\n` line ends read
//!   like `\n`.
//! - Line 1 is `mario-schedule v1`; line 2 is exactly the six tokens
//!   `scheme <s> devices <n> micros <n>`; line 3 is `routes` and one
//!   number per micro-batch, each below the scheme's route count.
//! - Every further non-blank line is `d<n>:` — device tags in order from
//!   `d0`, with no space before the colon — and then instruction tokens.
//!   Blank lines are skipped.
//! - A number is an optional `+` and one or more ASCII digits, leading
//!   zeros allowed, whose value fits in a `u32`; a larger value is an
//!   error, never a wrap. So `F+3^0` and `F03^0` both read as `F3^0`.
//!
//! The sign, the whitespace set and the overflow rule are those of
//! `u32::from_str` and `str::split_whitespace`, so a reader built on them
//! accepts exactly the same texts.
//!
//! [`from_text`] reads the text in one pass: a cursor walks each line's
//! bytes, matches the instruction prefix and accumulates digits in
//! place, and each device program is allocated at its exact length.

use crate::ids::{DeviceId, MicroId, PartId};
use crate::instr::{Instr, InstrKind};
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
        _ => match tok.as_bytes() {
            [b'W', b':', ..] => Some(SchemeKind::Interleave {
                chunks: number(&tok[2..])?,
            }),
            [b'H', b':', ..] => Some(SchemeKind::Wave {
                chunks: number(&tok[2..])?,
            }),
            _ => None,
        },
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
    let mut c = Cursor::new(tok);
    let instr = c.instr()?;
    c.at_end().then_some(instr)
}

/// A whole token read as a number.
fn number(tok: &str) -> Option<u32> {
    let mut c = Cursor::new(tok);
    let n = c.number()?;
    c.at_end().then_some(n)
}

/// A position in the text. It only ever stops on a character boundary:
/// it steps over ASCII bytes it matched and over whole characters.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Steps over `b` if it is next.
    #[inline]
    fn eat(&mut self, b: u8) -> bool {
        let next = self.peek() == Some(b);
        self.pos += usize::from(next);
        next
    }

    fn at_end(&self) -> bool {
        self.pos == self.text.len()
    }

    /// At the end of a line: a `\n` or the end of the text.
    #[inline]
    fn at_line_end(&self) -> bool {
        matches!(self.peek(), None | Some(b'\n'))
    }

    /// Byte length of the white-space character next, 0 if there is
    /// none. `\n` ends the line instead.
    #[inline]
    fn space_len(&self) -> usize {
        match self.peek() {
            Some(b'\t' | 0x0B | 0x0C | b'\r' | b' ') => 1,
            Some(0x80..) => self.text[self.pos..]
                .chars()
                .next()
                .filter(|c| c.is_whitespace())
                .map_or(0, char::len_utf8),
            _ => 0,
        }
    }

    /// Steps over white space within the line.
    #[inline]
    fn skip_space(&mut self) {
        loop {
            let n = self.space_len();
            if n == 0 {
                return;
            }
            self.pos += n;
        }
    }

    /// Where a token ends: white space or the end of the line.
    #[inline]
    fn at_token_end(&self) -> bool {
        self.at_line_end() || self.space_len() > 0
    }

    /// The next white-space-separated token of the line.
    fn token(&mut self) -> Option<&'a str> {
        self.skip_space();
        let start = self.pos;
        while !self.at_token_end() {
            self.pos += self.text[self.pos..]
                .chars()
                .next()
                .map_or(1, char::len_utf8);
        }
        (self.pos > start).then(|| &self.text[start..self.pos])
    }

    /// Whether `b` occurs before the end of the line.
    fn line_has(&self, b: u8) -> bool {
        self.text.as_bytes()[self.pos..]
            .iter()
            .take_while(|&&x| x != b'\n')
            .any(|&x| x == b)
    }

    /// Steps past the end of the line.
    fn next_line(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| i + 1);
    }

    /// A number: an optional `+`, then ASCII digits up to the first other
    /// byte, with a value that fits in a `u32`.
    #[inline]
    fn number(&mut self) -> Option<u32> {
        self.eat(b'+');
        let start = self.pos;
        let mut n = 0u32;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            n = n.checked_mul(10)?.checked_add(u32::from(d - b'0'))?;
            self.pos += 1;
        }
        (self.pos > start).then_some(n)
    }

    /// An instruction in the `Display` notation, up to where it ends; the
    /// caller checks what follows.
    #[inline]
    fn instr(&mut self) -> Option<Instr> {
        // Compute: cF3^0 / F3^0 / B3^0 / Bi3^0 / Bw3^0 / R3^0; P2P:
        // SA3^1>d2 / RG0^0<d1.
        let first = self.peek()?;
        self.pos += 1;
        let shape = match first {
            b'F' => Shape::Compute(InstrKind::Forward { ckpt: false }),
            b'c' if self.eat(b'F') => Shape::Compute(InstrKind::Forward { ckpt: true }),
            b'B' if self.eat(b'i') => Shape::Compute(InstrKind::BackwardInput),
            b'B' if self.eat(b'w') => Shape::Compute(InstrKind::BackwardWeight),
            b'B' => Shape::Compute(InstrKind::Backward),
            b'R' if self.eat(b'A') => Shape::P2p(b'<', |peer| InstrKind::RecvAct { peer }),
            b'R' if self.eat(b'G') => Shape::P2p(b'<', |peer| InstrKind::RecvGrad { peer }),
            b'R' => Shape::Compute(InstrKind::Recompute),
            b'S' if self.eat(b'A') => Shape::P2p(b'>', |peer| InstrKind::SendAct { peer }),
            b'S' if self.eat(b'G') => Shape::P2p(b'>', |peer| InstrKind::SendGrad { peer }),
            b'A' => return self.eat(b'R').then(Instr::all_reduce),
            b'O' => return self.eat(b'S').then(Instr::optimizer_step),
            _ => return None,
        };
        let micro = MicroId(self.number()?);
        if !self.eat(b'^') {
            return None;
        }
        let part = PartId(self.number()?);
        let kind = match shape {
            Shape::Compute(kind) => kind,
            Shape::P2p(sep, kind) => {
                if !(self.eat(sep) && self.eat(b'd')) {
                    return None;
                }
                kind(DeviceId(self.number()?))
            }
        };
        Some(Instr { kind, micro, part })
    }
}

/// An instruction's kind as its prefix names it.
enum Shape {
    /// A compute kind, followed by `<micro>^<part>`.
    Compute(InstrKind),
    /// A p2p kind made from its peer, followed by `<micro>^<part>`, the
    /// separator byte, `d` and the peer.
    P2p(u8, fn(DeviceId) -> InstrKind),
}

/// Parses the v1 text format back into a schedule.
///
/// Malformed text, and a header that names an impossible topology (no
/// devices, Chimera on an odd count, zero chunks) or a route the scheme
/// lacks, is a [`TextError`], never a panic. Whether the instructions
/// form a sound schedule is [`crate::validate`]'s question. The grammar
/// is in the [module documentation](self).
pub fn from_text(text: &str) -> Result<Schedule, TextError> {
    let err = |line: usize, what: &str| TextError {
        line,
        what: what.to_string(),
    };
    let mut c = Cursor::new(text);

    if c.at_end() {
        return Err(err(1, "empty input"));
    }
    c.skip_space();
    let version = "mario-schedule v1";
    if !text[c.pos..].starts_with(version) {
        return Err(err(1, "expected header 'mario-schedule v1'"));
    }
    c.pos += version.len();
    c.skip_space();
    if !c.at_line_end() {
        return Err(err(1, "expected header 'mario-schedule v1'"));
    }
    c.next_line();

    if c.at_end() {
        return Err(err(2, "missing scheme line"));
    }
    let mut toks = [""; 6];
    let mut n = 0;
    while let Some(t) = c.token() {
        if n == toks.len() {
            n += 1;
            break;
        }
        toks[n] = t;
        n += 1;
    }
    let [kw_s, scheme, kw_d, devices, kw_m, micros] = toks;
    if n != toks.len() || kw_s != "scheme" || kw_d != "devices" || kw_m != "micros" {
        return Err(err(2, "expected 'scheme <s> devices <d> micros <n>'"));
    }
    let scheme = parse_scheme(scheme).ok_or_else(|| err(2, "unknown scheme token"))?;
    let devices = number(devices).ok_or_else(|| err(2, "bad device count"))?;
    let micros = number(micros).ok_or_else(|| err(2, "bad micro count"))?;
    let topo = Topology::try_new(scheme, devices).map_err(|e| err(2, &e))?;
    c.next_line();

    if c.at_end() {
        return Err(err(3, "missing routes line"));
    }
    if c.token() != Some("routes") {
        return Err(err(3, "expected 'routes ...'"));
    }
    // No capacity is reserved from the header's counts: hostile text can
    // claim billions.
    let mut routes = Vec::new();
    while let Some(t) = c.token() {
        let route = number(t).ok_or_else(|| err(3, "bad route"))?;
        if route >= topo.num_routes() {
            return Err(err(3, "route out of range for the scheme"));
        }
        routes.push(route);
    }
    if routes.len() != micros as usize {
        return Err(err(3, "route count != micros"));
    }
    c.next_line();

    // One buffer collects each line's instructions, and each program is
    // copied out of it at its exact length.
    let mut line = 3;
    let mut instrs = Vec::new();
    let mut programs: Vec<DeviceProgram> = Vec::new();
    while !c.at_end() {
        line += 1;
        c.skip_space();
        if c.at_line_end() {
            c.next_line();
            continue;
        }
        let dev = match c.eat(b'd').then(|| c.number()).flatten() {
            Some(dev) if c.eat(b':') => dev,
            _ if c.line_has(b':') => return Err(err(line, "bad device tag")),
            _ => return Err(err(line, "expected 'dK: <instrs>'")),
        };
        if dev as usize != programs.len() {
            return Err(err(line, "device lines out of order"));
        }
        loop {
            c.skip_space();
            if c.at_line_end() {
                break;
            }
            match c.instr() {
                Some(i) if c.at_token_end() => instrs.push(i),
                _ => return Err(err(line, "unparseable instruction")),
            }
        }
        programs.push(DeviceProgram::from_instrs(DeviceId(dev), instrs.to_vec()));
        instrs.clear();
        c.next_line();
    }
    if programs.len() != devices as usize {
        return Err(err(line + 1, "wrong number of device lines"));
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
    fn a_missing_device_line_is_reported_after_the_last_line() {
        let text = "mario-schedule v1\nscheme V devices 2 micros 1\nroutes 0\nd0: F0^0\n";
        let e = from_text(text).unwrap_err();
        assert_eq!((e.line, e.what.as_str()), (5, "wrong number of device lines"));
        assert_eq!(from_text(text.trim_end()).unwrap_err().line, 5);
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
