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
//! Instructions use the same compact notation as their `Display` impl,
//! written by the same encoder, so dumps are directly diffable against
//! visualizations and logs.
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
//! [`to_text`] writes bytes: it sizes the output to the text's exact
//! length, then writes the header and each program's line into it. Every
//! instruction is written from one per-kind notation table
//! ([`InstrKind`]'s prefix and p2p separator), the table `Instr`'s and
//! `DeviceProgram`'s `Display` also write from, so the notation is
//! defined in one place; each number goes through a small stack digit
//! buffer.
//!
//! [`from_text`] reads the text in one pass over its bytes. The header's
//! three lines are read token by token. Each device line is read with a
//! local index: one two-byte match decodes an instruction's prefix and
//! kind, digits accumulate in place, and each device program is
//! allocated at its exact length. [`parse_instr`] calls the same
//! decoder. A byte past ASCII goes to one Unicode White_Space rule,
//! which the header and the device lines share.
//!
//! Device lines parse independently of one another, so a large text's
//! device-line region is cut at line breaks into `min(cores, bytes /
//! MIN_PART_BYTES)` contiguous parts, each read by the same line reader
//! on a scoped thread of its own (the caller reads the first). The merge
//! gives the one-part answer: the first error in line order wins; a
//! part's first device line must carry the tag that counts the programs
//! before it, or it is "device lines out of order" at that line, also
//! when blank lines open the part; a line number counts the header, every
//! earlier part's lines and the line's place in its part; and a missing
//! device line is still reported one past the last line. One part is the
//! serial reader, and `taskset -c 0` gives it.

use crate::ids::{DeviceId, MicroId, PartId};
use crate::instr::{decimal, put, Instr, InstrKind, Tail};
use crate::list::DeviceProgram;
use crate::schedule::Schedule;
use crate::topology::{SchemeKind, Topology};
use std::fmt;
use std::num::NonZeroUsize;
use std::thread;

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

/// The scheme's token: a name, and for the chunked schemes `:` and the
/// chunk count.
fn scheme_token(s: SchemeKind) -> (&'static str, Option<u32>) {
    match s {
        SchemeKind::GPipe => ("G", None),
        SchemeKind::OneFOneB => ("V", None),
        SchemeKind::Chimera => ("X", None),
        SchemeKind::Interleave { chunks } => ("W:", Some(chunks)),
        SchemeKind::Wave { chunks } => ("H:", Some(chunks)),
        SchemeKind::ForwardOnly => ("F", None),
        // "F" is taken by ForwardOnly and "B"/"Bi"/"Bw" by the instruction
        // notation, so the ZB family gets "Z"-prefixed tokens.
        SchemeKind::ZeroBubbleH1 => ("Z", None),
        SchemeKind::ZeroBubbleV => ("ZV", None),
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
    let mut head = Vec::new();
    let push_u32 = |head: &mut Vec<u8>, n| head.extend_from_slice(decimal(n, &mut [0; 10]));
    let (scheme, chunks) = scheme_token(s.topology.scheme);
    head.extend_from_slice(b"mario-schedule v1\nscheme ");
    head.extend_from_slice(scheme.as_bytes());
    if let Some(chunks) = chunks {
        push_u32(&mut head, chunks);
    }
    head.extend_from_slice(b" devices ");
    push_u32(&mut head, s.topology.devices);
    head.extend_from_slice(b" micros ");
    push_u32(&mut head, s.micros);
    head.extend_from_slice(b"\nroutes");
    for &r in &s.routes {
        head.push(b' ');
        push_u32(&mut head, r);
    }
    head.push(b'\n');

    let len = head.len() + s.programs().iter().map(|p| p.line_len() + 1).sum::<usize>();
    let mut out = vec![0; len];
    let mut at = put(&mut out, 0, &head);
    for p in s.programs() {
        at = p.encode_line(&mut out, at);
        at = put(&mut out, at, b"\n");
    }
    assert_eq!(at, len, "to_text sized its output exactly");
    String::from_utf8(out).expect("the notation is ASCII")
}

/// Parses one instruction token (the `Display` notation).
pub fn parse_instr(tok: &str) -> Option<Instr> {
    match decode(tok.as_bytes(), 0) {
        Some((instr, end)) if end == tok.len() => Some(instr),
        _ => None,
    }
}

/// A whole token read as a number.
fn number(tok: &str) -> Option<u32> {
    match number_at(tok.as_bytes(), 0) {
        Some((n, end)) if end == tok.len() => Some(n),
        _ => None,
    }
}

/// The number at `at`, and the index after it: an optional `+`, then
/// ASCII digits up to the first other byte, with a value that fits in a
/// `u32`.
#[inline(always)]
fn number_at(b: &[u8], at: usize) -> Option<(u32, usize)> {
    let start = at + usize::from(b.get(at) == Some(&b'+'));
    let mut at = start;
    let mut n = 0u64;
    while let Some(&d @ b'0'..=b'9') = b.get(at) {
        n = n * 10 + u64::from(d - b'0');
        if n > u64::from(u32::MAX) {
            return None;
        }
        at += 1;
    }
    if at == start {
        return None;
    }
    Some((u32::try_from(n).ok()?, at))
}

/// The instruction at `at` in the `Display` notation, and the index after
/// it; the caller checks what follows.
#[inline(always)]
fn decode(b: &[u8], at: usize) -> Option<(Instr, usize)> {
    // No prefix has a NUL byte, so 0 stands in for a missing second one.
    let second = b.get(at + 1).copied().unwrap_or(0);
    let no_peer = DeviceId(0);
    let (mut kind, at) = match [*b.get(at)?, second] {
        [b'F', _] => (InstrKind::Forward { ckpt: false }, at + 1),
        [b'c', b'F'] => (InstrKind::Forward { ckpt: true }, at + 2),
        [b'B', b'i'] => (InstrKind::BackwardInput, at + 2),
        [b'B', b'w'] => (InstrKind::BackwardWeight, at + 2),
        [b'B', _] => (InstrKind::Backward, at + 1),
        [b'R', b'A'] => (InstrKind::RecvAct { peer: no_peer }, at + 2),
        [b'R', b'G'] => (InstrKind::RecvGrad { peer: no_peer }, at + 2),
        [b'R', _] => (InstrKind::Recompute, at + 1),
        [b'S', b'A'] => (InstrKind::SendAct { peer: no_peer }, at + 2),
        [b'S', b'G'] => (InstrKind::SendGrad { peer: no_peer }, at + 2),
        [b'A', b'R'] => return Some((Instr::all_reduce(), at + 2)),
        [b'O', b'S'] => return Some((Instr::optimizer_step(), at + 2)),
        _ => return None,
    };
    let (micro, at) = number_at(b, at)?;
    if b.get(at) != Some(&b'^') {
        return None;
    }
    let (part, mut at) = number_at(b, at + 1)?;
    if let Tail::Peer(sep, _) = kind.notation().1 {
        if b.get(at) != Some(&sep) || b.get(at + 1) != Some(&b'd') {
            return None;
        }
        let (n, end) = number_at(b, at + 2)?;
        if let InstrKind::SendAct { peer }
        | InstrKind::RecvAct { peer }
        | InstrKind::SendGrad { peer }
        | InstrKind::RecvGrad { peer } = &mut kind
        {
            *peer = DeviceId(n);
        }
        at = end;
    }
    let instr = Instr {
        kind,
        micro: MicroId(micro),
        part: PartId(part),
    };
    Some((instr, at))
}

/// Byte length of the white-space character at `at`, 0 if there is none.
/// `\n` ends the line instead.
#[inline(always)]
fn space_len(text: &str, at: usize) -> usize {
    match text.as_bytes().get(at) {
        Some(b'\t' | 0x0B | 0x0C | b'\r' | b' ') => 1,
        Some(0x80..) => wide_space_len(text, at),
        _ => 0,
    }
}

/// The Unicode White_Space rule for the character at `at`, which starts
/// past ASCII: its byte length if it is white space, else 0.
#[cold]
fn wide_space_len(text: &str, at: usize) -> usize {
    text[at..]
        .chars()
        .next()
        .filter(|c| c.is_whitespace())
        .map_or(0, char::len_utf8)
}

/// The index past the white space at `at`, within the line.
#[inline(always)]
fn skip_space(text: &str, mut at: usize) -> usize {
    loop {
        let n = space_len(text, at);
        if n == 0 {
            return at;
        }
        at += n;
    }
}

/// Whether `at` is at the end of a line: a `\n` or the end of the text.
#[inline(always)]
fn at_line_end(b: &[u8], at: usize) -> bool {
    matches!(b.get(at), None | Some(b'\n'))
}

/// Whether a token ends at `at`: white space or the end of the line.
#[inline(always)]
fn at_token_end(text: &str, at: usize) -> bool {
    at_line_end(text.as_bytes(), at) || space_len(text, at) > 0
}

/// The index past the end of the line that `at` is on.
fn next_line(b: &[u8], at: usize) -> usize {
    b[at..]
        .iter()
        .position(|&x| x == b'\n')
        .map_or(b.len(), |i| at + i + 1)
}

/// The next white-space-separated token of the line at `*at`, stepping
/// past it.
fn token<'a>(text: &'a str, at: &mut usize) -> Option<&'a str> {
    let start = skip_space(text, *at);
    let mut end = start;
    while !at_token_end(text, end) {
        end += text[end..].chars().next().map_or(1, char::len_utf8);
    }
    *at = end;
    (end > start).then(|| &text[start..end])
}

/// The least bytes of device lines per part. Measured on a 2-vCPU Xeon
/// (1F1B texts, medians of 301 alternated calls, one part against two):
/// two parts cost as much as one or more up to about 52 KiB of device
/// lines (32×32, 0.9–1.3×), where starting and joining a scoped thread
/// costs what half the parse saves; they took a quarter off at 105 KiB
/// (32×64, 0.70–0.76×) and half at 445 KiB (64×128). So a region splits
/// from twice this, 128 KiB, up: plan-8's 8×32 texts (11–24 KiB) and
/// every test text stay in one part, and 1F1B 512×128 (3.8 MB) splits.
const MIN_PART_BYTES: usize = 64 << 10;

/// Parses the v1 text format back into a schedule.
///
/// Malformed text, and a header that names an impossible topology (no
/// devices, Chimera on an odd count, zero chunks) or a route the scheme
/// lacks, is a [`TextError`], never a panic. Whether the instructions
/// form a sound schedule is [`crate::validate()`]'s question. The grammar
/// is in the [module documentation](self).
///
/// A large text's device lines are parsed in parts, at most one per core
/// the process may run on; the answer is the one-part answer (see the
/// [module documentation](self)).
pub fn from_text(text: &str) -> Result<Schedule, TextError> {
    read(text, None)
}

/// [`from_text`] with its device lines parsed in exactly `parts` parts,
/// whatever their size, for the tests that hold every split to the
/// one-part answer.
#[cfg(feature = "test-order")]
#[doc(hidden)]
pub fn from_text_in_parts(text: &str, parts: usize) -> Result<Schedule, TextError> {
    read(text, Some(parts.max(1)))
}

fn err(line: usize, what: &str) -> TextError {
    TextError {
        line,
        what: what.to_string(),
    }
}

/// Reads the three header lines serially, then the device lines in
/// `parts` parts, or in as many as the region's size and the cores allow;
/// the module docs give the split and the merge.
fn read(text: &str, parts: Option<usize>) -> Result<Schedule, TextError> {
    let b = text.as_bytes();

    if b.is_empty() {
        return Err(err(1, "empty input"));
    }
    let version = "mario-schedule v1";
    let mut at = skip_space(text, 0);
    if !text[at..].starts_with(version) {
        return Err(err(1, "expected header 'mario-schedule v1'"));
    }
    at = skip_space(text, at + version.len());
    if !at_line_end(b, at) {
        return Err(err(1, "expected header 'mario-schedule v1'"));
    }
    at = next_line(b, at);

    if at == b.len() {
        return Err(err(2, "missing scheme line"));
    }
    let mut toks = [""; 6];
    let mut n = 0;
    while let Some(t) = token(text, &mut at) {
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
    at = next_line(b, at);

    if at == b.len() {
        return Err(err(3, "missing routes line"));
    }
    if token(text, &mut at) != Some("routes") {
        return Err(err(3, "expected 'routes ...'"));
    }
    // No capacity is reserved from the header's counts: hostile text can
    // claim billions.
    let mut routes = Vec::new();
    while let Some(t) = token(text, &mut at) {
        let route = number(t).ok_or_else(|| err(3, "bad route"))?;
        if route >= topo.num_routes() {
            return Err(err(3, "route out of range for the scheme"));
        }
        routes.push(route);
    }
    if routes.len() != micros as usize {
        return Err(err(3, "route count != micros"));
    }
    at = next_line(b, at);

    let parts = parts.unwrap_or_else(|| match (b.len() - at) / MIN_PART_BYTES {
        0 | 1 => 1,
        n => n.min(thread::available_parallelism().map_or(1, NonZeroUsize::get)),
    });
    let mut line = 3;
    let mut programs: Vec<DeviceProgram> = Vec::new();
    for part in parse_parts(text, &cuts(b, at, parts)) {
        if let Some((tag, first)) = part.first {
            if tag as usize != programs.len() {
                return Err(err(line + first, "device lines out of order"));
            }
        }
        if let Some(e) = part.err {
            return Err(TextError {
                line: line + e.line,
                ..e
            });
        }
        programs.extend(part.programs);
        line += part.lines;
    }
    if programs.len() != devices as usize {
        return Err(err(line + 1, "wrong number of device lines"));
    }
    Ok(Schedule::from_programs(topo, micros, routes, programs))
}

/// The bounds of `parts` contiguous parts of `b[start..]`, each cut at
/// the first line start at or after an even share of the bytes; a part
/// may be empty.
fn cuts(b: &[u8], start: usize, parts: usize) -> Vec<usize> {
    let len = b.len() - start;
    let mut cuts: Vec<usize> = (0..parts)
        .map(|k| match start + len * k / parts {
            at if at == start => start,
            at => next_line(b, at - 1),
        })
        .collect();
    cuts.push(b.len());
    cuts
}

/// Parses each part between consecutive `cuts`: the first on the calling
/// thread, every other on a scoped thread of its own.
fn parse_parts(text: &str, cuts: &[usize]) -> Vec<Lines> {
    thread::scope(|s| {
        let rest: Vec<_> = cuts[1..]
            .windows(2)
            .map(|w| s.spawn(move || device_lines(text, w[0], w[1])))
            .collect();
        let first = device_lines(text, cuts[0], cuts[1]);
        std::iter::once(first)
            .chain(rest.into_iter().map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }))
            .collect()
    })
}

/// What one part of the device-line region reads to, with line numbers
/// counted from the part's first line.
struct Lines {
    /// The programs of its device lines, in order.
    programs: Vec<DeviceProgram>,
    /// How many lines it holds.
    lines: usize,
    /// The tag of its first device line, and that line's number: the
    /// merge checks the tag against the programs before the part.
    first: Option<(u32, usize)>,
    /// Its first error; the part stops there.
    err: Option<TextError>,
}

/// Reads the device lines in `text[at..stop]`, where `at` and `stop` are
/// line starts (or the end of the text). Each later device line must
/// carry the tag after its predecessor's.
fn device_lines(text: &str, mut at: usize, stop: usize) -> Lines {
    let b = text.as_bytes();
    let mut part = Lines {
        programs: Vec::new(),
        lines: 0,
        first: None,
        err: None,
    };
    // Each line's instructions go into a vector sized like the previous
    // line's, and are trimmed to their exact length.
    let mut guess = 0;
    while at < stop {
        part.lines += 1;
        let line = part.lines;
        at = skip_space(text, at);
        if at_line_end(b, at) {
            at = next_line(b, at);
            continue;
        }
        let dev = match (b[at] == b'd').then(|| number_at(b, at + 1)).flatten() {
            Some((dev, end)) if b.get(end) == Some(&b':') => {
                at = end + 1;
                dev
            }
            _ if b[at..next_line(b, at)].contains(&b':') => {
                part.err = Some(err(line, "bad device tag"));
                return part;
            }
            _ => {
                part.err = Some(err(line, "expected 'dK: <instrs>'"));
                return part;
            }
        };
        let (first, _) = *part.first.get_or_insert((dev, line));
        if dev as usize != first as usize + part.programs.len() {
            part.err = Some(err(line, "device lines out of order"));
            return part;
        }
        let mut instrs = Vec::with_capacity(guess);
        loop {
            at = skip_space(text, at);
            if at_line_end(b, at) {
                break;
            }
            match decode(b, at) {
                Some((i, end)) if at_token_end(text, end) => {
                    instrs.push(i);
                    at = end;
                }
                _ => {
                    part.err = Some(err(line, "unparseable instruction"));
                    return part;
                }
            }
        }
        instrs.shrink_to_fit();
        guess = instrs.len();
        part.programs
            .push(DeviceProgram::from_instrs(DeviceId(dev), instrs));
        at = next_line(b, at);
    }
    part
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

    /// The scheme's token as `to_text` writes it.
    fn scheme_text(s: SchemeKind) -> String {
        let (name, chunks) = scheme_token(s);
        name.to_string() + &chunks.map_or(String::new(), |c| c.to_string())
    }

    #[test]
    fn scheme_tokens_round_trip() {
        for s in all_schemes() {
            assert_eq!(parse_scheme(&scheme_text(s)), Some(s));
        }
    }

    #[test]
    fn scheme_tokens_are_pairwise_distinct() {
        let tokens: Vec<String> = all_schemes().iter().map(|&s| scheme_text(s)).collect();
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

    /// `text` read in every part count from 2 to 8, each held to the
    /// one-part answer, which is returned.
    fn every_split_agrees(text: &str) -> Result<Schedule, TextError> {
        let serial = read(text, Some(1));
        for parts in 2..=8 {
            assert_eq!(read(text, Some(parts)), serial, "{parts} parts:\n{text}");
        }
        serial
    }

    /// The line each part after the first starts on, for `parts` parts.
    fn part_lines(text: &str, parts: usize) -> Vec<usize> {
        let b = text.as_bytes();
        let start = (0..3).fold(0, |at, _| next_line(b, at));
        let cuts = cuts(b, start, parts);
        let line_of = |at: usize| 1 + b[..at].iter().filter(|&&c| c == b'\n').count();
        cuts[1..parts].iter().map(|&at| line_of(at)).collect()
    }

    /// A 1F1B-like header and `lines` as the device lines.
    fn text_of(devices: u32, lines: &[&str]) -> String {
        let mut text =
            format!("mario-schedule v1\nscheme V devices {devices} micros 1\nroutes 0\n");
        for l in lines {
            text += l;
            text += "\n";
        }
        text
    }

    #[test]
    fn an_out_of_order_tag_opening_a_part_is_reported_at_its_line() {
        let lines = ["d0: F0^0", "d1: F0^0", "d3: F0^0", "d3: F0^0"];
        let text = text_of(4, &lines);
        // Two parts: the second opens with the wrong tag, which only the
        // merge can see.
        assert_eq!(part_lines(&text, 2), vec![6]);
        let e = every_split_agrees(&text).unwrap_err();
        assert_eq!((e.line, e.what.as_str()), (6, "device lines out of order"));
        // Also when blank lines open the part, and when the line after the
        // tag holds an unparseable instruction.
        let blank = text_of(
            4,
            &["d0: F0^0", "d1: F0^0", " \r", "", "d3: F0^0 QQ", "d3: F0^0"],
        );
        assert_eq!(part_lines(&blank, 2), vec![7]);
        let e = every_split_agrees(&blank).unwrap_err();
        assert_eq!((e.line, e.what.as_str()), (8, "device lines out of order"));
    }

    #[test]
    fn blank_lines_and_crlf_straddling_a_cut_read_as_in_one_part() {
        let mut lines = vec!["d0: F0^0 B0^0"];
        lines.extend(["\r", " \t\r", "\u{3000}\r"].repeat(8));
        lines.push("d1: F0^0 B0^0\r");
        let text = text_of(2, &lines).replace("d0: F0^0 B0^0\n", "d0: F0^0 B0^0\r\n");
        // The cut falls inside the blank run, with blank lines either side.
        let cut = part_lines(&text, 2)[0];
        assert!((6..4 + lines.len() - 1).contains(&cut), "{cut}");
        let s = every_split_agrees(&text).unwrap();
        assert_eq!(s.total_instrs(), 4);
        // A missing device line after the run is reported past the last line.
        let short = text_of(3, &lines);
        let e = every_split_agrees(&short).unwrap_err();
        assert_eq!(
            (e.line, e.what.as_str()),
            (4 + lines.len(), "wrong number of device lines")
        );
    }

    #[test]
    fn a_giant_line_holding_the_midpoint_stays_whole() {
        let giant = format!("d1:{}", " F0^0".repeat(2000));
        let text = text_of(3, &["d0: F0^0", &giant, "d2: F0^0"]);
        // The cut moves past the giant line's end.
        assert_eq!(part_lines(&text, 2), vec![6]);
        let s = every_split_agrees(&text).unwrap();
        assert_eq!(s.program(DeviceId(1)).len(), 2000);
        // An error at the giant line's end keeps its line number.
        let bad = text.replace("F0^0\nd2:", "F0^0 QQ\nd2:");
        let e = every_split_agrees(&bad).unwrap_err();
        assert_eq!((e.line, e.what.as_str()), (5, "unparseable instruction"));
    }

    #[test]
    fn a_missing_last_device_line_is_reported_after_the_last_part() {
        let text = text_of(4, &["d0: F0^0", "d1: F0^0", "d2: F0^0"]);
        let e = every_split_agrees(&text).unwrap_err();
        assert_eq!(
            (e.line, e.what.as_str()),
            (7, "wrong number of device lines")
        );
        let e = every_split_agrees(text.trim_end()).unwrap_err();
        assert_eq!(
            (e.line, e.what.as_str()),
            (7, "wrong number of device lines")
        );
    }

    #[test]
    fn more_parts_than_device_lines_leave_some_parts_empty() {
        let text = text_of(2, &["d0: F0^0", "d1: F0^0"]);
        let mut starts = part_lines(&text, 8);
        starts.dedup();
        assert!(starts.len() < 7, "{starts:?}");
        assert_eq!(every_split_agrees(&text).unwrap().total_instrs(), 2);
        for parts in [1, 2, 5, 64] {
            assert_eq!(read(&text, Some(parts)), read(&text, Some(1)), "{parts}");
        }
    }

    #[test]
    fn garbage_tokens_do_not_parse() {
        for t in ["", "Z1^0", "F1", "SA1^0", "SA1^0>x2", "F^0", "cB1^0"] {
            assert_eq!(parse_instr(t), None, "{t:?}");
        }
    }
}
