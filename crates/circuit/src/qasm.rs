//! OpenQASM 2.0 subset reader and writer.
//!
//! Supports the fragment needed to interchange benchmark circuits:
//! `OPENQASM 2.0`, one `qreg`, and applications of the gates in
//! [`crate::gate::Gate`] (named as [`Gate::from_name`] names them, plus
//! `CX` and `id`) to operands of the form `name[i]` on that register.
//! Parameter expressions may use `pi`, numeric literals, unary minus,
//! `+ - * /`, and parentheses. `creg` declarations are skipped.
//! `measure` and `barrier` are refused: a circuit is read only if it
//! can be kept whole, since dropping either would let the optimizer
//! rewrite across it and serve a circuit that is not the one sent.
//!
//! Both directions make one pass: [`from_qasm`] over the text, the
//! writers over the circuit's arena. [`from_qasm`] returns an error,
//! never panics, on malformed input; the register width and expression
//! nesting are capped ([`MAX_QUBITS`], [`MAX_EXPR_DEPTH`]) so a short
//! document can neither exhaust memory nor overflow the stack.

use crate::circuit::{Circuit, Instruction, Qubit};
use crate::gate::Gate;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Error from parsing a QASM document.
#[derive(Debug, Clone, PartialEq)]
pub struct QasmError {
    /// 1-based line number of the offending statement.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "qasm parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for QasmError {}

/// Widest `qreg` [`from_qasm`] accepts. Declaring a register
/// allocates per-qubit wire tables up front, so without a bound a
/// 30-byte `qreg q[4000000000];` exhausts memory. The bound sits far
/// above the widest circuit of the `workloads` suite (36 qubits).
pub const MAX_QUBITS: usize = 65_536;

/// Deepest nesting [`from_qasm`] accepts in a parameter expression:
/// each parenthesis and each unary sign is one level. The expression
/// parser recurses once per level, so the bound keeps an argument such
/// as `((((…))))` or `----…1` from overflowing the stack.
pub const MAX_EXPR_DEPTH: usize = 64;

fn err(line: usize, message: impl Into<String>) -> QasmError {
    QasmError {
        line,
        message: message.into(),
    }
}

/// Serializes a circuit as OpenQASM 2.0.
///
/// ```
/// use qcir::{Circuit, Gate, qasm};
/// let mut c = Circuit::new(2);
/// c.push(Gate::H, &[0]);
/// c.push(Gate::Cx, &[0, 1]);
/// let text = qasm::to_qasm(&c);
/// let back = qasm::from_qasm(&text).unwrap();
/// assert_eq!(back.len(), 2);
/// ```
pub fn to_qasm(circuit: &Circuit) -> String {
    render_qasm(circuit, "\n")
}

/// Serializes a circuit as *single-line* OpenQASM 2.0: the same
/// statements as [`to_qasm`], separated by spaces instead of newlines.
///
/// QASM statements are `;`-terminated, so newlines are purely
/// cosmetic; [`from_qasm`] parses both forms identically. The
/// single-line form is what a line-delimited streaming protocol needs —
/// a whole circuit snapshot travels as one frame field with no escaping
/// (see the `qserve` crate). The output is guaranteed to contain no
/// `\n` or `\r`.
///
/// ```
/// use qcir::{Circuit, Gate, qasm};
/// let mut c = Circuit::new(2);
/// c.push(Gate::H, &[0]);
/// c.push(Gate::Cx, &[0, 1]);
/// let line = qasm::to_qasm_line(&c);
/// assert!(!line.contains('\n'));
/// assert_eq!(qasm::from_qasm(&line).unwrap(), c);
/// ```
pub fn to_qasm_line(circuit: &Circuit) -> String {
    let s = render_qasm(circuit, " ");
    debug_assert!(!s.contains('\n') && !s.contains('\r'));
    s
}

/// Shared emitter: one statement per `sep`-joined chunk. The statement
/// text itself is identical between the multi-line and single-line
/// forms, so `from_qasm(to_qasm_line(c))` and `from_qasm(to_qasm(c))`
/// produce the same circuit bit for bit.
///
/// One pass over the arena into a buffer sized up front: no per-gate
/// allocation, and no positional copy is left cached on the circuit.
fn render_qasm(circuit: &Circuit, sep: &str) -> String {
    let mut s = String::with_capacity(64 + 32 * circuit.len());
    s.push_str("OPENQASM 2.0;");
    s.push_str(sep);
    s.push_str("include \"qelib1.inc\";");
    s.push_str(sep);
    let _ = write!(s, "qreg q[{}];", circuit.num_qubits());
    let mut scratch = String::new();
    circuit.for_each_slot(|kind, params, qubits| {
        s.push_str(sep);
        s.push_str(kind.name());
        if let Some((&first, rest)) = params.split_first() {
            s.push('(');
            push_param(&mut s, first, &mut scratch);
            for &p in rest {
                s.push(',');
                push_param(&mut s, p, &mut scratch);
            }
            s.push(')');
        }
        let mut lead = " q[";
        for &q in qubits {
            s.push_str(lead);
            let _ = write!(s, "{q}");
            s.push(']');
            lead = ",q[";
        }
        s.push(';');
    });
    if sep == "\n" {
        s.push('\n');
    }
    s
}

/// Appends an angle so that [`from_qasm`] recovers the exact `f64`.
///
/// The format is 17 fractional digits (the historical golden-fixture
/// format). For a finite `|p| ≥ 0.1` those are at least 17 significant
/// digits, which always round-trip, and `±0` prints exactly, so these
/// values are written directly. Smaller magnitudes can lose significant
/// digits at that width — `0.015590366766198294` truncates one digit
/// short — so for them (and for NaN and ±∞) precision escalates until
/// the text parses back to `p`, and established output bytes never
/// change.
fn push_param(out: &mut String, p: f64, scratch: &mut String) {
    if p == 0.0 || (p.is_finite() && p.abs() >= 0.1) {
        let _ = write!(out, "{p:.17}");
        return;
    }
    for prec in 17..=40usize {
        scratch.clear();
        let _ = write!(scratch, "{p:.prec$}");
        if scratch.parse::<f64>() == Ok(p) {
            out.push_str(scratch);
            return;
        }
    }
    // Nothing parses back to NaN: keep the 17-digit form.
    let _ = write!(out, "{p:.17}");
}

/// Parses an OpenQASM 2.0 document into a circuit.
///
/// One pass over the text: statements end at `;`, at a newline or at a
/// `//` comment, and each is read in place by [`gate_application`] with
/// no allocation per statement or per angle. The gates are collected
/// and the circuit's arena is built once at the end.
///
/// # Errors
///
/// Returns [`QasmError`], with the line of the statement, on `measure`
/// and `barrier`, other unsupported statements, unknown gates, a
/// parameter count the gate does not take, malformed expressions, an
/// operand that is not `name[i]` on the declared register, or qubit
/// indices out of range.
pub fn from_qasm(text: &str) -> Result<Circuit, QasmError> {
    let statements = Statements {
        text,
        pos: 0,
        line: 1,
    };
    let mut register: Option<Register> = None;
    let mut instrs = Vec::new();
    let mut operands = Vec::new();
    for (line, raw) in statements {
        let stmt = raw.trim();
        if stmt.is_empty() || stmt.starts_with("OPENQASM") || stmt.starts_with("include") {
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("qreg") {
            let (name, size) = indexed(rest)
                .filter(|&(name, _)| is_identifier(name))
                .ok_or_else(|| {
                    err(
                        line,
                        format!("malformed register declaration `{}`", rest.trim()),
                    )
                })?;
            let n: usize = size
                .trim()
                .parse()
                .map_err(|_| err(line, "bad qreg size"))?;
            if n > MAX_QUBITS {
                return Err(err(
                    line,
                    format!("qreg of {n} qubits exceeds the limit of {MAX_QUBITS}"),
                ));
            }
            if register.is_some() {
                return Err(err(line, "multiple qreg declarations unsupported"));
            }
            register = Some(Register { name, size: n });
            continue;
        }
        for keyword in ["measure", "barrier"] {
            if stmt.starts_with(keyword) {
                return Err(err(
                    line,
                    format!("`{keyword}` is not supported: only unitary gates can be optimized"),
                ));
            }
        }
        if stmt.starts_with("creg") {
            continue; // classical bits: nothing reads them
        }
        let reg = register.ok_or_else(|| err(line, "gate before qreg declaration"))?;
        instrs.extend(gate_application(stmt, reg, &mut operands).map_err(|m| err(line, m))?);
    }
    let reg = register.ok_or_else(|| err(0, "no qreg declaration found"))?;
    Ok(Circuit::from_slice(reg.size, &instrs))
}

/// The document's one quantum register.
#[derive(Clone, Copy)]
struct Register<'a> {
    name: &'a str,
    size: usize,
}

/// The statements of a document with their 1-based line numbers. A
/// statement ends at `;`, at `\n` or where a `//` comment starts (the
/// comment runs to the end of its line), so no statement spans lines.
struct Statements<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Iterator for Statements<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if start >= bytes.len() {
            return None;
        }
        let line = self.line;
        let mut i = start;
        loop {
            let Some(k) = bytes[i..]
                .iter()
                .position(|&b| matches!(b, b';' | b'\n' | b'/'))
            else {
                self.pos = bytes.len();
                return Some((line, &self.text[start..]));
            };
            i += k;
            match bytes[i] {
                b';' => {
                    self.pos = i + 1;
                    return Some((line, &self.text[start..i]));
                }
                b'\n' => {
                    self.pos = i + 1;
                    self.line += 1;
                    return Some((line, &self.text[start..i]));
                }
                _ if bytes.get(i + 1) == Some(&b'/') => {
                    // Resume at the newline, which ends the line.
                    self.pos = find_byte(self.text, i, b'\n').unwrap_or(bytes.len());
                    return Some((line, &self.text[start..i]));
                }
                _ => i += 1, // a lone `/`
            }
        }
    }
}

/// Position of the first `byte` in `s` at or after `from`.
fn find_byte(s: &str, from: usize, byte: u8) -> Option<usize> {
    s.as_bytes()[from..]
        .iter()
        .position(|&c| c == byte)
        .map(|k| from + k)
}

/// `name[index]`, with blanks allowed around each part, split into its
/// name and index text; `None` for any other text, such as text after
/// the `]`.
fn indexed(s: &str) -> Option<(&str, &str)> {
    let s = s.trim();
    let open = find_byte(s, 0, b'[')?;
    let close = find_byte(s, open + 1, b']')?;
    (close + 1 == s.len()).then(|| (s[..open].trim(), &s[open + 1..close]))
}

/// An OpenQASM identifier: a letter or `_`, then letters, digits and
/// `_`.
fn is_identifier(s: &str) -> bool {
    let mut bytes = s.bytes();
    bytes
        .next()
        .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_')
        && bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// A qubit operand: the index of `name[i]`, where `name` is the
/// declared register's.
fn operand(op: &str, reg: Register) -> Result<Qubit, String> {
    match indexed(op) {
        Some((name, index)) if name == reg.name => index
            .trim()
            .parse()
            .map_err(|_| "bad qubit index".to_string()),
        _ => Err(format!(
            "operand `{}` is not an index into register `{}`",
            op.trim(),
            reg.name
        )),
    }
}

/// Reads one gate statement (trimmed, non-empty): `None` for an `id`,
/// which is dropped. `qubits` is scratch space for the operands.
fn gate_application(
    stmt: &str,
    reg: Register,
    qubits: &mut Vec<Qubit>,
) -> Result<Option<Instruction>, String> {
    let (head, operand_list) = split_head(stmt)?;
    let mut params = [0.0; 3];
    let mut n_params = 0;
    let name = match find_byte(head, 0, b'(') {
        Some(k) => {
            let after = &head[k + 1..];
            let close = after
                .bytes()
                .rposition(|c| c == b')')
                .ok_or("unclosed parameter list")?;
            for expr in pieces(&after[..close]) {
                if n_params == params.len() {
                    return Err("more than three parameters".into());
                }
                params[n_params] = parse_angle(expr)?;
                n_params += 1;
            }
            &head[..k]
        }
        None => head,
    };
    let params = &params[..n_params];

    qubits.clear();
    for op in pieces(operand_list) {
        let idx = operand(op, reg)?;
        if idx as usize >= reg.size {
            return Err(format!("qubit {idx} out of range"));
        }
        if qubits.contains(&idx) {
            return Err(format!("gate {name} repeats operand q[{idx}]"));
        }
        qubits.push(idx);
    }

    let gate = match name {
        "id" if params.is_empty() => return Ok(None), // explicit identity: drop
        "CX" => Gate::from_name("cx", params),
        _ => Gate::from_name(name, params),
    }
    .ok_or_else(|| bad_gate(name, params.len()))?;
    if qubits.len() != gate.arity() {
        return Err(format!(
            "gate {name} expects {} operands, got {}",
            gate.arity(),
            qubits.len()
        ));
    }
    Ok(Some(Instruction::new(gate, qubits)))
}

/// The `,`-separated pieces of `s` (one empty piece for an empty `s`).
fn pieces(s: &str) -> impl Iterator<Item = &str> {
    let mut start = Some(0);
    std::iter::from_fn(move || {
        let from = start?;
        let end = find_byte(s, from, b',');
        start = end.map(|e| e + 1);
        Some(&s[from..end.unwrap_or(s.len())])
    })
}

/// Splits a gate statement into its head (`name` or `name(params)`)
/// and its operand list. The head ends at the first whitespace, unless
/// a parameter list is still open there; then it ends at the first `)`.
fn split_head(stmt: &str) -> Result<(&str, &str), String> {
    let bytes = stmt.as_bytes();
    let (mut open, mut close) = (false, None);
    let mut i = 0;
    let ws = loop {
        let Some(&b) = bytes.get(i) else {
            break None;
        };
        if b < 0x80 {
            match b {
                b'(' => open = true,
                b')' if close.is_none() => close = Some(i),
                b' ' | b'\t'..=b'\r' => break Some(i),
                _ => {}
            }
            i += 1;
        } else {
            let ch = stmt[i..].chars().next().expect("i is a char boundary");
            if ch.is_whitespace() {
                break Some(i);
            }
            i += ch.len_utf8();
        }
    };
    match ws {
        Some(w) if !open || close.is_some() => Ok((&stmt[..w], stmt[w..].trim())),
        _ => match close.or_else(|| find_byte(stmt, i, b')')) {
            Some(j) => Ok((&stmt[..=j], stmt[j + 1..].trim())),
            None if ws.is_some() => Err("unclosed parameter list".into()),
            None => Err("malformed gate application".into()),
        },
    }
}

/// The error for a name [`Gate::from_name`] refused: unknown, or known
/// with another parameter count.
fn bad_gate(name: &str, got: usize) -> String {
    let takes = match name {
        "id" => Some(0),
        _ => (0..=3).find(|&k| {
            Gate::from_name(if name == "CX" { "cx" } else { name }, &[0.0; 3][..k]).is_some()
        }),
    };
    match takes {
        Some(k) => format!("gate {name} takes {k} parameters, got {got}"),
        None => format!("unknown gate `{name}`"),
    }
}

// ---- angles: numbers, pi, + - * /, parens, unary signs -----------------

/// Evaluates one parameter expression.
///
/// A plain decimal such as the writer prints (`0.5`, `-1.25`) is one
/// number token, after a `Minus` when negated: it is parsed directly,
/// with the value the grammar below gives it. Anything else goes
/// through the grammar.
fn parse_angle(src: &str) -> Result<f64, String> {
    let (negative, digits) = match src.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, src),
    };
    if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit() || b == b'.') {
        if let Ok(v) = digits.parse::<f64>() {
            return Ok(if negative { -v } else { v });
        }
    }
    let mut e = Expr {
        src,
        pos: 0,
        ahead: None,
    };
    let v = e.sum(0)?;
    if e.peek()?.is_some() {
        return Err(format!("trailing tokens in expression `{src}`"));
    }
    Ok(v)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok {
    Num(f64),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
}

/// Recursive descent over an expression's bytes with one token of
/// lookahead, lexed on demand. `depth` counts the parentheses and unary
/// signs around the current position; [`Expr::atom`] refuses to nest
/// past [`MAX_EXPR_DEPTH`].
struct Expr<'a> {
    src: &'a str,
    pos: usize,
    /// The next token, once lexed (`Some(None)` at the end).
    ahead: Option<Option<Tok>>,
}

impl Expr<'_> {
    fn peek(&mut self) -> Result<Option<Tok>, String> {
        if let Some(t) = self.ahead {
            return Ok(t);
        }
        let t = self.lex()?;
        self.ahead = Some(t);
        Ok(t)
    }

    /// Consumes the token [`Self::peek`] returned.
    fn bump(&mut self) {
        self.ahead = None;
    }

    fn lex(&mut self) -> Result<Option<Tok>, String> {
        let bytes = self.src.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
        let Some(&c) = bytes.get(self.pos) else {
            return Ok(None);
        };
        let tok = match c {
            b'+' => Tok::Plus,
            b'-' => Tok::Minus,
            b'*' => Tok::Star,
            b'/' => Tok::Slash,
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'p' | b'P' if matches!(bytes.get(self.pos + 1), Some(b'i' | b'I')) => {
                self.pos += 2;
                return Ok(Some(Tok::Num(std::f64::consts::PI)));
            }
            b'0'..=b'9' | b'.' => {
                let start = self.pos;
                let mut i = start;
                while let Some(&d) = bytes.get(i) {
                    let sign_of_exponent = (d == b'+' || d == b'-')
                        && i > start
                        && matches!(bytes[i - 1], b'e' | b'E');
                    if d.is_ascii_digit() || matches!(d, b'.' | b'e' | b'E') || sign_of_exponent {
                        i += 1;
                    } else {
                        break;
                    }
                }
                self.pos = i;
                let v = self.src[start..i]
                    .parse()
                    .map_err(|_| format!("bad number in `{}`", self.src))?;
                return Ok(Some(Tok::Num(v)));
            }
            _ => {
                let ch = self.src[self.pos..].chars().next().unwrap_or('?');
                return Err(format!("unexpected character `{ch}` in `{}`", self.src));
            }
        };
        self.pos += 1;
        Ok(Some(tok))
    }

    fn sum(&mut self, depth: usize) -> Result<f64, String> {
        let mut acc = self.product(depth)?;
        loop {
            match self.peek()? {
                Some(Tok::Plus) => {
                    self.bump();
                    acc += self.product(depth)?;
                }
                Some(Tok::Minus) => {
                    self.bump();
                    acc -= self.product(depth)?;
                }
                _ => return Ok(acc),
            }
        }
    }

    fn product(&mut self, depth: usize) -> Result<f64, String> {
        let mut acc = self.atom(depth)?;
        loop {
            match self.peek()? {
                Some(Tok::Star) => {
                    self.bump();
                    acc *= self.atom(depth)?;
                }
                Some(Tok::Slash) => {
                    self.bump();
                    acc /= self.atom(depth)?;
                }
                _ => return Ok(acc),
            }
        }
    }

    fn atom(&mut self, depth: usize) -> Result<f64, String> {
        match self.peek()? {
            Some(Tok::Num(v)) => {
                self.bump();
                Ok(v)
            }
            Some(Tok::Minus | Tok::Plus | Tok::LParen) if depth >= MAX_EXPR_DEPTH => Err(format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            )),
            Some(Tok::Minus) => {
                self.bump();
                Ok(-self.atom(depth + 1)?)
            }
            Some(Tok::Plus) => {
                self.bump();
                self.atom(depth + 1)
            }
            Some(Tok::LParen) => {
                self.bump();
                let v = self.sum(depth + 1)?;
                if self.peek()? != Some(Tok::RParen) {
                    return Err("missing closing paren".into());
                }
                self.bump();
                Ok(v)
            }
            _ => Err("expected a value".into()),
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::hs_distance;
    use std::f64::consts::PI;

    #[test]
    fn roundtrip() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Rz(PI / 3.0), &[1]);
        c.push(Gate::Cx, &[0, 2]);
        c.push(Gate::U3(0.1, -0.2, 0.3), &[2]);
        c.push(Gate::Ccx, &[0, 1, 2]);
        let text = to_qasm(&c);
        let back = from_qasm(&text).unwrap();
        assert_eq!(back.len(), c.len());
        assert!(hs_distance(&back.unitary(), &c.unitary()) < 1e-7);
    }

    #[test]
    fn single_line_form_parses_to_the_same_circuit() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Rz(PI / 3.0), &[1]);
        c.push(Gate::Cx, &[0, 2]);
        c.push(Gate::U3(0.1, -0.2, 0.3), &[2]);
        c.push(Gate::Ccx, &[0, 1, 2]);
        let line = to_qasm_line(&c);
        assert!(!line.contains('\n') && !line.contains('\r'));
        assert_eq!(from_qasm(&line).unwrap(), from_qasm(&to_qasm(&c)).unwrap());
    }

    #[test]
    fn single_line_emit_is_byte_stable() {
        // parse → emit must be a fixpoint: the streaming snapshots rely
        // on stable serialization for differential comparison.
        let mut c = Circuit::new(2);
        c.push(Gate::Rz(0.4), &[0]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::U2(-1.25, 0.5), &[1]);
        let line = to_qasm_line(&c);
        let reparsed = from_qasm(&line).unwrap();
        assert_eq!(to_qasm_line(&reparsed), line);
        let text = to_qasm(&c);
        assert_eq!(to_qasm(&from_qasm(&text).unwrap()), text);
    }

    fn param_text(p: f64) -> String {
        let mut s = String::new();
        push_param(&mut s, p, &mut String::new());
        s
    }

    #[test]
    fn small_angles_roundtrip_exactly() {
        // Magnitudes below 0.1 need more than 17 fractional digits;
        // push_param escalates precision until the parse recovers the
        // exact bits. Larger magnitudes keep the historical fixed-width
        // form so golden fixtures stay byte-identical.
        for &a in &[-0.015590366766198294, 1e-9, -3.2e-5, 0.1, -0.7, PI / 3.0] {
            let mut c = Circuit::new(1);
            c.push(Gate::Rz(a), &[0]);
            let back = from_qasm(&to_qasm(&c)).unwrap();
            assert_eq!(back.instruction(0).gate, Gate::Rz(a), "angle {a:e}");
        }
        assert_eq!(param_text(0.1), "0.10000000000000001");
        assert_eq!(param_text(2.25), "2.25000000000000000");
    }

    #[test]
    fn empty_circuit_single_line() {
        let c = Circuit::new(4);
        let line = to_qasm_line(&c);
        let back = from_qasm(&line).unwrap();
        assert_eq!(back.num_qubits(), 4);
        assert!(back.is_empty());
    }

    #[test]
    fn parses_pi_expressions() {
        let src = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[2];
            rz(pi/4) q[0];
            rz(-pi/2) q[1];
            rz(3*pi/4) q[0];
            cp(pi/8 + pi/8) q[0],q[1];
            u3(0.5, -0.25e1, pi) q[1];
        "#;
        let c = from_qasm(src).unwrap();
        assert_eq!(c.len(), 5);
        match c.instructions()[0].gate {
            Gate::Rz(a) => assert!((a - PI / 4.0).abs() < 1e-12),
            other => panic!("expected rz, got {other}"),
        }
        match c.instructions()[3].gate {
            Gate::Cp(a) => assert!((a - PI / 4.0).abs() < 1e-12),
            other => panic!("expected cp, got {other}"),
        }
    }

    #[test]
    fn rejects_unknown_gate() {
        let src = "qreg q[1];\nfoo q[0];\n";
        let e = from_qasm(src).unwrap_err();
        assert!(e.to_string().contains("unknown gate"));
    }

    #[test]
    fn rejects_out_of_range() {
        let src = "qreg q[1];\nh q[3];\n";
        assert!(from_qasm(src).is_err());
    }

    #[test]
    fn skips_comments_and_creg_but_refuses_measure_and_barrier() {
        let src = "OPENQASM 2.0;\nqreg q[2]; creg c[2];\nh q[0]; // a comment\n";
        assert_eq!(from_qasm(src).unwrap().len(), 1);
        for (stmt, keyword) in [
            ("measure q[0] -> c[0];", "measure"),
            ("barrier q[0], q[1];", "barrier"),
        ] {
            let e = from_qasm(&format!("{src}{stmt}\nh q[0];\n")).unwrap_err();
            assert_eq!(e.line, 4, "{e}");
            assert!(e.message.contains(keyword), "{e}");
        }
        // Read without the measurement, this was H·H: an empty circuit.
        assert!(from_qasm("qreg q[1]; creg c[1]; h q[0]; measure q[0] -> c[0]; h q[0];").is_err());
    }

    #[test]
    fn operands_must_index_the_declared_register() {
        for src in [
            "qreg q[2]; h r[0];",
            "qreg q[2]; cx junk[0]tail, q[1];",
            "qreg q[2]; cx q[0], q[1]tail;",
            "qreg q[2]; h qq[0];",
            "qreg q[2]; h q[0]];",
            "qreg q[2]; h [0];",
            "qreg q[2]; u3(1, 2, 3)x q[0];",
        ] {
            let e = from_qasm(src).unwrap_err();
            assert!(e.message.contains("register `q`"), "{src}: {e}");
        }
        for src in ["qreg [2];", "qreg q[2]junk;", "qreg 2q[2];"] {
            let e = from_qasm(src).unwrap_err();
            assert!(e.message.contains("register declaration"), "{src}: {e}");
        }
        // Any register name reads, with blanks around the parts of an
        // operand, as the same circuit.
        let named = from_qasm("qreg a_1 [2]; cx a_1[0], a_1 [ 1 ]; h a_1[1];").unwrap();
        assert_eq!(
            named,
            from_qasm("qreg q[2]; cx q[0],q[1]; h q[1];").unwrap()
        );
    }

    #[test]
    fn multiple_statements_one_line() {
        let src = "qreg q[2]; h q[0]; cx q[0],q[1];";
        let c = from_qasm(src).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn rejects_reversed_qreg_brackets() {
        assert!(from_qasm("qreg q]2[;").is_err());
    }

    #[test]
    fn rejects_reversed_operand_brackets() {
        assert!(from_qasm("qreg q[2]; h q]0[;").is_err());
    }

    #[test]
    fn rejects_reversed_parameter_parens() {
        assert!(from_qasm("qreg q[2]; rz)(0 q[0];").is_err());
    }

    #[test]
    fn rejects_repeated_two_qubit_operand() {
        let e = from_qasm("qreg q[2]; cx q[0], q[0];").unwrap_err();
        assert!(e.message.contains("repeats operand"), "{e}");
    }

    #[test]
    fn rejects_repeated_three_qubit_operand() {
        assert!(from_qasm("qreg q[3]; ccx q[0],q[1],q[0];").is_err());
    }

    #[test]
    fn rejects_register_wider_than_the_limit() {
        assert!(from_qasm("qreg q[4000000000];").is_err());
        assert!(from_qasm(&format!("qreg q[{}];", MAX_QUBITS + 1)).is_err());
        let widest = from_qasm(&format!("qreg q[{MAX_QUBITS}];")).unwrap();
        assert_eq!(widest.num_qubits(), MAX_QUBITS);
    }

    /// `rz(` with its argument wrapped in `depth` parentheses.
    fn nested_parens(depth: usize) -> String {
        format!(
            "qreg q[1]; rz({}1{}) q[0];",
            "(".repeat(depth),
            ")".repeat(depth)
        )
    }

    #[test]
    fn rejects_parentheses_nested_past_the_limit() {
        assert!(from_qasm(&nested_parens(200_000)).is_err());
        assert!(from_qasm(&nested_parens(MAX_EXPR_DEPTH + 1)).is_err());
        assert!(from_qasm(&nested_parens(MAX_EXPR_DEPTH)).is_ok());
    }

    #[test]
    fn rejects_unary_minus_chain_past_the_limit() {
        let chain = |n: usize| format!("qreg q[1]; rz({}1) q[0];", "-".repeat(n));
        assert!(from_qasm(&chain(400_000)).is_err());
        assert!(from_qasm(&chain(MAX_EXPR_DEPTH + 1)).is_err());
        let c = from_qasm(&chain(MAX_EXPR_DEPTH)).unwrap();
        assert_eq!(c.instruction(0).gate, Gate::Rz(1.0));
    }

    #[test]
    fn rejects_parameters_on_a_fixed_gate() {
        // Dropped silently by the split-based reader; refused by the CD1
        // delta decoder's `Gate::from_name`, and now here too.
        for src in [
            "qreg q[2]; h(0.5) q[0];",
            "qreg q[2]; cx(1) q[0],q[1];",
            "qreg q[2]; CX(1) q[0],q[1];",
            "qreg q[2]; id(0.5) q[0];",
            "qreg q[1]; rz(1,2,3,4) q[0];",
        ] {
            assert!(from_qasm(src).is_err(), "{src}");
            assert!(
                oracle::from_qasm(src).is_ok() || src.contains("rz"),
                "{src}"
            );
        }
        let e = from_qasm("qreg q[1]; h(0.5) q[0];").unwrap_err();
        assert!(e.message.contains("takes 0 parameters"), "{e}");
        let e = from_qasm("qreg q[1]; rz q[0];").unwrap_err();
        assert!(e.message.contains("takes 1 parameters"), "{e}");
    }

    #[test]
    fn keeps_the_permissive_forms_of_the_split_reader() {
        // Statements end at a newline as well as at `;`, `id` takes any
        // operands and is dropped, and the head may run up to the first
        // `)` when its parameter list holds spaces. (Operand text
        // outside the brackets is refused:
        // `operands_must_index_the_declared_register`.)
        let src = "qreg r[3]\nh r[0]\nid r[0],r[1],r[2]\nrz(pi / 2)r[1]\nu3(1, 2 ,3) r[2];";
        let c = from_qasm(src).unwrap();
        assert_eq!(c, oracle::from_qasm(src).unwrap());
        assert_eq!(c.len(), 3);
        assert_eq!(c.instruction(2).gate, Gate::U3(1.0, 2.0, 3.0));
    }

    #[test]
    fn reports_the_line_of_the_bad_statement() {
        let e =
            from_qasm("OPENQASM 2.0;\r\nqreg q[1];\r\n// h q[0];\r\nfoo q[0];\r\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert_eq!(from_qasm("").unwrap_err().line, 0);
    }
}
