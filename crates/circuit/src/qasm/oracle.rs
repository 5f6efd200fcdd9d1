//! The split-based QASM reader and the `Vec<String>` writer that
//! [`super::from_qasm`] and [`super::to_qasm`] replaced, kept verbatim as
//! test oracles: the one-pass reader must accept what this reader
//! accepts and return the same circuit (a parameter list on a fixed gate
//! is the one deliberate difference: this reader drops it), and the
//! writer must emit the same bytes.

use super::{err, QasmError, MAX_EXPR_DEPTH, MAX_QUBITS};
use crate::circuit::{Circuit, Qubit};
use crate::gate::Gate;
use std::fmt::Write as _;

/// Shared emitter: one statement per `sep`-joined chunk. The statement
/// text itself is identical between the multi-line and single-line
/// forms, so `from_qasm(to_qasm_line(c))` and `from_qasm(to_qasm(c))`
/// produce the same circuit bit for bit.
pub(super) fn render_qasm(circuit: &Circuit, sep: &str) -> String {
    let mut s = String::new();
    s.push_str("OPENQASM 2.0;");
    s.push_str(sep);
    s.push_str("include \"qelib1.inc\";");
    s.push_str(sep);
    let _ = write!(s, "qreg q[{}];", circuit.num_qubits());
    for ins in circuit.iter() {
        s.push_str(sep);
        let params = ins.gate.params();
        if params.is_empty() {
            let _ = write!(s, "{}", ins.gate.name());
        } else {
            let rendered: Vec<String> = params.iter().map(|&p| render_param(p)).collect();
            let _ = write!(s, "{}({})", ins.gate.name(), rendered.join(","));
        }
        let qs: Vec<String> = ins.qubits().iter().map(|q| format!("q[{q}]")).collect();
        let _ = write!(s, " {};", qs.join(","));
    }
    if sep == "\n" {
        s.push('\n');
    }
    s
}

/// Renders an angle so that [`from_qasm`] recovers the exact `f64`.
///
/// 17 fractional digits are enough for any magnitude ≥ 0.1 (and match
/// the historical golden-fixture format byte for byte), but lose
/// significant digits for smaller magnitudes — `0.015590366766198294`
/// truncates one digit short. Escalate precision only when the fixed
/// width fails to parse back, so established output bytes never change.
pub(super) fn render_param(p: f64) -> String {
    let s = format!("{p:.17}");
    if s.parse::<f64>() == Ok(p) {
        return s;
    }
    for prec in 18..=40usize {
        let s = format!("{p:.prec$}");
        if s.parse::<f64>() == Ok(p) {
            return s;
        }
    }
    s
}

/// Parses an OpenQASM 2.0 document into a circuit.
///
/// # Errors
///
/// Returns [`QasmError`] on unsupported statements, unknown gates, malformed
/// expressions, or qubit indices out of range.
pub(super) fn from_qasm(text: &str) -> Result<Circuit, QasmError> {
    let mut circuit: Option<Circuit> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let stmt = match raw.find("//") {
            Some(i) => &raw[..i],
            None => raw,
        }
        .trim();
        if stmt.is_empty() {
            continue;
        }
        for part in stmt.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if part.starts_with("OPENQASM") || part.starts_with("include") {
                continue;
            }
            if let Some(rest) = part.strip_prefix("qreg") {
                let n: usize = bracketed(rest)
                    .ok_or_else(|| err(line, "malformed qreg"))?
                    .trim()
                    .parse()
                    .map_err(|_| err(line, "bad qreg size"))?;
                if n > MAX_QUBITS {
                    return Err(err(
                        line,
                        format!("qreg of {n} qubits exceeds the limit of {MAX_QUBITS}"),
                    ));
                }
                if circuit.is_some() {
                    return Err(err(line, "multiple qreg declarations unsupported"));
                }
                circuit = Some(Circuit::new(n));
                continue;
            }
            if part.starts_with("creg")
                || part.starts_with("barrier")
                || part.starts_with("measure")
            {
                continue; // ignored: classical bookkeeping
            }
            let c = circuit
                .as_mut()
                .ok_or_else(|| err(line, "gate before qreg declaration"))?;
            parse_gate_application(part, line, c)?;
        }
    }
    circuit.ok_or_else(|| err(0, "no qreg declaration found"))
}

/// The text between the first `[` of `s` and the first `]` after it.
fn bracketed(s: &str) -> Option<&str> {
    let open = s.find('[')? + 1;
    let close = open + s[open..].find(']')?;
    Some(&s[open..close])
}

fn parse_gate_application(stmt: &str, line: usize, c: &mut Circuit) -> Result<(), QasmError> {
    // Split off "name(params)" from operand list.
    let (head, operands) = match stmt.find(|ch: char| ch.is_whitespace()) {
        Some(i) if !stmt[..i].contains('(') || stmt[..i].contains(')') => {
            (stmt[..i].trim(), stmt[i..].trim())
        }
        _ => {
            // Parameterized with possible space inside parens: find the
            // closing paren.
            match stmt.find(')') {
                Some(i) => (stmt[..=i].trim(), stmt[i + 1..].trim()),
                None => {
                    let i = stmt
                        .find(|ch: char| ch.is_whitespace())
                        .ok_or_else(|| err(line, "malformed gate application"))?;
                    (stmt[..i].trim(), stmt[i..].trim())
                }
            }
        }
    };
    let (name, params) = match head.find('(') {
        Some(i) => {
            let after = &head[i + 1..];
            let close = after
                .rfind(')')
                .ok_or_else(|| err(line, "unclosed parameter list"))?;
            let mut vals = Vec::new();
            for e in after[..close].split(',') {
                vals.push(parse_expr(e).map_err(|m| err(line, m))?);
            }
            (&head[..i], vals)
        }
        None => (head, Vec::new()),
    };

    let mut qubits: Vec<Qubit> = Vec::new();
    for op in operands.split(',') {
        let op = op.trim();
        let idx: Qubit = bracketed(op)
            .ok_or_else(|| err(line, format!("expected q[i] operand, got `{op}`")))?
            .trim()
            .parse()
            .map_err(|_| err(line, "bad qubit index"))?;
        if idx as usize >= c.num_qubits() {
            return Err(err(line, format!("qubit {idx} out of range")));
        }
        if qubits.contains(&idx) {
            return Err(err(line, format!("gate {name} repeats operand q[{idx}]")));
        }
        qubits.push(idx);
    }

    let need = |n: usize| -> Result<(), QasmError> {
        if params.len() == n {
            Ok(())
        } else {
            Err(err(
                line,
                format!("gate {name} expects {n} parameters, got {}", params.len()),
            ))
        }
    };
    let gate = match name {
        "x" => Gate::X,
        "y" => Gate::Y,
        "z" => Gate::Z,
        "h" => Gate::H,
        "s" => Gate::S,
        "sdg" => Gate::Sdg,
        "t" => Gate::T,
        "tdg" => Gate::Tdg,
        "sx" => Gate::Sx,
        "sxdg" => Gate::Sxdg,
        "id" => return Ok(()), // explicit identity: drop
        "rx" => {
            need(1)?;
            Gate::Rx(params[0])
        }
        "ry" => {
            need(1)?;
            Gate::Ry(params[0])
        }
        "rz" => {
            need(1)?;
            Gate::Rz(params[0])
        }
        "p" | "u1" => {
            need(1)?;
            Gate::P(params[0])
        }
        "u2" => {
            need(2)?;
            Gate::U2(params[0], params[1])
        }
        "u3" | "u" => {
            need(3)?;
            Gate::U3(params[0], params[1], params[2])
        }
        "cx" | "CX" => Gate::Cx,
        "cz" => Gate::Cz,
        "cp" | "cu1" => {
            need(1)?;
            Gate::Cp(params[0])
        }
        "crz" => {
            need(1)?;
            Gate::Crz(params[0])
        }
        "swap" => Gate::Swap,
        "rxx" => {
            need(1)?;
            Gate::Rxx(params[0])
        }
        "ryy" => {
            need(1)?;
            Gate::Ryy(params[0])
        }
        "rzz" => {
            need(1)?;
            Gate::Rzz(params[0])
        }
        "ccx" => Gate::Ccx,
        "ccz" => Gate::Ccz,
        other => return Err(err(line, format!("unknown gate `{other}`"))),
    };
    if qubits.len() != gate.arity() {
        return Err(err(
            line,
            format!(
                "gate {name} expects {} operands, got {}",
                gate.arity(),
                qubits.len()
            ),
        ));
    }
    c.push(gate, &qubits);
    Ok(())
}

// ---- tiny expression parser: numbers, pi, + - * /, parens, unary minus ----

fn parse_expr(src: &str) -> Result<f64, String> {
    let tokens = tokenize(src)?;
    let mut pos = 0usize;
    let v = parse_sum(&tokens, &mut pos, 0)?;
    if pos != tokens.len() {
        return Err(format!("trailing tokens in expression `{src}`"));
    }
    Ok(v)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Num(f64),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
}

#[allow(clippy::if_same_then_else)] // branch conditions differ, actions coincide
fn tokenize(src: &str) -> Result<Vec<Tok>, String> {
    let mut toks = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' => i += 1,
            '+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                toks.push(Tok::Minus);
                i += 1;
            }
            '*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            '/' => {
                toks.push(Tok::Slash);
                i += 1;
            }
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            'p' | 'P' if matches!(bytes.get(i + 1), Some(b'i' | b'I')) => {
                toks.push(Tok::Num(std::f64::consts::PI));
                i += 2;
            }
            _ if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_digit() || d == '.' || d == 'e' || d == 'E' {
                        i += 1;
                    } else if (d == '+' || d == '-')
                        && i > start
                        && matches!(bytes[i - 1] as char, 'e' | 'E')
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let v: f64 = src[start..i]
                    .parse()
                    .map_err(|_| format!("bad number in `{src}`"))?;
                toks.push(Tok::Num(v));
            }
            _ => return Err(format!("unexpected character `{c}` in `{src}`")),
        }
    }
    Ok(toks)
}

/// `depth` counts the parentheses and unary signs around the current
/// position; [`parse_atom`] refuses to nest past [`MAX_EXPR_DEPTH`].
fn parse_sum(toks: &[Tok], pos: &mut usize, depth: usize) -> Result<f64, String> {
    let mut acc = parse_product(toks, pos, depth)?;
    while *pos < toks.len() {
        match toks[*pos] {
            Tok::Plus => {
                *pos += 1;
                acc += parse_product(toks, pos, depth)?;
            }
            Tok::Minus => {
                *pos += 1;
                acc -= parse_product(toks, pos, depth)?;
            }
            _ => break,
        }
    }
    Ok(acc)
}

fn parse_product(toks: &[Tok], pos: &mut usize, depth: usize) -> Result<f64, String> {
    let mut acc = parse_atom(toks, pos, depth)?;
    while *pos < toks.len() {
        match toks[*pos] {
            Tok::Star => {
                *pos += 1;
                acc *= parse_atom(toks, pos, depth)?;
            }
            Tok::Slash => {
                *pos += 1;
                acc /= parse_atom(toks, pos, depth)?;
            }
            _ => break,
        }
    }
    Ok(acc)
}

fn parse_atom(toks: &[Tok], pos: &mut usize, depth: usize) -> Result<f64, String> {
    match toks.get(*pos) {
        Some(Tok::Num(v)) => {
            *pos += 1;
            Ok(*v)
        }
        Some(Tok::Minus | Tok::Plus | Tok::LParen) if depth >= MAX_EXPR_DEPTH => Err(format!(
            "expression nested deeper than {MAX_EXPR_DEPTH} levels"
        )),
        Some(Tok::Minus) => {
            *pos += 1;
            Ok(-parse_atom(toks, pos, depth + 1)?)
        }
        Some(Tok::Plus) => {
            *pos += 1;
            parse_atom(toks, pos, depth + 1)
        }
        Some(Tok::LParen) => {
            *pos += 1;
            let v = parse_sum(toks, pos, depth + 1)?;
            if toks.get(*pos) != Some(&Tok::RParen) {
                return Err("missing closing paren".into());
            }
            *pos += 1;
            Ok(v)
        }
        _ => Err("expected a value".into()),
    }
}
