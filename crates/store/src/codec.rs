//! Text codec for memoized evaluation payloads.
//!
//! The store persists one [`StoredEval`] per result entry: the
//! [`SimResult`] (minus observability artifacts) *plus the final memory
//! image* — simulation mutates memory in place, so a warm hit must
//! restore the complete end state, not just the root results.
//!
//! The encoding is deliberately a line-oriented text format rather than a
//! struct dump: floats round-trip exactly via their bit pattern
//! (`f<8 hex>`), every collection is length-prefixed, and a reader
//! rejects rather than guesses on any mismatch — decode failures map to
//! `E-STORE-DECODE` and quarantine the entry. Value tokens contain no
//! whitespace, so lists are space-separated:
//!
//! ```text
//! b0 / b1        boolean
//! i-42           integer (decimal)
//! f3f800000      f32 by bit pattern (1.0)
//! p              poison
//! v(tok;tok)     vector
//! t2x3(tok;...)  tensor tile, row-major
//! ```
//!
//! The `results` line carries [`Value`]s and may use every token. An
//! `obj` line is one memory object — `obj <n>` then `n` scalar tokens —
//! and is written from, and parsed straight into, the object's words
//! ([`ObjectImage`]): no `Value` is built per element. The three scalar
//! tokens are the three word kinds, so the line's first token names the
//! object's kind; a count that does not match, a second kind on the same
//! line, and a poison or composite token are all decode failures.

use muir_mir::interp::Memory;
use muir_mir::memory::{ElemKind, ObjectImage};
use muir_mir::types::TensorShape;
use muir_mir::value::Value;
use muir_sim::{FaultCounts, SimResult, SimStats, StructStats};
use std::fmt::Write as _;

/// What one result entry stores: the outcome and the final memory image.
#[derive(Debug, Clone)]
pub struct StoredEval {
    /// The simulation outcome (`profile`/`trace` always `None`; traced
    /// runs are never memoized).
    pub result: SimResult,
    /// The memory image after the run.
    pub mem: Memory,
}

/// Equality over the observable fields. `SimResult` itself does not
/// implement `PartialEq` (its optional profile/trace are large
/// observability artifacts); stored evals never carry those, so this
/// compares everything the codec persists.
impl PartialEq for StoredEval {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.result, &other.result);
        let (sa, sb) = (&a.stats, &b.stats);
        a.cycles == b.cycles
            && a.results == b.results
            && sa.cycles == sb.cycles
            && sa.fires == sb.fires
            && sa.task_invocations == sb.task_invocations
            && sa.task_busy_cycles == sb.task_busy_cycles
            && sa.struct_stats == sb.struct_stats
            && sa.dram_fills == sb.dram_fills
            && sa.faults == sb.faults
            && sa.sched_visits == sb.sched_visits
            && self.mem == other.mem
    }
}

/// A decode failure: what the codec expected and what it found.
pub(crate) type DecodeError = String;

// ---- value tokens ----

fn put_value(out: &mut String, v: &Value) {
    match v {
        Value::Bool(b) => out.push_str(if *b { "b1" } else { "b0" }),
        Value::Int(i) => {
            let _ = write!(out, "i{i}");
        }
        Value::F32(f) => {
            let _ = write!(out, "f{:08x}", f.to_bits());
        }
        Value::Poison => out.push('p'),
        Value::Vector(elems) => {
            out.push_str("v(");
            for (i, e) in elems.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                put_value(out, e);
            }
            out.push(')');
        }
        Value::Tensor { shape, data } => {
            let _ = write!(out, "t{}x{}(", shape.rows, shape.cols);
            for (i, e) in data.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                put_value(out, e);
            }
            out.push(')');
        }
    }
}

/// Recursive-descent token parser over bytes; `pos` advances past the
/// parsed token.
fn take_value(s: &[u8], pos: &mut usize) -> Result<Value, DecodeError> {
    let start = *pos;
    match s.get(*pos) {
        Some(b'b') => {
            *pos += 1;
            match s.get(*pos) {
                Some(b'0') => {
                    *pos += 1;
                    Ok(Value::Bool(false))
                }
                Some(b'1') => {
                    *pos += 1;
                    Ok(Value::Bool(true))
                }
                _ => Err(format!("bad bool token at byte {start}")),
            }
        }
        Some(b'i') => {
            *pos += 1;
            let num_start = *pos;
            if s.get(*pos) == Some(&b'-') {
                *pos += 1;
            }
            while s.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            let text = std::str::from_utf8(&s[num_start..*pos]).expect("digits are utf8");
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|e| format!("bad int token at byte {start}: {e}"))
        }
        Some(b'f') => {
            *pos += 1;
            let hex = s
                .get(*pos..*pos + 8)
                .ok_or_else(|| format!("short f32 token at byte {start}"))?;
            let text = std::str::from_utf8(hex).map_err(|_| "non-utf8 f32 token".to_string())?;
            let bits = u32::from_str_radix(text, 16)
                .map_err(|e| format!("bad f32 token at byte {start}: {e}"))?;
            *pos += 8;
            Ok(Value::F32(f32::from_bits(bits)))
        }
        Some(b'p') => {
            *pos += 1;
            Ok(Value::Poison)
        }
        Some(b'v') => {
            *pos += 1;
            let elems = take_paren_list(s, pos, start)?;
            Ok(Value::Vector(elems))
        }
        Some(b't') => {
            *pos += 1;
            let rows = take_u8(s, pos, b'x', start)?;
            let cols = take_u8(s, pos, b'(', start)?;
            *pos -= 1; // take_paren_list expects to consume the '('
            let data = take_paren_list(s, pos, start)?;
            Ok(Value::Tensor {
                shape: TensorShape::new(rows, cols),
                data,
            })
        }
        other => Err(format!(
            "unknown value token {:?} at byte {start}",
            other.map(|&b| b as char)
        )),
    }
}

fn take_u8(s: &[u8], pos: &mut usize, stop: u8, start: usize) -> Result<u8, DecodeError> {
    let num_start = *pos;
    while s.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&s[num_start..*pos]).expect("digits are utf8");
    let n = text
        .parse::<u8>()
        .map_err(|e| format!("bad tensor dim at byte {start}: {e}"))?;
    if s.get(*pos) != Some(&stop) {
        return Err(format!(
            "expected {:?} after tensor dim at byte {start}",
            stop as char
        ));
    }
    *pos += 1;
    Ok(n)
}

fn take_paren_list(s: &[u8], pos: &mut usize, start: usize) -> Result<Vec<Value>, DecodeError> {
    if s.get(*pos) != Some(&b'(') {
        return Err(format!("expected '(' at byte {start}"));
    }
    *pos += 1;
    let mut elems = Vec::new();
    if s.get(*pos) == Some(&b')') {
        *pos += 1;
        return Ok(elems);
    }
    loop {
        elems.push(take_value(s, pos)?);
        match s.get(*pos) {
            Some(b';') => *pos += 1,
            Some(b')') => {
                *pos += 1;
                return Ok(elems);
            }
            _ => return Err(format!("unterminated list starting at byte {start}")),
        }
    }
}

fn parse_value(tok: &str) -> Result<Value, DecodeError> {
    let bytes = tok.as_bytes();
    let mut pos = 0;
    let v = take_value(bytes, &mut pos)?;
    if pos != bytes.len() {
        return Err(format!("trailing bytes after value token {tok:?}"));
    }
    Ok(v)
}

/// Parse a counted token list into a vector of exactly that size.
/// (Collecting through `Result` has no size hint and grows by doubling;
/// a decoded memory image lives as long as the outcome that carries it,
/// so the slack would too.)
fn parse_values(toks: &[&str]) -> Result<Vec<Value>, DecodeError> {
    let mut vals = Vec::with_capacity(toks.len());
    for tok in toks {
        vals.push(parse_value(tok)?);
    }
    Ok(vals)
}

// ---- line-oriented record ----

struct Lines<'a> {
    inner: std::str::Lines<'a>,
    lineno: usize,
}

impl<'a> Lines<'a> {
    fn next(&mut self, what: &str) -> Result<&'a str, DecodeError> {
        self.lineno += 1;
        self.inner
            .next()
            .ok_or_else(|| format!("unexpected end of record, expected {what}"))
    }

    /// A line `"<key> <fields...>"`; returns the fields.
    fn fields(&mut self, key: &str) -> Result<Vec<&'a str>, DecodeError> {
        let line = self.next(key)?;
        let mut it = line.split(' ');
        let found = it.next().unwrap_or("");
        if found != key {
            return Err(format!(
                "line {}: expected {key:?}, found {found:?}",
                self.lineno
            ));
        }
        Ok(it.collect())
    }
}

fn parse_u64(field: &str, what: &str) -> Result<u64, DecodeError> {
    field
        .parse::<u64>()
        .map_err(|e| format!("bad {what} {field:?}: {e}"))
}

fn parse_u64s(fields: &[&str], what: &str) -> Result<Vec<u64>, DecodeError> {
    fields.iter().map(|f| parse_u64(f, what)).collect()
}

/// A counted list line: `"<key> <n> <item0> <item1> …"` with `n` items.
fn counted<'a>(fields: &[&'a str], what: &str) -> Result<Vec<&'a str>, DecodeError> {
    let n = parse_u64(fields.first().ok_or_else(|| format!("empty {what}"))?, what)? as usize;
    let items = &fields[1..];
    if items.len() != n {
        return Err(format!("{what}: declared {n} items, found {}", items.len()));
    }
    Ok(items.to_vec())
}

fn put_u64_list(out: &mut String, key: &str, vals: &[u64]) {
    let _ = write!(out, "{key} {}", vals.len());
    for v in vals {
        let _ = write!(out, " {v}");
    }
    out.push('\n');
}

fn put_value_list(out: &mut String, key: &str, vals: &[Value]) {
    let _ = write!(out, "{key} {}", vals.len());
    for v in vals {
        out.push(' ');
        put_value(out, v);
    }
    out.push('\n');
}

/// One memory object as `obj <n> <tok>…`: the tokens [`put_value`] writes
/// for the same scalars, straight from the words.
fn put_obj(out: &mut String, obj: &ObjectImage) {
    let words = obj.words();
    let _ = write!(out, "obj {}", words.len());
    match obj.kind() {
        ElemKind::Bool => {
            for &w in words {
                out.push_str(if w != 0 { " b1" } else { " b0" });
            }
        }
        ElemKind::Int => {
            for &w in words {
                let _ = write!(out, " i{}", w as i64);
            }
        }
        ElemKind::F32 => {
            for &w in words {
                let _ = write!(out, " f{:08x}", w as u32);
            }
        }
    }
    out.push('\n');
}

/// A decimal `i64` (`-?[0-9]+`), accumulated negatively so that
/// `i64::MIN` fits; `None` on anything else, overflow included.
fn parse_i64(text: &[u8]) -> Option<i64> {
    let (negative, digits) = match text.split_first()? {
        (b'-', rest) => (true, rest),
        _ => (false, text),
    };
    let mut acc = 0i64;
    for &d in digits {
        let d = d.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        acc = acc.checked_mul(10)?.checked_sub(i64::from(d))?;
    }
    match (digits.is_empty(), negative) {
        (true, _) => None,
        (false, true) => Some(acc),
        (false, false) => acc.checked_neg(),
    }
}

/// One scalar token as the word it stores and the kind that reads it.
fn take_word(tok: &[u8]) -> Option<(ElemKind, u64)> {
    let (&tag, body) = tok.split_first()?;
    match tag {
        b'b' => match body {
            b"0" => Some((ElemKind::Bool, 0)),
            b"1" => Some((ElemKind::Bool, 1)),
            _ => None,
        },
        b'i' => Some((ElemKind::Int, parse_i64(body)? as u64)),
        b'f' if body.len() == 8 => {
            let mut bits = 0;
            for &b in body {
                bits = bits << 4 | u64::from((b as char).to_digit(16)?);
            }
            Some((ElemKind::F32, bits))
        }
        _ => None,
    }
}

/// Parse an `obj` line straight into an object's words.
fn take_obj(line: &str, lineno: usize) -> Result<ObjectImage, DecodeError> {
    let mut toks = line.as_bytes().split(|&b| b == b' ');
    if toks.next() != Some(b"obj") {
        return Err(format!("line {lineno}: expected an \"obj\" line"));
    }
    let n = toks
        .next()
        .and_then(|tok| std::str::from_utf8(tok).ok()?.parse::<u64>().ok())
        .ok_or_else(|| format!("line {lineno}: bad obj count"))?;
    // A token is at least two bytes and a space, which bounds the count
    // before anything is allocated for it.
    if n > line.len() as u64 / 3 {
        return Err(format!(
            "line {lineno}: obj declares {n} items it cannot hold"
        ));
    }
    let mut words = Vec::with_capacity(n as usize);
    let mut kind = ElemKind::Int;
    for tok in toks {
        // Rendered on the error paths only.
        let shown = || String::from_utf8_lossy(tok);
        let Some((k, w)) = take_word(tok) else {
            return Err(format!(
                "line {lineno}: bad scalar token {:?} in obj",
                shown()
            ));
        };
        if words.is_empty() {
            kind = k;
        } else if k != kind {
            return Err(format!(
                "line {lineno}: {k} token {:?} in {kind} object",
                shown()
            ));
        }
        words.push(w);
    }
    if words.len() as u64 != n {
        return Err(format!(
            "line {lineno}: obj declared {n} items, found {}",
            words.len()
        ));
    }
    ObjectImage::from_words(kind, words).map_err(|e| format!("line {lineno}: {e}"))
}

/// Encode a [`StoredEval`] into the store's result payload.
pub(crate) fn encode_eval(eval: &StoredEval) -> Vec<u8> {
    let mut out = String::new();
    out.push_str("stored-eval-v1\n");
    let r = &eval.result;
    let _ = writeln!(out, "cycles {}", r.cycles);
    put_value_list(&mut out, "results", &r.results);
    let s = &r.stats;
    let _ = writeln!(
        out,
        "stats {} {} {} {}",
        s.cycles, s.fires, s.dram_fills, s.sched_visits
    );
    put_u64_list(&mut out, "inv", &s.task_invocations);
    put_u64_list(&mut out, "busy", &s.task_busy_cycles);
    let _ = writeln!(out, "structs {}", s.struct_stats.len());
    for st in &s.struct_stats {
        let _ = writeln!(
            out,
            "struct {} {} {} {} {} {} {}",
            st.requests,
            st.elem_txns,
            st.conflict_stalls,
            st.hits,
            st.misses,
            st.writebacks,
            st.ecc_corrected
        );
    }
    let f = &s.faults;
    let _ = writeln!(
        out,
        "faults {} {} {} {} {} {}",
        f.token_bit_flip, f.token_drop, f.token_dup, f.stuck_handshake, f.mem_ecc, f.dram_timeout
    );
    put_u64_list(&mut out, "bases", &eval.mem.bases);
    let _ = writeln!(out, "objects {}", eval.mem.objects.len());
    for obj in &eval.mem.objects {
        put_obj(&mut out, obj);
    }
    out.into_bytes()
}

/// Decode a result payload back into a [`StoredEval`].
///
/// # Errors
/// A human-readable description of the first mismatch; the store maps it
/// to `E-STORE-DECODE` and quarantines the entry.
pub(crate) fn decode_eval(payload: &[u8]) -> Result<StoredEval, DecodeError> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload is not utf8: {e}"))?;
    let mut lines = Lines {
        inner: text.lines(),
        lineno: 0,
    };
    let header = lines.next("header")?;
    if header != "stored-eval-v1" {
        return Err(format!("unknown payload header {header:?}"));
    }
    let cycles_fields = lines.fields("cycles")?;
    let cycles = parse_u64(
        cycles_fields.first().ok_or("cycles line missing value")?,
        "cycles",
    )?;
    let results = parse_values(&counted(&lines.fields("results")?, "results")?)?;
    let stat_fields = lines.fields("stats")?;
    let stat_nums = parse_u64s(&stat_fields, "stats")?;
    if stat_nums.len() != 4 {
        return Err(format!(
            "stats line has {} fields, expected 4",
            stat_nums.len()
        ));
    }
    let task_invocations = parse_u64s(&counted(&lines.fields("inv")?, "inv")?, "inv")?;
    let task_busy_cycles = parse_u64s(&counted(&lines.fields("busy")?, "busy")?, "busy")?;
    let nstructs = parse_u64(
        lines
            .fields("structs")?
            .first()
            .ok_or("structs line missing count")?,
        "structs",
    )? as usize;
    // Every structure takes a line of the text, which bounds the count.
    let mut struct_stats = Vec::with_capacity(nstructs.min(text.len()));
    for _ in 0..nstructs {
        let nums = parse_u64s(&lines.fields("struct")?, "struct")?;
        if nums.len() != 7 {
            return Err(format!("struct line has {} fields, expected 7", nums.len()));
        }
        struct_stats.push(StructStats {
            requests: nums[0],
            elem_txns: nums[1],
            conflict_stalls: nums[2],
            hits: nums[3],
            misses: nums[4],
            writebacks: nums[5],
            ecc_corrected: nums[6],
        });
    }
    let fault_nums = parse_u64s(&lines.fields("faults")?, "faults")?;
    if fault_nums.len() != 6 {
        return Err(format!(
            "faults line has {} fields, expected 6",
            fault_nums.len()
        ));
    }
    let faults = FaultCounts {
        token_bit_flip: fault_nums[0],
        token_drop: fault_nums[1],
        token_dup: fault_nums[2],
        stuck_handshake: fault_nums[3],
        mem_ecc: fault_nums[4],
        dram_timeout: fault_nums[5],
    };
    let bases = parse_u64s(&counted(&lines.fields("bases")?, "bases")?, "bases")?;
    let nobjects = parse_u64(
        lines
            .fields("objects")?
            .first()
            .ok_or("objects line missing count")?,
        "objects",
    )? as usize;
    // Every object takes a line of the text, which bounds the count.
    let mut objects = Vec::with_capacity(nobjects.min(text.len()));
    for _ in 0..nobjects {
        objects.push(take_obj(lines.next("obj")?, lines.lineno)?);
    }
    Ok(StoredEval {
        result: SimResult {
            cycles,
            results,
            stats: SimStats {
                cycles: stat_nums[0],
                fires: stat_nums[1],
                dram_fills: stat_nums[2],
                sched_visits: stat_nums[3],
                task_invocations,
                task_busy_cycles,
                struct_stats,
                faults,
            },
            profile: None,
            trace: None,
        },
        mem: Memory { objects, bases },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_eval() -> StoredEval {
        StoredEval {
            result: SimResult {
                cycles: 123,
                results: vec![
                    Value::Int(-7),
                    Value::Bool(true),
                    Value::F32(1.5),
                    Value::F32(f32::NEG_INFINITY),
                    Value::Poison,
                    Value::Vector(vec![Value::Int(1), Value::F32(0.25)]),
                    Value::Tensor {
                        shape: TensorShape::new(2, 2),
                        data: vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Poison],
                    },
                ],
                stats: SimStats {
                    cycles: 123,
                    fires: 456,
                    task_invocations: vec![1, 2, 3],
                    task_busy_cycles: vec![10, 20, 30],
                    struct_stats: vec![StructStats {
                        requests: 1,
                        elem_txns: 2,
                        conflict_stalls: 3,
                        hits: 4,
                        misses: 5,
                        writebacks: 6,
                        ecc_corrected: 7,
                    }],
                    dram_fills: 9,
                    faults: FaultCounts {
                        mem_ecc: 2,
                        ..FaultCounts::default()
                    },
                    sched_visits: 777,
                },
                profile: None,
                trace: None,
            },
            mem: Memory {
                objects: vec![
                    // 5 and i64::MIN; -0.0 and a NaN with a payload.
                    ObjectImage::from_words(ElemKind::Int, vec![5, 1 << 63]).unwrap(),
                    ObjectImage::from_words(ElemKind::F32, vec![0x8000_0000, 0x7fc0_1234]).unwrap(),
                    ObjectImage::zeroed(ElemKind::F32, 0),
                    ObjectImage::from_words(ElemKind::Bool, vec![0, 1]).unwrap(),
                ],
                bases: vec![0, 2, 4, 4],
            },
        }
    }

    #[test]
    fn round_trips_exactly() {
        let eval = sample_eval();
        let decoded = decode_eval(&encode_eval(&eval)).unwrap();
        assert_eq!(decoded, eval);
        // Image equality is by bits: -0.0, the NaN payload and every kind
        // survived (an empty object's kind is the one thing text drops).
        for (d, e) in decoded.mem.objects.iter().zip(&eval.mem.objects) {
            assert_eq!(d.words(), e.words());
            assert!(d.kind() == e.kind() || e.words().is_empty());
        }
    }

    /// The `obj` path writes the tokens `put_value` writes for the same
    /// scalars, so payloads are the bytes they were when images held
    /// `Value`s.
    #[test]
    fn obj_lines_spell_scalars_as_value_tokens_do() {
        for obj in &sample_eval().mem.objects {
            let mut line = String::new();
            put_obj(&mut line, obj);
            let mut want = String::new();
            put_value_list(&mut want, "obj", &obj.values().collect::<Vec<_>>());
            assert_eq!(line, want);
        }
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let mut eval = sample_eval();
        let nan = f32::from_bits(0x7fc0_1234);
        eval.result.results = vec![Value::F32(nan)];
        let decoded = decode_eval(&encode_eval(&eval)).unwrap();
        match decoded.result.results[0] {
            Value::F32(f) => assert_eq!(f.to_bits(), 0x7fc0_1234),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_mangled_records() {
        let eval = sample_eval();
        let good = encode_eval(&eval);
        let text = String::from_utf8(good.clone()).unwrap();
        // Wrong header.
        assert!(decode_eval(b"stored-eval-v9\n").is_err());
        // Truncated record.
        assert!(decode_eval(&good[..good.len() / 2]).is_err());
        // Miscounted list.
        let bad = text.replacen("results 7", "results 8", 1);
        assert!(decode_eval(bad.as_bytes()).is_err());
        // Garbled value token.
        let bad = text.replacen("i-7", "q-7", 1);
        assert!(decode_eval(bad.as_bytes()).is_err());
    }

    /// An `obj` line holds scalars of one kind, as many as it declares.
    #[test]
    fn rejects_memory_objects_that_are_not_typed_word_buffers() {
        let text = String::from_utf8(encode_eval(&sample_eval())).unwrap();
        assert!(
            text.contains("\nobj 2 i5 i-9223372036854775808\n"),
            "{text}"
        );
        let mangle = |from: &str, to: &str, why: &str| {
            assert!(text.contains(from), "{from:?} not in the record");
            let bad = text.replacen(from, to, 1);
            let e = decode_eval(bad.as_bytes()).expect_err(why);
            assert!(e.contains(why), "{e}");
        };
        mangle("obj 2 i5", "obj 3 i5", "declared 3 items, found 2");
        mangle("obj 2 i5", "obj 1 i5", "declared 1 items, found 2");
        mangle("obj 2 i5", "obj 99999999999 i5", "cannot hold");
        mangle(
            "obj 2 b0 b1",
            "obj 2 b0 i1",
            "int token \"i1\" in bool object",
        );
        mangle("obj 2 i5 ", "obj 2 f00000005 ", "int token");
        mangle("obj 2 b0 b1", "obj 2 b0 p", "bad scalar token \"p\"");
        mangle("obj 2 b0 b1", "obj 2 b0 v(b1)", "bad scalar token");
        mangle("obj 2 b0 b1", "obj 2 b0 t1x1(b1)", "bad scalar token");
        mangle("obj 2 b0 b1", "obj 2 b0 b2", "bad scalar token");
        mangle("obj 2 b0 b1", "obj 2 b0  b1", "bad scalar token \"\"");
        mangle("obj 2 i5", "obj 2 i+5", "bad scalar token");
        mangle("obj 2 i5", "obj 2 i", "bad scalar token");
        mangle("obj 2 i5", "obj 2 i9223372036854775808", "bad scalar token");
        mangle("obj 2 f80000000", "obj 2 f8000000", "bad scalar token");
        mangle("obj 2 f80000000", "obj 2 f8000000g", "bad scalar token");
        mangle("obj 2 f80000000", "obj 2 f+0000000", "bad scalar token");
        mangle("obj 2 i5", "objs 2 i5", "expected an \"obj\" line");
        mangle("objects 4", "objects 5", "unexpected end of record");
    }

    #[test]
    fn value_tokens_are_whitespace_free() {
        for v in sample_eval().result.results {
            let mut s = String::new();
            put_value(&mut s, &v);
            assert!(!s.contains(' '), "{s}");
            assert_eq!(parse_value(&s).unwrap(), v);
        }
    }
}
