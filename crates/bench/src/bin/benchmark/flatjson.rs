//! The benchmark's own result files and `--compare`.
//!
//! `--out FILE` appends one flat JSON object per run — string, number and boolean
//! values only, no nesting — so a result set is a JSON-lines file. This module
//! writes and reads exactly that shape (the vendored serde stand-in cannot parse)
//! and compares two result sets metric by metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{self, Better};

/// A value of a flat result object.
#[derive(Clone, Debug, PartialEq)]
pub enum Scalar {
    Str(String),
    Num(f64),
    Bool(bool),
}

pub type Flat = BTreeMap<String, Scalar>;

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Serialises `obj` on one line.
pub fn write(obj: &Flat) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in obj.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape(k, &mut out);
        out.push_str("\":");
        match v {
            Scalar::Str(s) => {
                out.push('"');
                escape(s, &mut out);
                out.push('"');
            }
            Scalar::Num(n) => write!(out, "{n}").expect("writing to a String"),
            Scalar::Bool(b) => write!(out, "{b}").expect("writing to a String"),
        }
    }
    out.push('}');
    out
}

struct Reader<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        while self.src.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.src.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut bytes = Vec::new();
        loop {
            match self.src.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(bytes).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = self.src.get(self.pos + 1).ok_or("dangling escape")?;
                    bytes.push(match esc {
                        b'n' => b'\n',
                        b'"' | b'\\' => *esc,
                        other => return Err(format!("unsupported escape \\{}", *other as char)),
                    });
                    self.pos += 2;
                }
                Some(&b) => {
                    bytes.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn scalar(&mut self) -> Result<Scalar, String> {
        self.skip_ws();
        if self.src.get(self.pos) == Some(&b'"') {
            return self.string().map(Scalar::Str);
        }
        let start = self.pos;
        while self
            .src
            .get(self.pos)
            .is_some_and(|b| !b",}".contains(b) && !b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.src[start..self.pos]).map_err(|e| e.to_string())?;
        match token {
            "true" => Ok(Scalar::Bool(true)),
            "false" => Ok(Scalar::Bool(false)),
            _ => token
                .parse::<f64>()
                .map(Scalar::Num)
                .map_err(|_| format!("'{token}' is not a flat JSON value (byte {start})")),
        }
    }
}

/// Parses one flat object.
pub fn read(line: &str) -> Result<Flat, String> {
    let mut r = Reader {
        src: line.as_bytes(),
        pos: 0,
    };
    let mut obj = Flat::new();
    r.expect(b'{')?;
    r.skip_ws();
    if r.src.get(r.pos) == Some(&b'}') {
        return Ok(obj);
    }
    loop {
        let key = r.string()?;
        r.expect(b':')?;
        obj.insert(key, r.scalar()?);
        r.skip_ws();
        match r.src.get(r.pos) {
            Some(b',') => r.pos += 1,
            Some(b'}') => return Ok(obj),
            _ => return Err(format!("expected ',' or '}}' at byte {}", r.pos)),
        }
    }
}

/// Reads a result set: the last object per `(workload, trace)` wins.
pub fn read_set(text: &str) -> Result<BTreeMap<(String, bool), Flat>, String> {
    let mut set = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let obj = read(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let Some(Scalar::Str(workload)) = obj.get("workload").cloned() else {
            return Err(format!("line {}: no \"workload\"", n + 1));
        };
        let traced = obj.get("trace") == Some(&Scalar::Num(1.0));
        set.insert((workload, traced), obj);
    }
    Ok(set)
}

/// Verdict for one metric: `base` against `new`.
fn verdict(def: &metrics::MetricDef, base: f64, new: f64) -> &'static str {
    if def.exact {
        return if base.to_bits() == new.to_bits() {
            "ok"
        } else {
            "DIFFERS"
        };
    }
    let Some(bound) = def.bound else {
        return "info";
    };
    let worse = match def.better {
        Better::Lower => new > base + bound * base.abs(),
        Better::Higher => new < base - bound * base.abs(),
    };
    if worse {
        "REGRESSED"
    } else {
        "ok"
    }
}

/// Compares two result sets; returns the printed table and whether every gated
/// metric held. Deterministic metrics must be byte-identical, wall-clock
/// end-to-end metrics within their bound; everything else is informational.
pub fn compare(base: &str, new: &str) -> Result<(String, bool), String> {
    let (base, new) = (read_set(base)?, read_set(new)?);
    let mut table = format!(
        "{:<16} {:<34} {:>16} {:>16} {:>9}  {}\n",
        "workload", "metric", "base", "new", "change", "verdict"
    );
    let mut all_ok = true;
    for (key, b) in &base {
        let Some(n) = new.get(key) else { continue };
        let run = format!("{}{}", key.0, if key.1 { " (traced)" } else { "" });
        if [b, n]
            .iter()
            .any(|o| o.get("comparable") != Some(&Scalar::Bool(true)))
        {
            writeln!(table, "{run:<16} not comparable (smoke run)").expect("writing to a String");
            all_ok = false;
            continue;
        }
        if b.get("seed") != n.get("seed") || b.get("seconds") != n.get("seconds") {
            writeln!(table, "{run:<16} seeds or run lengths differ").expect("writing to a String");
            all_ok = false;
            continue;
        }
        for (name, bv) in b {
            let (Some(def), Scalar::Num(bv), Some(Scalar::Num(nv))) =
                (metrics::find(name), bv, n.get(name))
            else {
                continue;
            };
            let v = verdict(def, *bv, *nv);
            all_ok &= v == "ok" || v == "info";
            let change = if *bv != 0.0 {
                (nv - bv) / bv.abs() * 100.0
            } else {
                0.0
            };
            writeln!(
                table,
                "{run:<16} {name:<34} {bv:>16.4} {nv:>16.4} {change:>+8.2}%  {v}"
            )
            .expect("writing to a String");
        }
    }
    Ok((table, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(throughput: f64, messages: f64) -> Flat {
        let mut o = Flat::new();
        o.insert("workload".into(), Scalar::Str("exec \"x\"\\".into()));
        o.insert("comparable".into(), Scalar::Bool(true));
        o.insert("seed".into(), Scalar::Str("1".into()));
        o.insert("seconds".into(), Scalar::Num(15.0));
        o.insert("trace".into(), Scalar::Num(0.0));
        o.insert("throughput_ops_s".into(), Scalar::Num(throughput));
        o.insert("messages_per_op".into(), Scalar::Num(messages));
        o.insert("latency_p50_ms_raw".into(), Scalar::Num(0.1 + 0.2));
        o
    }

    #[test]
    fn flat_json_round_trips() {
        let obj = sample(1234.567890123, 12002.0);
        let line = write(&obj);
        assert!(!line.contains('\n'));
        assert_eq!(read(&line).expect("parses"), obj);
        assert_eq!(read("{}").expect("empty"), Flat::new());
        assert_eq!(
            read(" { \"a\" : -1.5e3 , \"b\":false } ").expect("spaced")["a"],
            Scalar::Num(-1500.0)
        );
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":[1]}",
            "{\"a\":1 \"b\":2}",
            "{\"a\":\"x}",
        ] {
            assert!(read(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn compare_applies_exact_and_ratio_gates() {
        let base = write(&sample(1000.0, 50.0));
        let bound = metrics::find("throughput_ops_s")
            .and_then(|d| d.bound)
            .expect("gated");
        let within = 1000.0 * (1.0 - bound / 2.0);
        let (_, ok) = compare(&base, &write(&sample(within, 50.0))).expect("compares");
        assert!(ok, "slower by half the bound is within it");
        let beyond = 1000.0 * (1.0 - bound * 1.2);
        let (table, ok) = compare(&base, &write(&sample(beyond, 50.0))).expect("compares");
        assert!(!ok && table.contains("REGRESSED"), "{table}");
        let (table, ok) = compare(&base, &write(&sample(1000.0, 50.5))).expect("compares");
        assert!(!ok && table.contains("DIFFERS"), "{table}");
        let (_, ok) = compare(&base, &write(&sample(2000.0, 50.0))).expect("compares");
        assert!(ok, "faster is never a regression");
        let mut smoke = sample(1000.0, 50.0);
        smoke.insert("comparable".into(), Scalar::Bool(false));
        let (table, ok) = compare(&base, &write(&smoke)).expect("compares");
        assert!(!ok && table.contains("not comparable"), "{table}");
    }
}
