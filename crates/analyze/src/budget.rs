//! Table-byte regression budget: the CI ratchet that keeps the zoo from
//! quietly growing garbling material.
//!
//! `BENCH_RESULTS.json` pins each model's `non_free_gates` / `table_bytes`
//! as measured when the snapshot was last regenerated. CI re-runs
//! `circuit_lint --model all --json` on every push and feeds both
//! documents through [`check`]: any model whose fresh cost exceeds the
//! committed baseline fails the gate, and a model present on one side but
//! not the other fails too (a stale snapshot is as useless as a regressed
//! one). Improvements pass but are called out so the snapshot can be
//! ratcheted *down* in the same PR.
//!
//! The workspace is offline and carries no serde, so this module includes
//! a minimal recursive-descent JSON reader — just enough for the two
//! schemas it consumes (`deepsecure-analyze/1` and
//! `deepsecure-bench-results/1`, whose analyzer section nests the former
//! under `"analyzer"`). Its recursion is capped at [`MAX_DEPTH`] nested
//! arrays and objects, so a hostile file is an error, not a stack overflow.

use std::collections::BTreeMap;
use std::fmt;

/// How deeply arrays and objects may nest in a document [`Json::parse`]
/// accepts; `BENCH_RESULTS.json` nests six deep.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Numbers are kept as `f64`; every count this
/// module cares about (≤ a few hundred million table bytes) is far below
/// 2^53, so the round-trip is exact.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error,
    /// or of the bracket that nests deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs never appear in our schemas;
                            // map lone surrogates to U+FFFD rather than
                            // rejecting the document.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!(
                                "unknown escape {:?} at byte {}",
                                char::from(other),
                                self.pos
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so always valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

/// The two ratcheted costs of one model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelCost {
    /// Non-free (AND-equivalent) gate count.
    pub non_free_gates: u64,
    /// Garbled-table bytes per inference (`32 * non_free_gates`).
    pub table_bytes: u64,
}

/// Extracts per-model costs from either supported document: the analyzer's
/// own `deepsecure-analyze/1` output (top-level `"models"`) or the
/// committed `deepsecure-bench-results/1` snapshot (nested under
/// `"analyzer"`).
///
/// # Errors
///
/// Returns a message when the models table is missing or a model lacks
/// integer `non_free_gates` / `table_bytes` fields.
pub fn model_costs(doc: &Json) -> Result<BTreeMap<String, ModelCost>, String> {
    let models = doc
        .get("models")
        .or_else(|| doc.get("analyzer").and_then(|a| a.get("models")))
        .ok_or("no \"models\" table (looked at top level and under \"analyzer\")")?;
    let Json::Obj(members) = models else {
        return Err("\"models\" is not an object".to_string());
    };
    let mut out = BTreeMap::new();
    for (name, m) in members {
        let field = |key: &str| {
            m.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("model {name:?}: missing integer field {key:?}"))
        };
        out.insert(
            name.clone(),
            ModelCost {
                non_free_gates: field("non_free_gates")?,
                table_bytes: field("table_bytes")?,
            },
        );
    }
    Ok(out)
}

/// One line of the budget comparison.
#[derive(Clone, Debug)]
pub struct BudgetRow {
    /// Model name.
    pub model: String,
    /// What happened to this model's cost.
    pub status: BudgetStatus,
}

/// Per-model outcome of the ratchet comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BudgetStatus {
    /// Fresh costs equal the baseline exactly.
    Unchanged(ModelCost),
    /// Fresh costs shrank — passes, but the snapshot should be ratcheted
    /// down to lock in the win.
    Improved {
        /// Committed baseline cost.
        baseline: ModelCost,
        /// Freshly measured cost.
        fresh: ModelCost,
    },
    /// Fresh costs grew — fails the gate.
    Regressed {
        /// Committed baseline cost.
        baseline: ModelCost,
        /// Freshly measured cost.
        fresh: ModelCost,
    },
    /// In the baseline but not the fresh run — stale snapshot, fails.
    MissingFromFresh(ModelCost),
    /// In the fresh run but not the baseline — unpinned model, fails
    /// (add it to the snapshot so it is ratcheted too).
    MissingFromBaseline(ModelCost),
}

/// Result of comparing a fresh analyzer run against the committed
/// baseline.
#[derive(Clone, Debug)]
pub struct BudgetReport {
    /// One row per model name seen on either side, sorted by name.
    pub rows: Vec<BudgetRow>,
}

impl BudgetReport {
    /// `true` when every model is unchanged or improved.
    pub fn within_budget(&self) -> bool {
        self.rows.iter().all(|r| {
            matches!(
                r.status,
                BudgetStatus::Unchanged(_) | BudgetStatus::Improved { .. }
            )
        })
    }
}

impl fmt::Display for BudgetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.rows {
            let name = &row.model;
            match &row.status {
                BudgetStatus::Unchanged(c) => writeln!(
                    f,
                    "  OK        {name}: {} non-free gates, {} table B (unchanged)",
                    c.non_free_gates, c.table_bytes
                )?,
                BudgetStatus::Improved { baseline, fresh } => writeln!(
                    f,
                    "  IMPROVED  {name}: table bytes {} -> {} ({} saved) — ratchet the snapshot down",
                    baseline.table_bytes,
                    fresh.table_bytes,
                    baseline.table_bytes - fresh.table_bytes
                )?,
                BudgetStatus::Regressed { baseline, fresh } => writeln!(
                    f,
                    "  REGRESSED {name}: non-free gates {} -> {}, table bytes {} -> {} (+{} B over budget)",
                    baseline.non_free_gates,
                    fresh.non_free_gates,
                    baseline.table_bytes,
                    fresh.table_bytes,
                    fresh.table_bytes.saturating_sub(baseline.table_bytes)
                )?,
                BudgetStatus::MissingFromFresh(c) => writeln!(
                    f,
                    "  STALE     {name}: pinned at {} table B but absent from the fresh run — regenerate the snapshot",
                    c.table_bytes
                )?,
                BudgetStatus::MissingFromBaseline(c) => writeln!(
                    f,
                    "  UNPINNED  {name}: fresh run reports {} table B but the snapshot does not pin it — add it",
                    c.table_bytes
                )?,
            }
        }
        Ok(())
    }
}

/// Compares a fresh analyzer run against the committed baseline: growth in
/// either metric fails, as does a model present on only one side.
pub fn check(
    baseline: &BTreeMap<String, ModelCost>,
    fresh: &BTreeMap<String, ModelCost>,
) -> BudgetReport {
    let mut names: Vec<&String> = baseline.keys().chain(fresh.keys()).collect();
    names.sort();
    names.dedup();
    let rows = names
        .into_iter()
        .map(|name| {
            let status = match (baseline.get(name), fresh.get(name)) {
                (Some(&b), Some(&f)) => {
                    if f == b {
                        BudgetStatus::Unchanged(f)
                    } else if f.table_bytes > b.table_bytes || f.non_free_gates > b.non_free_gates {
                        BudgetStatus::Regressed {
                            baseline: b,
                            fresh: f,
                        }
                    } else {
                        BudgetStatus::Improved {
                            baseline: b,
                            fresh: f,
                        }
                    }
                }
                (Some(&b), None) => BudgetStatus::MissingFromFresh(b),
                (None, Some(&f)) => BudgetStatus::MissingFromBaseline(f),
                (None, None) => unreachable!("name came from one of the maps"),
            };
            BudgetRow {
                model: name.clone(),
                status,
            }
        })
        .collect();
    BudgetReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRESH: &str = r#"{
      "schema": "deepsecure-analyze/1",
      "models": {
        "tiny_mlp": {"errors": 0, "non_free_gates": 600259, "table_bytes": 19208288},
        "mnist_mlp_c": {"errors": 0, "non_free_gates": 510175, "table_bytes": 16325600}
      }
    }"#;

    const BASELINE: &str = r#"{
      "schema": "deepsecure-bench-results/1",
      "analyzer": {
        "models": {
          "tiny_mlp": {"non_free_gates": 600259, "table_bytes": 19208288},
          "mnist_mlp_c": {"non_free_gates": 510175, "table_bytes": 16325600}
        }
      }
    }"#;

    fn costs(text: &str) -> BTreeMap<String, ModelCost> {
        model_costs(&Json::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn parser_handles_the_snapshot_shapes() {
        let doc = Json::parse(BASELINE).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("deepsecure-bench-results/1")
        );
        let v = Json::parse(r#"[true, false, null, -2.5e1, "aA\n"]"#).unwrap();
        assert_eq!(
            v,
            Json::Arr(vec![
                Json::Bool(true),
                Json::Bool(false),
                Json::Null,
                Json::Num(-25.0),
                Json::Str("aA\n".to_string()),
            ])
        );
        assert!(Json::parse("{\"a\": 1,}").is_err(), "trailing comma");
        assert!(Json::parse("{} extra").is_err(), "trailing garbage");
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_capped_without_recursing_past_the_cap() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let err = Json::parse(&format!("{}1", "{\"a\": [".repeat(MAX_DEPTH))).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
    }

    #[test]
    fn extracts_costs_from_both_schemas() {
        let fresh = costs(FRESH);
        let base = costs(BASELINE);
        assert_eq!(fresh, base);
        assert_eq!(
            fresh["mnist_mlp_c"],
            ModelCost {
                non_free_gates: 510175,
                table_bytes: 16325600
            }
        );
        let err = model_costs(&Json::parse("{\"models\": {\"m\": {}}}").unwrap()).unwrap_err();
        assert!(err.contains("non_free_gates"), "{err}");
    }

    #[test]
    fn identical_costs_are_within_budget() {
        let report = check(&costs(BASELINE), &costs(FRESH));
        assert!(report.within_budget(), "{report}");
        assert!(report.to_string().contains("OK"));
    }

    #[test]
    fn growth_in_either_metric_regresses() {
        let base = costs(BASELINE);
        let mut fresh = costs(FRESH);
        fresh.get_mut("tiny_mlp").unwrap().table_bytes += 32;
        fresh.get_mut("tiny_mlp").unwrap().non_free_gates += 1;
        let report = check(&base, &fresh);
        assert!(!report.within_budget());
        assert!(
            report.to_string().contains("REGRESSED tiny_mlp"),
            "{report}"
        );
        // Shrinkage passes but is flagged for ratcheting.
        let mut smaller = costs(FRESH);
        smaller.get_mut("tiny_mlp").unwrap().table_bytes -= 32;
        smaller.get_mut("tiny_mlp").unwrap().non_free_gates -= 1;
        let report = check(&base, &smaller);
        assert!(report.within_budget(), "{report}");
        assert!(
            report.to_string().contains("IMPROVED  tiny_mlp"),
            "{report}"
        );
    }

    #[test]
    fn models_on_only_one_side_fail() {
        let base = costs(BASELINE);
        let mut fresh = costs(FRESH);
        fresh.remove("mnist_mlp_c");
        fresh.insert(
            "brand_new".to_string(),
            ModelCost {
                non_free_gates: 1,
                table_bytes: 32,
            },
        );
        let report = check(&base, &fresh);
        assert!(!report.within_budget());
        let text = report.to_string();
        assert!(text.contains("STALE     mnist_mlp_c"), "{text}");
        assert!(text.contains("UNPINNED  brand_new"), "{text}");
    }
}
