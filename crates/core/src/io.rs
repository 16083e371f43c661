//! Plain-text persistence for base TP relations.
//!
//! The on-disk format is a pipe-separated, line-oriented table carrying
//! exactly the information of a base relation — conventional attributes,
//! interval and marginal probability (lineage of a base tuple is the tuple
//! itself, so nothing else is needed):
//!
//! ```text
//! # tpdb base relation, fields: fact... | ts | te | p
//! 'milk'|2|10|0.3
//! 'chips'|4|7|0.8
//! ```
//!
//! Values are typed by syntax: single-quoted strings (embedded quotes
//! doubled, `'it''s'`), `true`/`false` booleans, integers, and floats
//! (anything with `.`, `e` or `E`). Blank lines and `#` comments are
//! ignored. Derived relations (non-atomic lineage) cannot be exported —
//! their semantics depend on the variable table — and attempting it yields
//! [`Error::NotABaseRelation`].

use std::io::{BufRead, Write};

use crate::error::{Error, Result};
use crate::fact::Fact;
use crate::interval::Interval;
use crate::relation::{TpRelation, VarTable};
use crate::value::Value;

/// Rows of a base relation: `(fact, interval, probability)`.
pub type BaseRows = Vec<(Fact, Interval, f64)>;

/// Serializes one value.
fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Str(s) => {
            out.push('\'');
            for ch in s.chars() {
                if ch == '\'' {
                    out.push('\'');
                }
                out.push(ch);
            }
            out.push('\'');
        }
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Float(f) => {
            let s = f.0.to_string();
            out.push_str(&s);
            // Keep the float/int distinction round-trippable.
            if !s.contains(['.', 'e', 'E', 'n', 'i']) {
                out.push_str(".0");
            }
        }
    }
}

/// Parses one value by syntax.
fn parse_value(field: &str, line_no: usize) -> Result<Value> {
    let field = field.trim();
    if field.is_empty() {
        return Err(Error::Io(format!("line {line_no}: empty field")));
    }
    if let Some(stripped) = field.strip_prefix('\'') {
        let inner = stripped
            .strip_suffix('\'')
            .ok_or_else(|| Error::Io(format!("line {line_no}: unterminated string")))?;
        // Doubled quotes are escapes; a lone quote inside is malformed.
        let mut out = String::with_capacity(inner.len());
        let mut chars = inner.chars().peekable();
        while let Some(ch) = chars.next() {
            if ch == '\'' {
                match chars.next() {
                    Some('\'') => out.push('\''),
                    _ => {
                        return Err(Error::Io(format!(
                            "line {line_no}: stray quote inside string"
                        )))
                    }
                }
            } else {
                out.push(ch);
            }
        }
        return Ok(Value::str(out));
    }
    match field {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if field.contains(['.', 'e', 'E']) {
        return field
            .parse::<f64>()
            .map(Value::float)
            .map_err(|e| Error::Io(format!("line {line_no}: bad float '{field}': {e}")));
    }
    field
        .parse::<i64>()
        .map(Value::int)
        .map_err(|e| Error::Io(format!("line {line_no}: bad value '{field}': {e}")))
}

/// Splits a line into fields at unquoted `|` separators.
fn split_fields(line: &str, line_no: usize) -> Result<Vec<&str>> {
    let mut fields = Vec::new();
    let mut start = 0usize;
    let mut in_string = false;
    let bytes = line.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' => in_string = !in_string,
            b'|' if !in_string => {
                fields.push(&line[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if in_string {
        return Err(Error::Io(format!("line {line_no}: unterminated string")));
    }
    fields.push(&line[start..]);
    Ok(fields)
}

/// Writes a base relation. Every tuple must carry atomic lineage; the
/// probability is resolved through `vars`.
pub fn write_relation(w: &mut impl Write, rel: &TpRelation, vars: &VarTable) -> Result<()> {
    writeln!(w, "# tpdb base relation, fields: fact... | ts | te | p")?;
    for t in rel.iter() {
        let Some(id) = t.lineage.as_var() else {
            return Err(Error::NotABaseRelation {
                lineage: t.lineage.to_string(),
            });
        };
        let p = vars.prob(id)?;
        let mut line = String::new();
        for v in t.fact.values() {
            write_value(&mut line, v);
            line.push('|');
        }
        line.push_str(&format!(
            "{}|{}|{}",
            t.interval.start(),
            t.interval.end(),
            p
        ));
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Serializes a base relation to a string.
pub fn relation_to_string(rel: &TpRelation, vars: &VarTable) -> Result<String> {
    let mut buf = Vec::new();
    write_relation(&mut buf, rel, vars)?;
    String::from_utf8(buf).map_err(|e| Error::Io(e.to_string()))
}

/// Reads base-relation rows from a reader. The last three fields of each
/// line are `ts | te | p`; everything before them is the fact.
pub fn read_rows(r: impl BufRead) -> Result<BaseRows> {
    let mut rows = Vec::new();
    for (idx, line) in r.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields = split_fields(trimmed, line_no)?;
        if fields.len() < 4 {
            return Err(Error::Io(format!(
                "line {line_no}: expected at least 4 fields (fact, ts, te, p), got {}",
                fields.len()
            )));
        }
        let (fact_fields, tail) = fields.split_at(fields.len() - 3);
        let fact_values: Vec<Value> = fact_fields
            .iter()
            .map(|f| parse_value(f, line_no))
            .collect::<Result<_>>()?;
        let ts: i64 = tail[0]
            .trim()
            .parse()
            .map_err(|e| Error::Io(format!("line {line_no}: bad ts: {e}")))?;
        let te: i64 = tail[1]
            .trim()
            .parse()
            .map_err(|e| Error::Io(format!("line {line_no}: bad te: {e}")))?;
        let p: f64 = tail[2]
            .trim()
            .parse()
            .map_err(|e| Error::Io(format!("line {line_no}: bad probability: {e}")))?;
        rows.push((Fact::new(fact_values), Interval::new(ts, te)?, p));
    }
    Ok(rows)
}

/// Parses base-relation rows from a string.
pub fn rows_from_string(text: &str) -> Result<BaseRows> {
    read_rows(text.as_bytes())
}

impl crate::db::Database {
    /// Loads a base relation from its textual form, registering fresh
    /// lineage variables named `{name}{i}`.
    pub fn load_relation(&mut self, name: impl Into<String>, text: &str) -> Result<()> {
        let rows = rows_from_string(text)?;
        self.add_base_relation(name, rows)
    }

    /// Serializes a stored base relation.
    pub fn dump_relation(&self, name: &str) -> Result<String> {
        relation_to_string(self.relation(name)?, self.vars())
    }

    /// Persists every *base* relation of the catalog as `<name>.tp` files
    /// in `dir` (created if missing). Derived relations (non-atomic
    /// lineage) are rejected — their semantics depend on the variable
    /// table; re-derive them after loading.
    pub fn save_to_dir(&self, dir: impl AsRef<std::path::Path>) -> Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        for name in self.relation_names() {
            let text = self.dump_relation(name)?;
            std::fs::write(dir.join(format!("{name}.tp")), text)?;
        }
        Ok(())
    }

    /// Loads every `*.tp` file of `dir` as a base relation named after the
    /// file stem, in lexicographic order (so variable ids are stable).
    pub fn load_from_dir(dir: impl AsRef<std::path::Path>) -> Result<crate::db::Database> {
        let mut db = crate::db::Database::new();
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir.as_ref())?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "tp"))
            .collect();
        paths.sort();
        for path in paths {
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| Error::Io(format!("bad file name {path:?}")))?
                .to_string();
            let text = std::fs::read_to_string(&path)?;
            db.load_relation(name, &text)?;
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> BaseRows {
        vec![
            (Fact::single("milk"), Interval::at(2, 10), 0.3),
            (Fact::single("it's"), Interval::at(1, 3), 0.5),
            (
                Fact::new(vec![Value::int(-7), Value::Bool(true), Value::float(2.5)]),
                Interval::at(-4, 0),
                1.0,
            ),
        ]
    }

    #[test]
    fn roundtrip_via_database() {
        let mut db = crate::db::Database::new();
        db.add_base_relation("r", sample_rows()).unwrap();
        let text = db.dump_relation("r").unwrap();
        let mut db2 = crate::db::Database::new();
        db2.load_relation("r", &text).unwrap();
        // Variable ids are assigned in storage order, so compare the
        // observable content: facts, intervals and probabilities.
        let profile = |db: &crate::db::Database| -> Vec<(Fact, Interval, f64)> {
            db.relation("r")
                .unwrap()
                .canonicalized()
                .iter()
                .map(|t| {
                    let p = crate::prob::marginal(&t.lineage, db.vars()).unwrap();
                    (t.fact.clone(), t.interval, p)
                })
                .collect()
        };
        assert_eq!(profile(&db), profile(&db2));
        // Probabilities survive.
        let canon = db2.relation("r").unwrap().canonicalized();
        let p = crate::prob::marginal(&canon.tuples()[0].lineage, db2.vars()).unwrap();
        assert!(p > 0.0 && p <= 1.0);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# header\n\n'milk'|2|10|0.3\n   \n# trailing\n";
        let rows = rows_from_string(text).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, Fact::single("milk"));
        assert_eq!(rows[0].1, Interval::at(2, 10));
        assert_eq!(rows[0].2, 0.3);
    }

    #[test]
    fn string_escaping_roundtrips() {
        let mut s = String::new();
        write_value(&mut s, &Value::str("it's|tricky"));
        assert_eq!(s, "'it''s|tricky'");
        assert_eq!(parse_value(&s, 1).unwrap(), Value::str("it's|tricky"));
    }

    #[test]
    fn typed_values_parse_by_syntax() {
        assert_eq!(parse_value("42", 1).unwrap(), Value::int(42));
        assert_eq!(parse_value("-3", 1).unwrap(), Value::int(-3));
        assert_eq!(parse_value("2.5", 1).unwrap(), Value::float(2.5));
        assert_eq!(parse_value("1e3", 1).unwrap(), Value::float(1000.0));
        assert_eq!(parse_value("true", 1).unwrap(), Value::Bool(true));
        assert_eq!(parse_value("'x'", 1).unwrap(), Value::str("x"));
        assert!(parse_value("zzz", 1).is_err());
        assert!(parse_value("", 1).is_err());
        assert!(parse_value("'open", 1).is_err());
    }

    #[test]
    fn float_int_distinction_survives() {
        let mut s = String::new();
        write_value(&mut s, &Value::float(3.0));
        assert_eq!(s, "3.0"); // not "3", which would re-parse as Int
        assert_eq!(parse_value(&s, 1).unwrap(), Value::float(3.0));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(rows_from_string("'milk'|2|10").is_err()); // missing p
        assert!(rows_from_string("'milk'|x|10|0.5").is_err()); // bad ts
        assert!(rows_from_string("'milk'|10|2|0.5").is_err()); // empty interval
        assert!(rows_from_string("'milk'|2|10|nope").is_err()); // bad p
        assert!(rows_from_string("'milk|2|10|0.5").is_err()); // unterminated
    }

    #[test]
    fn derived_relations_cannot_be_exported() {
        let mut vars = VarTable::new();
        let r = TpRelation::base(
            "r",
            vec![(Fact::single("x"), Interval::at(1, 5), 0.5)],
            &mut vars,
        )
        .unwrap();
        let s = TpRelation::base(
            "s",
            vec![(Fact::single("x"), Interval::at(2, 6), 0.5)],
            &mut vars,
        )
        .unwrap();
        let derived = crate::ops::intersect(&r, &s);
        let err = relation_to_string(&derived, &vars).unwrap_err();
        assert!(matches!(err, Error::NotABaseRelation { .. }));
    }

    #[test]
    fn load_validates_model_invariants() {
        let mut db = crate::db::Database::new();
        // Duplicate fact over overlapping intervals.
        let text = "'x'|1|5|0.5\n'x'|3|8|0.5\n";
        assert!(matches!(
            db.load_relation("bad", text),
            Err(Error::DuplicateFact { .. })
        ));
        // Probability outside (0,1].
        assert!(matches!(
            db.load_relation("bad2", "'x'|1|5|1.5\n"),
            Err(Error::InvalidProbability(_))
        ));
    }

    #[test]
    fn pipe_inside_string_is_not_a_separator() {
        let rows = rows_from_string("'a|b'|1|2|0.5\n").unwrap();
        assert_eq!(rows[0].0, Fact::single("a|b"));
    }

    #[test]
    fn save_and_load_directory() {
        let dir = std::env::temp_dir().join(format!("tpdb-io-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = crate::db::Database::new();
        db.add_base_relation("a", vec![(Fact::single("milk"), Interval::at(2, 10), 0.3)])
            .unwrap();
        db.add_base_relation("b", vec![(Fact::single("chips"), Interval::at(1, 5), 0.9)])
            .unwrap();
        db.save_to_dir(&dir).unwrap();
        let loaded = crate::db::Database::load_from_dir(&dir).unwrap();
        assert_eq!(loaded.relation_names().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(loaded.relation("a").unwrap().len(), 1);
        let t = &loaded.relation("a").unwrap().tuples()[0];
        let p = crate::prob::marginal(&t.lineage, loaded.vars()).unwrap();
        assert!((p - 0.3).abs() < 1e-12);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_from_missing_dir_fails() {
        assert!(crate::db::Database::load_from_dir("/definitely/not/here").is_err());
    }
}
