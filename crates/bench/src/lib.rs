//! Experiment harness: every table and figure of the paper's evaluation
//! (§4/§5), regenerated on the `parfs` machine models with workloads
//! emitted by `sion::script` (i.e. by the real library's layout and
//! protocol code).
//!
//! Each `fig*`/`table*` function returns machine-readable [`Row`]s; the
//! `figures` binary prints them as TSV (and JSON) in the same
//! series/axis structure as the paper's plots. EXPERIMENTS.md compares the
//! output against the published numbers.

pub mod experiments;

pub use experiments::*;

/// One data point of a figure: a named series, an x value, and the
/// measured y value.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Experiment id (e.g. `"fig3a"`).
    pub experiment: &'static str,
    /// Series label as it appears in the paper's legend.
    pub series: String,
    /// X coordinate (task count, file count, million particles, ...).
    pub x: f64,
    /// Y value (seconds or MB/s, per the experiment).
    pub y: f64,
    /// Unit of `y`.
    pub unit: &'static str,
}

impl Row {
    /// Construct a row.
    pub fn new(
        experiment: &'static str,
        series: impl Into<String>,
        x: f64,
        y: f64,
        unit: &'static str,
    ) -> Row {
        Row { experiment, series: series.into(), x, y, unit }
    }
}

/// Render rows as a TSV block with a header.
pub fn to_tsv(rows: &[Row]) -> String {
    let mut out = String::from("experiment\tseries\tx\ty\tunit\n");
    for r in rows {
        out.push_str(&format!(
            "{}\t{}\t{}\t{:.4}\t{}\n",
            r.experiment, r.series, r.x, r.y, r.unit
        ));
    }
    out
}

/// Render rows as a pretty-printed JSON array (the `--json` output of the
/// `figures` binary). Hand-rolled: the only strings involved are series
/// labels and static identifiers, escaped per RFC 8259.
pub fn to_json(rows: &[Row]) -> String {
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\n    \"experiment\": {},\n    \"series\": {},\n    \
             \"x\": {},\n    \"y\": {},\n    \"unit\": {}\n  }}",
            json_string(r.experiment),
            json_string(&r.series),
            json_number(r.x),
            json_number(r.y),
            json_string(r.unit)
        ));
    }
    if !rows.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    // JSON has no NaN/Infinity; clamp to null like serde_json would reject.
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains("inf") { s } else { format!("{s}.0") }
    } else {
        "null".to_string()
    }
}

/// `Ok(None)` when flag `name` is absent from `args`, its parsed value when
/// present, and a usage line when the value is missing or does not parse.
fn parse_arg<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        None => Err(format!("usage: {name} <value> (value missing)")),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("usage: {name} <value> (cannot parse {v:?})")),
    }
}

/// Value of the command-line flag `name`, `None` when the flag is absent.
/// A flag whose value is missing or does not parse prints a usage line and
/// exits 2: falling back to the default would let `--ranks 64k` run (and
/// pass a gate) at the default rank count.
pub fn arg<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    parse_arg(args, name).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    })
}

/// Fetch the y value of a series at an x coordinate (for tests).
pub fn lookup(rows: &[Row], series: &str, x: f64) -> Option<f64> {
    rows.iter()
        .find(|r| r.series == series && (r.x - x).abs() < 1e-9)
        .map(|r| r.y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_and_lookup() {
        let rows = vec![
            Row::new("figX", "a", 1.0, 2.0, "s"),
            Row::new("figX", "b", 1.0, 3.0, "s"),
        ];
        let tsv = to_tsv(&rows);
        assert!(tsv.starts_with("experiment\tseries"));
        assert_eq!(tsv.lines().count(), 3);
        assert_eq!(lookup(&rows, "b", 1.0), Some(3.0));
        assert_eq!(lookup(&rows, "c", 1.0), None);
    }

    #[test]
    fn arg_rejects_missing_and_unparsable_values() {
        let args: Vec<String> =
            ["--ranks", "64k", "--nfiles", "32", "--out"].map(String::from).to_vec();
        assert_eq!(parse_arg::<u32>(&args, "--nfiles"), Ok(Some(32)));
        assert_eq!(parse_arg::<u64>(&args, "--bytes"), Ok(None));
        let unparsable = parse_arg::<usize>(&args, "--ranks").unwrap_err();
        assert!(unparsable.contains("--ranks") && unparsable.contains("64k"), "{unparsable}");
        let missing = parse_arg::<String>(&args, "--out").unwrap_err();
        assert!(missing.contains("--out") && missing.contains("missing"), "{missing}");
    }

    #[test]
    fn json_rendering() {
        let rows = vec![Row::new("figX", "a \"quoted\"\n", 1.0, 2.5, "s")];
        let json = to_json(&rows);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"experiment\": \"figX\""));
        assert!(json.contains("\\\"quoted\\\"\\n"));
        assert!(json.contains("\"x\": 1.0"));
        assert!(json.contains("\"y\": 2.5"));
        assert_eq!(to_json(&[]), "[]");
    }
}
