//! What a run prints and stores, and `sionbench compare`.

use crate::json::{self, quote, Value};
use crate::metrics::{self, Better, Kind, Measured};
use crate::run::Outcome;
use crate::stats::Summary;
use std::fmt::Write;
use std::process::Command;

/// The things that move numbers without any code changing.
pub struct Host {
    pub nproc: usize,
    /// Worker threads the task runtime actually used.
    pub workers: usize,
    pub transparent_hugepage: String,
    pub llc_kib: u64,
    pub rustc: String,
    pub commit: String,
}

/// The benchmark installs no `#[global_allocator]`.
const ALLOCATOR: &str = "system";

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

impl Host {
    pub fn probe(workers: usize) -> Host {
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .ok()
            .and_then(|s| {
                let (_, rest) = s.split_once('[')?;
                Some(rest.split_once(']')?.0.to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let llc_kib = (0..8)
            .filter_map(|i| {
                let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
                std::fs::read_to_string(path)
                    .ok()?
                    .trim()
                    .strip_suffix('K')?
                    .parse::<u64>()
                    .ok()
            })
            .max()
            .unwrap_or(0);
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers,
            transparent_hugepage: thp,
            llc_kib,
            rustc: first_line("rustc", &["-V"]),
            commit: first_line("git", &["rev-parse", "--short", "HEAD"]),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"workers\":{},\"transparent_hugepage\":{},\"llc_kib\":{},\
             \"allocator\":{},\"rustc\":{},\"commit\":{}}}",
            self.nproc,
            self.workers,
            quote(&self.transparent_hugepage),
            self.llc_kib,
            quote(ALLOCATOR),
            quote(&self.rustc),
            quote(&self.commit)
        )
    }
}

/// Identity of one run.
pub struct RunId<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric a value as measured and its unit.
pub fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(m.def.name),
                m.summary.median,
                quote(m.def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

/// Everything about one run, for `--all` to collect and `compare` to read.
pub fn detail_json(id: &RunId, host: &Host, out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|Measured { def, summary: s }| {
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"kind\":{},\"n\":{},\"q1\":{},\"q3\":{},\"min\":{},\"max\":{}}}",
                quote(def.name),
                s.median,
                quote(def.unit),
                quote(def.kind.as_str()),
                s.n,
                s.q1,
                s.q3,
                s.min,
                s.max
            )
        })
        .collect();
    format!(
        "{{\"workload\":{},\"trace\":{},\"seed\":{},\"seconds\":{},\"reps\":{},\"user_bytes\":{},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"host\":{},\"metrics\":{{{}}}}}",
        quote(id.workload),
        id.trace as u8,
        id.seed,
        id.seconds,
        out.reps,
        out.user_bytes,
        out.correct,
        out.attempted,
        out.failed,
        host.to_json(),
        metrics.join(",")
    )
}

/// The table a person reads.
pub fn human(id: &RunId, host: &Host, out: &Outcome) -> String {
    let mut t = String::new();
    let w = &mut t;
    let _ = writeln!(
        w,
        "sionbench {}: seed {}, trace {}, {} reps, {} user bytes per checkpoint, {} of {} operations failed",
        id.workload, id.seed, id.trace as u8, out.reps, out.user_bytes, out.failed, out.attempted
    );
    let _ = writeln!(
        w,
        "host: nproc {}, workers {}, transparent_hugepage {}, allocator {ALLOCATOR}, LLC {} KiB, {}, commit {}",
        host.nproc, host.workers, host.transparent_hugepage, host.llc_kib, host.rustc, host.commit
    );
    if id.trace {
        let _ = writeln!(
            w,
            "ceiling loops move {} MiB per pass (LLC {} KiB); localfs writes are not synced",
            crate::layers::CEILING_BYTES >> 20,
            host.llc_kib
        );
    }
    let _ = writeln!(
        w,
        "{:<32} {:>16} {:<6} {:<6} {:>3} {:>14} {:>14} {:>14} {:>14}",
        "metric", "median", "unit", "kind", "n", "q1", "q3", "min", "max"
    );
    for Measured { def, summary: s } in &out.metrics.0 {
        let _ = writeln!(
            w,
            "{:<32} {:>16.6} {:<6} {:<6} {:>3} {:>14.6} {:>14.6} {:>14.6} {:>14.6}",
            def.name,
            s.median,
            def.unit,
            def.kind.as_str(),
            s.n,
            s.q1,
            s.q3,
            s.min,
            s.max
        );
    }
    if !id.trace {
        let gbps = |name: &str| out.user_bytes as f64 / 1e9 / out.metrics.median_of(name);
        let _ = writeln!(
            w,
            "for the eye only: checkpoint {:.3} GB/s, restart {:.3} GB/s (user bytes / median)",
            gbps("ckpt_s"),
            gbps("restart_s")
        );
    }
    let _ = writeln!(
        w,
        "n is at most a few dozen: no percentile above the median has ten samples beyond it, \
         so quartiles are printed as spread, not as a tail"
    );
    t
}

/// Index the runs of a result file by (workload, trace).
fn runs(doc: &Value) -> Vec<&Value> {
    match doc.get("runs") {
        Some(runs) => runs.items().iter().collect(),
        None => vec![doc],
    }
}

/// What `run` recorded for `metric`.
fn side(run: &Value, metric: &str) -> Option<Summary> {
    let m = run.get("metrics")?.get(metric)?;
    let f = |k: &str| m.get(k).and_then(Value::as_f64);
    Some(Summary {
        n: f("n")? as usize,
        median: f("value")?,
        q1: f("q1")?,
        q3: f("q3")?,
        min: f("min")?,
        max: f("max")?,
    })
}

/// `sionbench compare A.json B.json`: per workload and end-to-end metric,
/// both medians, how much worse B is, the bound, and a verdict. Returns the
/// report and whether anything regressed or an exact count differed.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (json::parse(a_text)?, json::parse(b_text)?);
    let mut report = String::new();
    let mut bad = false;
    let _ = writeln!(
        report,
        "{:<11} {:<22} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for run_a in runs(&a) {
        let key = |r: &Value| (r.get("workload").cloned(), r.get("trace").cloned());
        let Some(run_b) = runs(&b).into_iter().find(|r| key(r) == key(run_a)) else {
            continue;
        };
        let workload = run_a.get("workload").and_then(Value::as_str).unwrap_or("?");
        for run in [run_a, run_b] {
            if run.get("failed").and_then(Value::as_f64) != Some(0.0) {
                let _ = writeln!(report, "{workload:<11} has failed operations");
                bad = true;
            }
        }
        for (name, _) in run_a.get("metrics").map_or(&[][..], Value::members) {
            let (Some(sa), Some(sb), Some(def)) =
                (side(run_a, name), side(run_b, name), metrics::def(name))
            else {
                continue;
            };
            let (ma, mb) = (sa.median, sb.median);
            let exact = def.kind == Kind::Exact;
            if exact && ma != mb {
                let _ = writeln!(
                    report,
                    "{workload:<11} {name:<22} {ma:>14.6} {mb:>14.6} exact count differs"
                );
                bad = true;
                continue;
            }
            let Some(bound) = def.bound else { continue };
            let worse_by = match def.better {
                _ if ma == 0.0 => 0.0,
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let verdict = if !exact && (sa.spread() > bound || sb.spread() > bound) {
                "unresolved"
            } else if worse_by > bound {
                bad = true;
                "regressed"
            } else {
                "ok"
            };
            let _ = writeln!(
                report,
                "{workload:<11} {name:<22} {ma:>14.6} {mb:>14.6} {:>8.2}% {:>5.0}%  {verdict}",
                worse_by * 100.0,
                bound * 100.0
            );
        }
    }
    Ok((report, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(ckpt: (f64, f64, f64), stored: f64, failed: u64) -> String {
        format!(
            "{{\"runs\":[{{\"workload\":\"wide_8k\",\"trace\":0,\"failed\":{failed},\"metrics\":{{\
             \"ckpt_s\":{{\"value\":{},\"unit\":\"s\",\"kind\":\"timing\",\"n\":9,\"q1\":{},\"q3\":{},\"min\":0,\"max\":9}},\
             \"stored_per_user_byte\":{{\"value\":{stored},\"unit\":\"ratio\",\"kind\":\"exact\",\"n\":1,\
             \"q1\":{stored},\"q3\":{stored},\"min\":{stored},\"max\":{stored}}}}}}}]}}",
            ckpt.1, ckpt.0, ckpt.2
        )
    }

    #[test]
    fn compare_says_ok_regressed_unresolved_and_flags_exact_counts() {
        let base = file((0.98, 1.0, 1.02), 8.0, 0);
        let (report, bad) = compare(&base, &file((1.03, 1.05, 1.07), 8.0, 0)).unwrap();
        assert!(!bad && report.contains("ok"), "{report}");
        assert!(
            report.contains("5.00%") && report.contains("25%"),
            "{report}"
        );

        let (report, bad) = compare(&base, &file((1.28, 1.3, 1.32), 8.0, 0)).unwrap();
        assert!(bad && report.contains("regressed"), "{report}");

        // B's quartiles are 30 % of its median apart: wider than the bound.
        let (report, bad) = compare(&base, &file((1.0, 1.2, 1.36), 8.0, 0)).unwrap();
        assert!(!bad && report.contains("unresolved"), "{report}");

        let (report, bad) = compare(&base, &file((0.98, 1.0, 1.02), 8.5, 0)).unwrap();
        assert!(bad && report.contains("exact count differs"), "{report}");

        let (report, bad) = compare(&base, &file((0.98, 1.0, 1.02), 8.0, 3)).unwrap();
        assert!(bad && report.contains("failed operations"), "{report}");

        assert!(compare("{", &base).is_err());
    }
}
