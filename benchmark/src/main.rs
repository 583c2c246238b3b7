//! `sionbench` command line; see `usage`.

use sionbench::report::{self, Host, RunId};
use sionbench::{run, workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: sionbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       sionbench --all [--seed N] [--seconds S] [--traced] [--out FILE]
       sionbench compare A.json B.json

  --workload NAME  run one workload in this process: wide_8k, bulk_4k, agg_1k or trace_szip
  --all            run every workload, each in a process of its own, and collect the results
  --seed N         seed of the generated payloads (default 1)
  --seconds S      how long the timed reps run (default 15)
  --trace 1        spans on: print the per-layer metrics and write out/<workload>.trace.jsonl
  --traced         the same as --trace 1; with --all, run each workload both ways
  --out FILE       where --all writes the collected results (default out/all.json)
  compare          set two collected results side by side; exits 1 on a regression";

/// Everything the benchmark writes goes under the package's `out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn detail_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!(
        "{workload}.{}.json",
        if trace { "layers" } else { "e2e" }
    ))
}

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: 15.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--all" => a.all = true,
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--traced" => a.trace = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.all == a.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".into());
    }
    Ok(a)
}

/// Run one workload in this process. Exit code 1 when any operation
/// failed or an exact count did not repeat.
fn run_one(name: &str, a: &Args) -> Result<ExitCode, String> {
    let spec = workload::spec(name).ok_or(format!("unknown workload {name}"))?;
    let out_dir = out_dir();
    let outcome = if a.trace {
        run::per_layer(&spec, a.seed, a.seconds, &out_dir)
    } else {
        run::end_to_end(&spec, a.seed, a.seconds)
    };
    let id = RunId {
        workload: name,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
    };
    let host = Host::probe(outcome.workers);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let detail = detail_path(name, a.trace);
    std::fs::write(&detail, report::detail_json(&id, &host, &outcome))
        .map_err(|e| format!("{}: {e}", detail.display()))?;
    print!("{}", report::human(&id, &host, &outcome));
    println!("{}", report::result_line(&outcome));
    Ok(ExitCode::from(outcome.exit_code()))
}

/// Run every workload in a child process each, so that `peak_rss_mib` is
/// one workload's, and collect their detail files.
fn run_all(a: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut details = Vec::new();
    let mut ok = true;
    for spec in workload::specs() {
        for trace in [false, true] {
            if trace && !a.trace {
                continue;
            }
            let status = Command::new(&exe)
                .args(["--workload", spec.name])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            ok &= status.success();
            let path = detail_path(spec.name, trace);
            details.push(
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?,
            );
            println!();
        }
    }
    let out = a.out.clone().unwrap_or_else(|| out_dir().join("all.json"));
    std::fs::write(
        &out,
        format!("{{\"runs\":[\n{}\n]}}\n", details.join(",\n")),
    )
    .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("collected results: {}", out.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare takes two result files".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (report, bad) = report::compare(&read(a)?, &read(b)?)?;
    print!("{report}");
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        _ => parse_args(&args).and_then(|a| match &a.workload {
            Some(name) => run_one(name, &a),
            None => run_all(&a),
        }),
    };
    done.unwrap_or_else(|e| {
        eprintln!("sionbench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
