//! The repo's benchmark: five workloads, end-to-end metrics measured with
//! tracing off, and a per-layer ledger from a traced run — all taken from
//! outside the system, through its public functions. See `README.md`.

mod gen;
mod host;
mod json;
mod layers;
mod metrics;
mod probes;
mod report;
mod run;
mod sets;
mod spans;
mod stats;
mod system;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use run::RunConfig;
use sets::SetConfig;
use workloads::Workload;

const USAGE: &str = "usage:
  benchmark [run] --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--out file.json]
  benchmark all [--seed <u64>] [--seconds <s>] [--repeats <n>] [--traced] [--smoke] [--out set.json]
  benchmark compare <A.json> <B.json>
  benchmark selfcheck [--seed <u64>] [--seconds <s>] [--repeats <n>]
  benchmark spreads <set.json>
  benchmark manifest
workloads: fill read mixed net-rtt net-pipelined";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeats: usize,
    traced: bool,
    out: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        repeats: 5,
        traced: false,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                a.workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeats" => {
                a.repeats = value("--repeats")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?;
                if a.repeats == 0 {
                    return Err("--repeats must be at least 1".to_string());
                }
            }
            "--traced" => a.traced = true,
            // Short phases, one repeat: enough to see that everything runs.
            "--smoke" => {
                a.seconds = 2.0;
                a.repeats = 1;
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => a.files.push(PathBuf::from(file)),
        }
    }
    Ok(a)
}

fn write_out(path: &PathBuf, json: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{json}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read_set(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One run of one workload. The last line printed is the result object.
fn run_one(a: &Args) -> Result<ExitCode, String> {
    let workload = a.workload.ok_or("--workload is required")?;
    let cfg = RunConfig {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
    };
    let observed = run::run(cfg).map_err(|e| format!("{} failed to run: {e}", workload.name()))?;
    let metrics = if a.trace {
        layers::collect(&observed)
    } else {
        report::end_to_end(&observed)
    };
    report::print_lines(workload.name(), &metrics);
    let stale: u64 = observed.workers.iter().map(|w| w.stale).sum();
    if stale > 0 {
        eprintln!(
            "{}: {stale} of {} gets returned an overwritten version (not counted as failed; see README, Known defects)",
            workload.name(),
            observed.attempted
        );
    }
    if let Some(why) = &observed.first_failure {
        eprintln!(
            "{}: {} of {} operations failed, first: {why}",
            workload.name(),
            observed.failed,
            observed.attempted
        );
    }
    let result = report::result_json(observed.attempted, observed.failed, &metrics);
    if let Some(path) = &a.out {
        let mut full = result.clone();
        if let Json::Obj(m) = &mut full {
            m.insert("fingerprint".to_string(), host::fingerprint());
            m.insert(
                "workload".to_string(),
                Json::Str(workload.name().to_string()),
            );
            m.insert(
                "device".to_string(),
                Json::Str(workload.device_name().to_string()),
            );
            m.insert("seed".to_string(), Json::Num(a.seed as f64));
            m.insert("seconds".to_string(), Json::Num(a.seconds));
            m.insert("stale_reads".to_string(), Json::Num(stale as f64));
        }
        write_out(path, &full)?;
    }
    println!("{result}");
    Ok(if observed.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn set_config(a: &Args) -> SetConfig {
    SetConfig {
        workloads: a
            .workload
            .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]),
        seed: a.seed,
        seconds: a.seconds,
        repeats: a.repeats,
        traced: a.traced,
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("run", args),
    };
    let a = parse(rest)?;
    match command {
        "run" => run_one(&a),
        "all" => {
            let set = sets::run_set(&set_config(&a))?;
            sets::print_spreads(&set);
            if let Some(path) = &a.out {
                write_out(path, &set)?;
            }
            Ok(ExitCode::SUCCESS)
        }
        "compare" => {
            let [pa, pb] = a.files.as_slice() else {
                return Err("compare takes two set files".to_string());
            };
            let rows = sets::compare(&read_set(pa)?, &read_set(pb)?);
            let regressed = rows
                .iter()
                .filter(|r| r.2 == sets::Verdict::Regressed)
                .count();
            Ok(if regressed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        "selfcheck" => {
            let cfg = set_config(&a);
            let first = sets::run_set(&cfg)?;
            let second = sets::run_set(&cfg)?;
            let agree = sets::sets_agree(&first, &second);
            println!(
                "selfcheck: two sets of the same build {}",
                if agree { "agree" } else { "DISAGREE" }
            );
            Ok(if agree {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        "spreads" => {
            let [path] = a.files.as_slice() else {
                return Err("spreads takes one set file".to_string());
            };
            sets::print_spreads(&read_set(path)?);
            Ok(ExitCode::SUCCESS)
        }
        "manifest" => {
            println!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
