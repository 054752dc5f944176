//! Sets of runs: every workload repeated in child processes (one process
//! per run, as the acceptance driver does it), medians and spreads, and
//! the comparison of two sets — the `perfdiff` of the ROADMAP.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::host;
use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::stats::{median_f64, spread};
use crate::workloads::Workload;

#[derive(Debug, Clone)]
pub struct SetConfig {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub repeats: usize,
    /// Also make one traced run per workload and keep its per-layer rows.
    pub traced: bool,
}

/// Runs one workload once in a child process and returns its result
/// object (the last line of its standard output). A traced child's table
/// and budgets, the lines before that, are passed on.
fn run_child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if trace {
        let shown = stdout.trim_end().len().saturating_sub(last.len());
        print!("{}", &stdout[..shown]);
    }
    let result = Json::parse(last)
        .map_err(|e| format!("{} seed {seed}: no result line ({e})", workload.name()))?;
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed}: exited with {}: {last}",
            workload.name(),
            out.status
        ));
    }
    Ok(result)
}

fn metric_values(result: &Json) -> BTreeMap<String, (f64, String)> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(name, v)| {
                    let value = v.get("value")?.as_f64()?;
                    let unit = v.get("unit")?.as_str()?.to_string();
                    Some((name.clone(), (value, unit)))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Runs a set: `repeats` untraced runs of every workload, seeds `seed`,
/// `seed + 1`, …, and optionally one traced run each.
pub fn run_set(cfg: &SetConfig) -> Result<Json, String> {
    let mut workloads = BTreeMap::new();
    for &w in &cfg.workloads {
        let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
        let (mut attempted, mut failed) = (Vec::new(), Vec::new());
        for r in 0..cfg.repeats {
            let seed = cfg.seed + r as u64;
            eprintln!(
                "[set] {} run {}/{} seed {seed}",
                w.name(),
                r + 1,
                cfg.repeats
            );
            let result = run_child(w, seed, cfg.seconds, false)?;
            attempted.push(Json::Num(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            ));
            failed.push(Json::Num(
                result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
            ));
            for (name, (value, unit)) in metric_values(&result) {
                values
                    .entry(name)
                    .or_insert_with(|| (Vec::new(), unit))
                    .0
                    .push(value);
            }
        }
        let metrics: BTreeMap<String, Json> = values
            .into_iter()
            .map(|(name, (vals, unit))| {
                let entry = Json::obj([
                    ("unit", Json::Str(unit)),
                    ("median", Json::Num(median_f64(&vals))),
                    ("spread", Json::Num(spread(&vals))),
                    (
                        "values",
                        Json::Arr(vals.into_iter().map(Json::Num).collect()),
                    ),
                ]);
                (name, entry)
            })
            .collect();
        let mut entry = BTreeMap::from([
            ("device".to_string(), Json::Str(w.device_name().to_string())),
            ("attempted".to_string(), Json::Arr(attempted)),
            ("failed".to_string(), Json::Arr(failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]);
        if cfg.traced {
            eprintln!("[set] {} traced run seed {}", w.name(), cfg.seed);
            let result = run_child(w, cfg.seed, cfg.seconds, true)?;
            let layers = metric_values(&result)
                .into_iter()
                .map(|(name, (value, unit))| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit))]),
                    )
                })
                .collect();
            entry.insert("per_layer".to_string(), Json::Obj(layers));
        }
        workloads.insert(w.name().to_string(), Json::Obj(entry));
    }
    Ok(Json::obj([
        ("fingerprint", host::fingerprint()),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("repeats", Json::Num(cfg.repeats as f64)),
        ("workloads", Json::Obj(workloads)),
    ]))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How far `b` is worse than `a`, as a share of `a` (negative = better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict for one workload × metric. A spread between repeats wider
/// than the bound means the sets cannot tell a change of that size from
/// noise: unresolved, never "unchanged". Otherwise `b` regressed if it is
/// worse than `a` by more than the bound and improved if it is better by
/// more than the bound. Medians of one build drift by several percent
/// between sets on a shared host, so a smaller difference is "unchanged"
/// here; a smaller gain has to be shown with alternating pairs of runs.
pub fn verdict(better: Better, bound: f64, a: (f64, f64), b: (f64, f64)) -> Verdict {
    let ((a_median, a_spread), (b_median, b_spread)) = (a, b);
    if a_spread > bound || b_spread > bound {
        return Verdict::Unresolved;
    }
    let worse = worse_by(better, a_median, b_median);
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn median_and_spread(set: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let m = set
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    Some((m.get("median")?.as_f64()?, m.get("spread")?.as_f64()?))
}

/// Prints one row per workload × end-to-end metric and returns the
/// verdicts. The ratio is B's median over A's: A is the base.
pub fn compare(a: &Json, b: &Json) -> Vec<(String, &'static str, Verdict)> {
    if a.get("fingerprint") != b.get("fingerprint") {
        println!("note: the two sets carry different host fingerprints; their numbers are not comparable");
    }
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "A sprd", "B sprd", "bound"
    );
    let mut out = Vec::new();
    for w in Workload::ALL {
        for m in END_TO_END {
            let (Some(sa), Some(sb)) = (
                median_and_spread(a, w.name(), m.name),
                median_and_spread(b, w.name(), m.name),
            ) else {
                continue;
            };
            let v = verdict(m.better, m.bound, sa, sb);
            println!(
                "{:<14} {:<12} {:>14.4} {:>14.4} {:>9.4} {:>8.4} {:>8.4} {:>6.2}  {}",
                w.name(),
                m.name,
                sa.0,
                sb.0,
                sb.0 / sa.0,
                sa.1,
                sb.1,
                m.bound,
                v.as_str()
            );
            out.push((w.name().to_string(), m.name, v));
        }
    }
    out
}

/// Two sets of the same build must agree: every metric unchanged — none
/// regressed, none improved, none unresolved.
pub fn sets_agree(a: &Json, b: &Json) -> bool {
    compare(a, b)
        .iter()
        .all(|(_, _, v)| *v == Verdict::Unchanged)
}

/// Spread table of one set against the bounds: what justified keeping a
/// metric end to end.
pub fn print_spreads(set: &Json) {
    println!(
        "{:<14} {:<12} {:>14} {:>8} {:>6}  within a third of bound",
        "workload", "metric", "median", "spread", "bound"
    );
    for w in Workload::ALL {
        for m in END_TO_END {
            if let Some((median, sp)) = median_and_spread(set, w.name(), m.name) {
                let ok = sp <= m.bound / 3.0 || m.name == "setup_s";
                println!(
                    "{:<14} {:<12} {:>14.4} {:>8.4} {:>6.2}  {}",
                    w.name(),
                    m.name,
                    median,
                    sp,
                    m.bound,
                    if ok { "yes" } else { "NO" }
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(Better::Lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 112.0) + 0.12).abs() < 1e-12);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn verdicts() {
        let v = |better, a, b| verdict(better, 0.10, a, b);
        assert_eq!(
            v(Better::Lower, (100.0, 0.02), (112.0, 0.02)),
            Verdict::Regressed
        );
        assert_eq!(
            v(Better::Lower, (100.0, 0.02), (109.0, 0.02)),
            Verdict::Unchanged
        );
        assert_eq!(
            v(Better::Lower, (100.0, 0.02), (91.0, 0.02)),
            Verdict::Unchanged,
            "gain inside the bound"
        );
        assert_eq!(
            v(Better::Lower, (100.0, 0.02), (89.0, 0.02)),
            Verdict::Improved
        );
        assert_eq!(
            v(Better::Higher, (100.0, 0.02), (88.0, 0.02)),
            Verdict::Regressed
        );
        assert_eq!(
            v(Better::Higher, (100.0, 0.02), (115.0, 0.02)),
            Verdict::Improved
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let v = |a, b| verdict(Better::Lower, 0.10, a, b);
        assert_eq!(v((100.0, 0.15), (100.0, 0.02)), Verdict::Unresolved);
        assert_eq!(v((100.0, 0.02), (130.0, 0.12)), Verdict::Unresolved);
        assert_eq!(
            v((100.0, 0.10), (100.0, 0.10)),
            Verdict::Unchanged,
            "spread equal to the bound resolves"
        );
    }

    #[test]
    fn compare_reads_sets_and_flags_regressions() {
        let set = |ops: f64| {
            Json::parse(&format!(
                "{{\"workloads\": {{\"fill\": {{\"metrics\": {{\"ops_per_s\": {{\"unit\": \"1/s\", \"median\": {ops}, \"spread\": 0.01, \"values\": [{ops}]}}}}}}}}}}"
            ))
            .unwrap()
        };
        let rows = compare(&set(1000.0), &set(700.0));
        assert_eq!(
            rows,
            vec![("fill".to_string(), "ops_per_s", Verdict::Regressed)]
        );
        assert!(sets_agree(&set(1000.0), &set(1005.0)));
        assert!(
            !sets_agree(&set(1000.0), &set(1400.0)),
            "sets 40 % apart disagree"
        );
    }
}
