//! # ledger — the repository's one perf ledger
//!
//! Five named workloads, four end-to-end metrics with regression bounds,
//! and per-layer metrics taken from outside the program with the ledger's
//! own spans. See `README.md` beside this file for the glossary.
//!
//! ```text
//! ledger --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line last
//! ledger [--workload NAME] [--seed N] [--seconds S]          every workload, both runs, one table;
//!                                                            all five: also rewrites baseline.json
//! ledger --repeat N [--workload NAME] [--seed N]             2 × N untraced runs per workload: spread vs bound
//! ledger --smoke                                             tiny4 only, 0.2 s segments, in-process
//! ```
//!
//! Without `--trace` the ledger re-executes itself once per workload and
//! run kind, so every measurement has a fresh address space and
//! `rss_mb` belongs to one workload.

mod host;
mod layers;
mod metrics;
mod openloop;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use microrec_json::Json;

use crate::host::Host;
use crate::metrics::{EndToEnd, Values, END_TO_END, PER_LAYER};
use crate::run::{RunConfig, RunResult};
use crate::workloads::{Load, Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
const DEFAULT_SECONDS: f64 = 18.0;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: Option<usize>,
    smoke: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        repeat: None,
        smoke: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                args.workload = Some(
                    workloads::find(value)
                        .ok_or_else(|| format!("unknown workload {value:?}; one of {names:?}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--repeat" => {
                let n: usize = value.parse().map_err(|_| bad())?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs per set".into());
                }
                args.repeat = Some(n);
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

/// Build outputs, the trace files and the cold tier's scratch file all go
/// under the target directory, inside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("ledger")
}

/// The metric names, units and values of one run, in catalogue order; a
/// layer metric the workload has no use for (e.g. `core.runtime.*` on a
/// batch workload) reads 0.
fn reported(
    trace: bool,
    values: &Values,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let rows: Vec<(&'static str, &'static str, f64)> = if trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, values.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                values
                    .get(m.name)
                    .map(|&v| (m.name, m.unit, v))
                    .ok_or(format!("{} not measured", m.name))
            })
            .collect::<Result<_, _>>()?
    };
    match rows.iter().find(|(_, _, v)| !v.is_finite()) {
        Some((name, _, v)) => Err(format!("{name} is {v}")),
        None => Ok(rows),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(result: &RunResult, rows: &[(&'static str, &'static str, f64)]) -> Json {
    let metrics = rows
        .iter()
        .map(|&(name, unit, value)| {
            let entry =
                vec![("value".into(), Json::Float(value)), ("unit".into(), Json::Str(unit.into()))];
            (name.to_string(), Json::Obj(entry))
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(result.correct)),
        ("attempted".into(), Json::UInt(result.attempted)),
        ("failed".into(), Json::UInt(result.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// One workload, one run, in this process; the result line is printed last.
fn single_run(cfg: &RunConfig) -> Result<ExitCode, String> {
    let host = Host::detect();
    println!("# host: {} cores, simd: {}", host.cores, host.simd);
    println!(
        "# {} seed {} seconds {} trace {}",
        cfg.workload.name, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    let result = run::run(cfg)?;
    let rows = reported(cfg.trace, &result.values)?;
    for (name, unit, value) in &rows {
        println!("{name} = {value} {unit}");
    }
    println!("{}", result_json(&result, &rows).to_compact());
    // On serve-open a refusal is an outcome of the offered load; on every
    // other workload any failed operation fails the command.
    let refusals_allowed = matches!(cfg.workload.load, Load::ServeOpen { .. });
    Ok(if result.failed > 0 && !refusals_allowed { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

/// Runs one workload in a child process and returns its metrics.
fn child_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}: {last}",
            w.name, trace as u8, output.status
        ));
    }
    let doc = Json::parse(last).map_err(|e| format!("{}: result line: {e}", w.name))?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        eprintln!("{}: {last}", w.name);
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{}: result line has no metrics", w.name));
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            value.map(|v| (name.clone(), v)).ok_or(format!("{}: {name} has no value", w.name))
        })
        .collect()
}

fn selected(args: &Args) -> Vec<&'static Workload> {
    args.workload.map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w])
}

/// Where the full set records its numbers, relative to the repository
/// root the command is run from: beside the ledger's sources, so the
/// latest baseline is a file of the benchmark and a regression is a diff.
const BASELINE_PATH: &str = "crates/bench/src/bin/ledger/baseline.json";

/// One metric of the baseline file: the measured value and the catalogue
/// columns needed to read it.
fn baseline_entry(value: f64, unit: &str, extra: (&str, Json)) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Float(value)),
        ("unit".into(), Json::Str(unit.into())),
        (extra.0.into(), extra.1),
    ])
}

/// Every selected workload, untraced then traced, one table each. A run of
/// all five also rewrites the baseline file.
fn full_set(args: &Args) -> Result<ExitCode, String> {
    let host = Host::detect();
    println!("host: {} cores, simd: {}", host.cores, host.simd);
    let mut recorded = Vec::new();
    for w in selected(args) {
        println!("\n## {} — {}", w.name, w.why);
        let end_to_end = child_run(w, args.seed, args.seconds, false)?;
        let mut gated = Vec::new();
        for (m, (name, value)) in END_TO_END.iter().zip(&end_to_end) {
            println!(
                "{name:<42} {value:>18.6} {:<9} ({} is better, bound {})",
                m.unit, m.better, m.bound
            );
            gated.push((
                name.clone(),
                baseline_entry(*value, m.unit, ("bound", Json::Float(m.bound))),
            ));
        }
        let layers = child_run(w, args.seed, args.seconds, true)?;
        let mut traced = Vec::new();
        for (m, (name, value)) in PER_LAYER.iter().zip(&layers) {
            println!("{name:<42} {value:>18.6} {:<9} -> {}", m.unit, m.moves);
            traced.push((
                name.clone(),
                baseline_entry(*value, m.unit, ("moves", Json::Str(m.moves.into()))),
            ));
        }
        recorded.push((
            w.name.to_string(),
            Json::Obj(vec![
                ("end_to_end".into(), Json::Obj(gated)),
                ("per_layer".into(), Json::Obj(traced)),
            ]),
        ));
    }
    if args.workload.is_none() {
        // The host's fingerprint (`host.*`) is among every workload's
        // per-layer metrics; cores and SIMD head the file as well.
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("microrec-ledger-baseline-v1".into())),
            ("host_cores".into(), Json::UInt(host.cores as u64)),
            ("host_simd".into(), Json::Str(host.simd)),
            ("seed".into(), Json::UInt(args.seed)),
            ("run_seconds".into(), Json::Float(args.seconds)),
            ("workloads".into(), Json::Obj(recorded)),
        ]);
        std::fs::write(BASELINE_PATH, doc.to_pretty() + "\n")
            .map_err(|e| format!("{BASELINE_PATH} (run from the repository root): {e}"))?;
        println!("\nbaseline written to {BASELINE_PATH}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Whether `second` is worse than `first` by more than `bound` of `first`.
fn worse_by_more_than(m: &EndToEnd, first: f64, second: f64) -> bool {
    let worsening = if m.better == "lower" { second - first } else { first - second };
    worsening > m.bound * first.abs()
}

/// The acceptance rule, run by the ledger on itself: two sets of `n`
/// untraced runs per workload, every run on another seed. A metric passes
/// when each set's inter-quartile spread stays within its bound
/// (`setup_s` is exempt from this half) and the second set's median is
/// not worse than the first's by more than the bound.
fn repeat_sets(args: &Args, n: usize) -> Result<ExitCode, String> {
    let mut failures = 0usize;
    for w in selected(args) {
        let mut sets: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        for (s, set) in sets.iter_mut().enumerate() {
            for r in 0..n {
                let seed = args.seed + (s * n + r) as u64;
                eprintln!("{} set {} run {}/{n} seed {seed}", w.name, s + 1, r + 1);
                set.push(child_run(w, seed, args.seconds, false)?);
            }
        }
        println!("\n## {} — 2 sets of {n} runs", w.name);
        println!(
            "{:<10} {:>3} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
            "metric", "set", "q1", "median", "q3", "spread", "bound"
        );
        for (i, m) in END_TO_END.iter().enumerate() {
            let column = |set: &Vec<Vec<(String, f64)>>| {
                set.iter().map(|run| run[i].1).collect::<Vec<f64>>()
            };
            let columns = [column(&sets[0]), column(&sets[1])];
            let medians = [stats::median(&columns[0]), stats::median(&columns[1])];
            for (s, values) in columns.iter().enumerate() {
                let [q1, q2, q3] = stats::quartiles(values);
                let spread = stats::spread(values);
                let mut verdict = Vec::new();
                if spread > m.bound && m.name != "setup_s" {
                    verdict.push("SPREAD BEYOND BOUND");
                }
                if s == 1 && worse_by_more_than(m, medians[0], medians[1]) {
                    verdict.push("SETS DISAGREE");
                }
                failures += verdict.len();
                let verdict =
                    if verdict.is_empty() { "ok".to_string() } else { verdict.join(", ") };
                println!(
                    "{:<10} {:>3} {q1:>14.4} {q2:>14.4} {q3:>14.4} {spread:>8.4} {:>6}  {verdict}",
                    m.name,
                    s + 1,
                    m.bound
                );
                println!("{:<14} every run: {values:.4?}", "");
            }
        }
    }
    Ok(if failures == 0 { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// `tiny4` only, 0.2 s segments, both run kinds, in this process: checks
/// that every catalogue metric comes out and the result line parses.
fn smoke(out_dir: PathBuf) -> Result<(), String> {
    let workload = workloads::find("serve-sat").expect("serve-sat is in the list");
    for trace in [false, true] {
        let cfg = RunConfig { workload, seed: 1, seconds: 3.2, trace, out_dir: out_dir.clone() };
        let result = run::run(&cfg)?;
        let rows = reported(trace, &result.values)?;
        let line = result_json(&result, &rows).to_compact();
        let doc = Json::parse(&line).map_err(|e| format!("result line: {e}"))?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err("result line has no metrics".into());
        };
        let want = if trace { PER_LAYER.len() } else { END_TO_END.len() };
        if metrics.len() != want {
            return Err(format!(
                "{} metrics in the result line, catalogue has {want}",
                metrics.len()
            ));
        }
        if !trace && rows.iter().any(|(_, _, v)| *v <= 0.0) {
            return Err(format!("an end-to-end metric is not positive: {line}"));
        }
        if !result.correct || result.failed != 0 || result.attempted == 0 {
            return Err(format!("smoke run failed operations: {line}"));
        }
        println!("{line}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&raw).and_then(|args| {
        let dir = out_dir();
        let single = args.smoke || args.trace.is_some();
        if single {
            // The cold tier writes its store file under the OS temp
            // directory: keep that inside the checkout too. Set before
            // any other thread exists.
            let tmp = dir.join("tmp");
            // A killed run cannot delete its store file; start clean.
            let _ = std::fs::remove_dir_all(&tmp);
            std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
            std::env::set_var("TMPDIR", &tmp);
        }
        match (args.smoke, args.trace, args.repeat) {
            (true, _, _) => smoke(dir).map(|()| ExitCode::SUCCESS),
            (false, Some(trace), _) => single_run(&RunConfig {
                workload: args.workload.expect("parse_args requires --workload with --trace"),
                seed: args.seed,
                seconds: args.seconds,
                trace,
                out_dir: dir,
            }),
            (false, None, Some(n)) => repeat_sets(&args, n),
            (false, None, None) => full_set(&args),
        }
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let args = parse_args(&strings(&[
            "--workload",
            "fc-batch",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.map(|w| w.name), Some("fc-batch"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, Some(true)));
        assert_eq!(parse_args(&[]).unwrap().seconds, DEFAULT_SECONDS);
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--trace", "1"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2", "--workload", "fc-batch"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--repeat", "1"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
    }

    #[test]
    fn sets_disagree_only_beyond_the_bound_and_in_the_bad_direction() {
        let qps = EndToEnd { name: "qps", unit: "items/s", better: "higher", bound: 0.05 };
        assert!(!worse_by_more_than(&qps, 100.0, 96.0));
        assert!(worse_by_more_than(&qps, 100.0, 94.0));
        assert!(!worse_by_more_than(&qps, 100.0, 150.0));
        let p50 = EndToEnd { name: "p50_us", unit: "us", better: "lower", bound: 0.10 };
        assert!(worse_by_more_than(&p50, 100.0, 111.0));
        assert!(!worse_by_more_than(&p50, 100.0, 50.0));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::new();
        for m in &END_TO_END {
            values.insert(m.name, 1.5);
        }
        let result = RunResult { correct: true, attempted: 10, failed: 0, values };
        let rows = reported(false, &result.values).unwrap();
        let Json::Obj(top) = result_json(&result, &rows) else { panic!("not an object") };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(
            reported(false, &Values::new()).is_err(),
            "a missing end-to-end metric is an error"
        );
        assert_eq!(reported(true, &Values::new()).unwrap().len(), PER_LAYER.len());
        let mut bad = result.values.clone();
        bad.insert("qps", f64::NAN);
        assert!(reported(false, &bad).is_err());
    }

    /// The `--smoke` self-run: tiny4, 0.2 s segments, untraced and traced.
    #[test]
    fn smoke_self_run_reports_every_metric() {
        let dir = std::env::temp_dir().join(format!("ledger-smoke-{}", std::process::id()));
        let outcome = smoke(dir.clone());
        let _ = std::fs::remove_dir_all(&dir);
        outcome.unwrap();
    }
}
