//! Host-performance benchmark of the μIR toolchain. See `README.md`.
//!
//! ```text
//! muir-benchmark --out DIR --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! muir-benchmark --out DIR [--seed N] [--seconds S] [--trace] [--smoke] [--repeat N]
//! muir-benchmark --compare A.json B.json
//! ```

mod bench;
mod compile;
mod dse;
mod json;
mod metrics;
mod proc;
mod run;
mod service;
mod sim;
mod stats;
mod suite;
mod trace;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed of a run that does not name one.
const DEFAULT_SEED: u64 = 11;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Unit and better direction of a metric of the traced or untraced run.
fn unit_and_better(name: &str, trace: bool) -> (&'static str, &'static str) {
    if trace {
        let l = PER_LAYER.iter().find(|l| l.name == name);
        l.map_or(("", ""), |l| (l.unit, l.better.as_str()))
    } else {
        let m = END_TO_END.iter().find(|m| m.name == name);
        m.map_or(("", ""), |m| (m.unit, m.better.as_str()))
    }
}

/// The last line of a single-workload run: the driver's contract.
fn result_line(r: &run::RunResult, trace: bool) -> String {
    let unit = |name: &str| unit_and_better(name, trace).0;
    let metrics = r.metrics.iter().map(|(name, v)| {
        (
            name.clone(),
            Json::obj([
                ("value", Json::Num(*v)),
                ("unit", Json::Str(unit(name).to_string())),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string()
}

fn single(opts: &run::RunOpts) -> Result<bool, String> {
    let r = run::run(opts)?;
    println!(
        "{} seed {} host_cpus {}: {} rounds, {} items attempted, {} failed (failed_share {:.4})",
        opts.workload,
        opts.seed,
        proc::host_cpus(),
        r.rounds,
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    for name in &r.unstable_counts {
        println!("count `{name}` differed between two rounds");
    }
    for (name, v) in &r.metrics {
        let (unit, better) = unit_and_better(name, opts.trace);
        println!("  {name:<34} {v:>16.4} {unit:<8} ({better} is better)");
    }
    println!("{}", result_line(&r, opts.trace));
    Ok(r.correct())
}

struct Args {
    workload: Option<String>,
    compare: Option<(PathBuf, PathBuf)>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        compare: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat: 1,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter().peekable();
    fn value<'a>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: `{text}` is not a number"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, flag)?.clone()),
            "--seed" => a.seed = number(value(&mut it, flag)?, flag)?,
            "--seconds" => a.seconds = number(value(&mut it, flag)?, flag)?,
            "--repeat" => a.repeat = number(value(&mut it, flag)?, flag)?,
            "--out" => a.out = PathBuf::from(value(&mut it, flag)?),
            "--smoke" => a.smoke = true,
            // `--trace 0|1` from the driver; bare `--trace` for the suite.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--compare" => {
                let first = PathBuf::from(value(&mut it, flag)?);
                a.compare = Some((first, PathBuf::from(value(&mut it, flag)?)));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|a| {
        if let Some((first, second)) = &a.compare {
            suite::compare(first, second)
        } else if let Some(workload) = a.workload {
            single(&run::RunOpts {
                workload,
                seed: a.seed,
                seconds: a.seconds,
                trace: a.trace,
                smoke: a.smoke,
                out: a.out,
            })
        } else {
            suite::suite(&suite::SuiteOpts {
                seed: a.seed,
                seconds: a.seconds,
                trace: a.trace,
                smoke: a.smoke,
                repeat: a.repeat,
                out: a.out,
            })
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("muir-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{EXACT_COUNTS, SCALAR_PROGRAMS, TENSOR_PROGRAMS, WORKLOADS};

    /// `BENCHMARK.json` carries the same names, units, directions, bounds
    /// and workloads as the code.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let rows = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();
        let text = |row: &Json, key: &str| row.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads = rows("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (row, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(row, "name"), *name);
            assert_eq!(text(row, "why"), *why);
            assert!(why.len() <= 200, "{name}: why too long");
        }
        let end_to_end = rows("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (row, m) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(text(row, "name"), m.name);
            assert_eq!(text(row, "unit"), m.unit);
            assert_eq!(text(row, "better"), m.better.as_str());
            assert_eq!(row.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let per_layer = rows("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (row, l) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(text(row, "name"), l.name);
            assert_eq!(text(row, "unit"), l.unit);
            assert_eq!(text(row, "better"), l.better.as_str());
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn tables_are_consistent() {
        let names: Vec<&str> = PER_LAYER.iter().map(|l| l.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a per-layer name is used twice");
        for count in EXACT_COUNTS {
            assert!(names.contains(count), "{count} is not a per-layer metric");
        }
        for p in SCALAR_PROGRAMS.iter().chain(&TENSOR_PROGRAMS) {
            let row = format!("sim.{}.ns_per_fire", stats::normalise(p));
            assert!(names.contains(&row.as_str()), "{row} has no row");
        }
        for name in names.iter().chain(END_TO_END.iter().map(|m| &m.name)) {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }

    #[test]
    fn driver_and_suite_spellings_of_trace_parse() {
        let args = |s: &str| parse_args(&s.split(' ').map(str::to_string).collect::<Vec<_>>());
        let a = args("--workload compile --seed 7 --seconds 2 --trace 0").unwrap();
        assert!(!a.trace && a.seed == 7 && a.workload.as_deref() == Some("compile"));
        assert!(args("--workload compile --trace 1").unwrap().trace);
        let a = args("--trace --smoke").unwrap();
        assert!(a.trace && a.smoke && a.workload.is_none());
        assert!(args("--seconds 0").is_err());
        assert!(args("--bogus").is_err());
    }
}
