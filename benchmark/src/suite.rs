//! Every workload in a process of its own (so `peak_rss_mb` is per
//! workload), the results file, and the comparison of two results files.

use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS};
use crate::proc::host_cpus;
use crate::stats::{median, percentile};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub struct SuiteOpts {
    pub seed: u64,
    pub seconds: f64,
    /// Also make the traced run of each workload.
    pub trace: bool,
    pub smoke: bool,
    /// Untraced runs per workload; 4 or more give the comparison a spread.
    pub repeat: usize,
    pub out: PathBuf,
}

/// First line of `program args`' output, run in `dir`, or `unknown`.
fn tool_line(dir: &Path, program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run this executable on one workload; returns its result line parsed.
fn child(opts: &SuiteOpts, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("--out").arg(&opts.out);
    cmd.args(["--workload", workload]);
    cmd.args(["--seed", &opts.seed.to_string()]);
    cmd.args(["--seconds", &opts.seconds.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let parsed = json::parse(last).map_err(|e| format!("{workload}: result line: {e}"));
    if !output.status.success() {
        print!("{stdout}");
        return Err(format!("{workload}: exited with {}", output.status));
    }
    parsed
}

fn metric_values(lines: &[Json]) -> Json {
    let mut fields: Vec<(String, Json)> = Vec::new();
    let Some(first) = lines
        .first()
        .and_then(|l| l.get("metrics"))
        .and_then(Json::as_obj)
    else {
        return Json::Obj(fields);
    };
    for (name, m) in first {
        let values = lines
            .iter()
            .filter_map(|l| l.get("metrics")?.get(name)?.get("value").cloned())
            .collect();
        fields.push((
            name.clone(),
            Json::obj([
                ("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
                ("values", Json::Arr(values)),
            ]),
        ));
    }
    Json::Obj(fields)
}

fn sum_field(lines: &[Json], key: &str) -> f64 {
    lines.iter().filter_map(|l| l.get(key)?.as_f64()).sum()
}

/// Runs the suite, prints the tables, writes `results.json`. Returns
/// whether every run was correct.
///
/// # Errors
/// A child that could not be run or did not print a result.
pub fn suite(opts: &SuiteOpts) -> Result<bool, String> {
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let mut workloads: Vec<(String, Json)> = Vec::new();
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        let mut plain = Vec::new();
        for _ in 0..opts.repeat.max(1) {
            plain.push(child(opts, name, false)?);
        }
        let traced: Vec<Json> = if opts.trace {
            vec![child(opts, name, true)?]
        } else {
            Vec::new()
        };
        let lines = || plain.iter().chain(&traced);
        let correct = lines().all(|l| l.get("correct") == Some(&Json::Bool(true)));
        all_correct &= correct;
        let all: Vec<Json> = lines().cloned().collect();
        workloads.push((
            (*name).to_string(),
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(sum_field(&all, "attempted"))),
                ("failed", Json::Num(sum_field(&all, "failed"))),
                ("end_to_end", metric_values(&plain)),
                ("per_layer", metric_values(&traced)),
            ]),
        ));
    }
    let results = Json::obj([
        ("schema", Json::Str("muir-benchmark-results-v1".to_string())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("repeat", Json::Num(opts.repeat.max(1) as f64)),
        ("host_cpus", Json::Num(host_cpus() as f64)),
        (
            "rustc",
            Json::Str(tool_line(&opts.out, "rustc", &["--version"])),
        ),
        (
            "commit",
            Json::Str(tool_line(
                &opts.out,
                "git",
                &["rev-parse", "--short", "HEAD"],
            )),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    print_results(&results);
    let path = opts.out.join("results.json");
    std::fs::write(&path, format!("{results}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(all_correct)
}

fn values(metric: &Json) -> Vec<f64> {
    metric
        .get("values")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn print_results(results: &Json) {
    let Some(workloads) = results.get("workloads").and_then(Json::as_obj) else {
        return;
    };
    println!(
        "\nhost_cpus {}  {}  commit {}",
        results
            .get("host_cpus")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        results
            .get("rustc")
            .and_then(Json::as_str)
            .unwrap_or("unknown"),
        results
            .get("commit")
            .and_then(Json::as_str)
            .unwrap_or("unknown"),
    );
    println!("\nend to end (median of the runs made)");
    print!("{:<14}", "workload");
    for m in END_TO_END {
        print!(" {:>22}", format!("{} [{}]", m.name, m.unit));
    }
    println!(" {:>12}", "failed_share");
    for (name, w) in workloads {
        print!("{name:<14}");
        for m in END_TO_END {
            let v = w.get("end_to_end").and_then(|e| e.get(m.name)).map(values);
            print!(" {:>22.4}", median(&v.unwrap_or_default()));
        }
        let attempted = w.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        let failed = w.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        println!(" {:>12.4}", failed / attempted.max(1.0));
    }
    let traced = |w: &Json| {
        w.get("per_layer")
            .and_then(Json::as_obj)
            .is_some_and(|o| !o.is_empty())
    };
    if !workloads.iter().any(|(_, w)| traced(w)) {
        return;
    }
    println!("\nper layer (traced run; per-round sums; 0 = the layer did nothing)");
    print!("{:<34}", "metric [unit]");
    for (name, _) in workloads {
        print!(" {name:>14}");
    }
    println!();
    for layer in PER_LAYER {
        print!("{:<34}", format!("{} [{}]", layer.name, layer.unit));
        for (_, w) in workloads {
            let v = w
                .get("per_layer")
                .and_then(|p| p.get(layer.name))
                .map(values);
            print!(
                " {:>14.3}",
                v.unwrap_or_default().first().copied().unwrap_or(0.0)
            );
        }
        println!();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Hold the change's runs `b` against the parent's runs `a` under
/// `bound`. A metric whose parent spread (quartile distance over median,
/// needs 4 runs) is wider than its bound cannot be judged — unless every
/// run of the change reads better than every run of the parent.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worsening = sign * (median(b) - median(a)) / median(a);
    let all_better = a.iter().all(|x| b.iter().all(|y| sign * (y - x) < 0.0));
    if all_better {
        return Verdict::Ok;
    }
    if worsening > bound {
        return Verdict::Worse;
    }
    let spread = (a.len() >= 4).then(|| (percentile(a, 75.0) - percentile(a, 25.0)) / median(a));
    match spread {
        Some(s) if s > bound => Verdict::Unresolved,
        _ => Verdict::Ok,
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints, per workload and end-to-end metric, both medians, the ratio
/// and the verdict; requires exact counts to be equal and no failures.
/// Returns whether B is acceptable against A.
///
/// # Errors
/// A file that is not a results file.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = |doc: &Json, path: &Path| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or_else(|| format!("{}: no `workloads`", path.display()))
    };
    let (wa, wb) = (workloads(&a, a_path)?, workloads(&b, b_path)?);
    let mut acceptable = true;
    println!("A = {}\nB = {}", a_path.display(), b_path.display());
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>16} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for (name, ra) in &wa {
        let Some(rb) = wb.iter().find(|(n, _)| n == name).map(|(_, r)| r) else {
            println!("{name:<14} missing from B");
            acceptable = false;
            continue;
        };
        for m in END_TO_END {
            let side = |r: &Json| r.get("end_to_end").and_then(|e| e.get(m.name)).map(values);
            let (Some(va), Some(vb)) = (side(ra), side(rb)) else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, m.better, m.bound);
            acceptable &= v != Verdict::Worse;
            println!(
                "{name:<14} {:<18} {:>14.4} {:>14.4} {:>16} {:>7.2}  {}",
                m.name,
                median(&va),
                median(&vb),
                format!("{:.4} of A", median(&vb) / median(&va)),
                m.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for count in EXACT_COUNTS {
            let side = |r: &Json| r.get("per_layer").and_then(|p| p.get(count)).map(values);
            if let (Some(ca), Some(cb)) = (side(ra), side(rb)) {
                if ca != cb {
                    println!("{name:<14} {count:<18} {ca:?} != {cb:?}  count differs");
                    acceptable = false;
                }
            }
        }
        for (side, r) in [("A", ra), ("B", rb)] {
            let failed = r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            if failed > 0.0 || r.get("correct") != Some(&Json::Bool(true)) {
                println!("{name:<14} {side}: {failed} failed items or unstable counts");
                acceptable = false;
            }
        }
    }
    println!(
        "{}",
        if acceptable {
            "B holds against A"
        } else {
            "B does not hold against A"
        }
    );
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(&[100.0], &[105.0], Lower, 0.10), Verdict::Ok);
        assert_eq!(verdict(&[100.0], &[111.0], Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(&[100.0], &[89.0], Higher, 0.10), Verdict::Worse);
        assert_eq!(verdict(&[100.0], &[120.0], Higher, 0.10), Verdict::Ok);
        // Parent runs spread wider than the bound: cannot be judged …
        let noisy = [80.0, 95.0, 100.0, 110.0, 125.0];
        assert_eq!(verdict(&noisy, &[101.0], Lower, 0.10), Verdict::Unresolved);
        // … unless every run of the change beats every run of the parent.
        assert_eq!(verdict(&noisy, &[70.0, 75.0], Lower, 0.10), Verdict::Ok);
        // A tight parent is judged.
        let tight = [99.0, 100.0, 100.0, 101.0];
        assert_eq!(verdict(&tight, &[104.0], Lower, 0.10), Verdict::Ok);
    }

    #[test]
    fn results_file_is_well_formed() {
        let line = |v: f64| {
            json::parse(&crate::result_line(
                &crate::run::RunResult {
                    attempted: 10,
                    failed: 0,
                    unstable_counts: Vec::new(),
                    rounds: 3,
                    metrics: END_TO_END.iter().map(|m| (m.name.to_string(), v)).collect(),
                },
                false,
            ))
            .expect("a result line is JSON")
        };
        let lines = [line(1.5), line(2.5)];
        assert_eq!(lines[0].get("correct"), Some(&Json::Bool(true)));
        assert_eq!(lines[0].get("attempted").and_then(Json::as_f64), Some(10.0));
        let merged = metric_values(&lines);
        for m in END_TO_END {
            let got = merged.get(m.name).expect("every end-to-end metric");
            assert_eq!(got.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(values(got), vec![1.5, 2.5]);
        }
        let text = merged.to_string();
        assert_eq!(json::parse(&text).unwrap(), merged);
    }
}
