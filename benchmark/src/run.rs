//! One measured run of one workload: set-up, warm-up, timed rounds,
//! verification between rounds, and the metrics of the run.

use crate::bench::{self, Values};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::proc::{cpu_seconds, peak_rss_mb};
use crate::stats::{median, percentile, Rng};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    /// How long the timed rounds go on (checked at round ends).
    pub seconds: f64,
    /// The traced run: per-layer metrics, every other round under spans.
    pub trace: bool,
    /// 1 set-up, 1 warm-up round, 3 timed rounds.
    pub smoke: bool,
    /// Directory for store roots and trace files.
    pub out: PathBuf,
}

/// Set-ups per run: at least `SETUP_REPS`, then more until
/// `SETUP_SECONDS` have passed or `SETUP_REPS_MAX` are made, so that a
/// set-up of tens of milliseconds is not judged by five samples from one
/// instant. The median is `setup_s`; the last set-up is the one used.
const SETUP_REPS: usize = 5;
const SETUP_REPS_MAX: usize = 25;
const SETUP_SECONDS: f64 = 2.0;
const WARMUP_ROUNDS: usize = 3;
const SMOKE_ROUNDS: u32 = 3;

pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    /// Counts that differed between two rounds of this run.
    pub unstable_counts: Vec<String>,
    pub rounds: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Values,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.unstable_counts.is_empty()
    }
}

/// # Errors
/// A workload that cannot be set up (see [`bench::setup`]).
pub fn run(opts: &RunOpts) -> Result<RunResult, String> {
    let scratch = opts.out.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = measure(opts, &scratch);
    bench::clear_dir(&scratch);
    result
}

/// Summed wall ms and CPU s of the best rounds of a run, and how many
/// they are: the fastest twentieth by wall, at least 3 rounds and at least
/// a second of them (CPU time comes in 10 ms ticks).
///
/// The benchmark runs on a shared virtual machine whose neighbours
/// stretch rounds by tens of percent for seconds to minutes at a time,
/// CPU time included. Over 33 back-to-back runs of identical work the
/// median round spread by 10 % of its median (25 % in the worst ten
/// consecutive runs), the fastest tenth by 3 % (5 %), the fastest
/// twentieth by 2 % (4 %). The fastest rounds are what the program itself
/// costs, and a real regression moves them too.
fn best_rounds(rounds: &[(f64, f64)]) -> (f64, f64, usize) {
    let mut sorted = rounds.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let at_least = rounds.len().div_ceil(20).max(3);
    let (mut ms, mut cpu, mut n) = (0.0, 0.0, 0);
    for r in sorted {
        if n >= at_least && ms >= 1e3 {
            break;
        }
        ms += r.0;
        cpu += r.1;
        n += 1;
    }
    (ms, cpu, n)
}

fn measure(opts: &RunOpts, scratch: &std::path::Path) -> Result<RunResult, String> {
    let mut tr = Tracer::new();
    let mut setup_s = Vec::new();
    let mut bench = None;
    let setups_started = Instant::now();
    loop {
        let more = !opts.smoke
            && (setup_s.len() + 1 < SETUP_REPS
                || (setup_s.len() + 1 < SETUP_REPS_MAX
                    && setups_started.elapsed().as_secs_f64() < SETUP_SECONDS));
        drop(bench.take());
        // Only the set-up that is kept is traced.
        tr.set_on(opts.trace && !more);
        let t0 = Instant::now();
        let s = tr.enter("bench.setup");
        let b = bench::setup(&opts.workload, opts.seed, scratch, &mut tr);
        tr.exit(s);
        setup_s.push(t0.elapsed().as_secs_f64());
        bench = Some(b?);
        if !more {
            break;
        }
    }
    tr.end_round(1);
    tr.set_on(false);
    let mut bench = bench.expect("at least one set-up");

    let mut rng = Rng(opts.seed);
    let mut attempted = 0;
    let mut failed = 0;
    let mut first_counts = Values::new();
    let mut unstable_counts: Vec<String> = Vec::new();
    let mut note_counts = |counts: Values| {
        for (name, v) in counts {
            let first = *first_counts.entry(name.clone()).or_insert(v);
            if first != v && !unstable_counts.contains(&name) {
                unstable_counts.push(name);
            }
        }
    };

    for _ in 0..if opts.smoke { 1 } else { WARMUP_ROUNDS } {
        bench.prepare(&mut rng);
        bench.run(&mut tr);
        attempted += bench.items();
        failed += bench.check();
        note_counts(bench.counts());
    }

    // Wall ms of the traced rounds; wall ms and CPU s of the untraced.
    let mut traced_ms = Vec::new();
    let mut plain: Vec<(f64, f64)> = Vec::new();
    let started = Instant::now();
    for round in 1.. {
        let traced = opts.trace && round % 2 == 0;
        tr.set_on(traced);
        bench.prepare(&mut rng);
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let s = tr.enter("bench.round");
        bench.run(&mut tr);
        tr.exit(s);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cpu_s = cpu_seconds() - cpu0;
        attempted += bench.items();
        failed += bench.check();
        if traced {
            let s = tr.enter("bench.replay");
            let replay_failed = bench.replay(&mut tr);
            tr.exit(s);
            attempted += replay_failed;
            failed += replay_failed;
            traced_ms.push(wall_ms);
        } else {
            plain.push((wall_ms, cpu_s));
        }
        note_counts(bench.counts());
        tr.end_round(round + 1);
        let done = if opts.smoke {
            round >= SMOKE_ROUNDS
        } else {
            started.elapsed().as_secs_f64() >= opts.seconds
        };
        if done {
            break;
        }
    }
    tr.set_on(false);

    let rounds = plain.len() + traced_ms.len();
    let plain_ms: Vec<f64> = plain.iter().map(|r| r.0).collect();
    let mut metrics = Values::new();
    if opts.trace {
        for layer in PER_LAYER {
            let div = if layer.unit == "ms" { 1e6 } else { 1e3 };
            let v = layer.span.map_or(0.0, |s| tr.total_ns(s) / div);
            metrics.insert(layer.name.to_string(), v);
        }
        for (name, v) in &first_counts {
            metrics.insert(name.clone(), *v);
        }
        bench.layer_metrics(&tr, &mut metrics);
        metrics.insert(
            "bench.round_ms_p10".to_string(),
            percentile(&plain_ms, 10.0),
        );
        metrics.insert("bench.round_ms_p50".to_string(), median(&plain_ms));
        metrics.insert(
            "bench.round_ms_p90".to_string(),
            percentile(&plain_ms, 90.0),
        );
        metrics.insert("bench.rounds".to_string(), rounds as f64);
        let overhead = if traced_ms.is_empty() {
            0.0
        } else {
            percentile(&traced_ms, 10.0) / percentile(&plain_ms, 10.0) - 1.0
        };
        metrics.insert("bench.trace_overhead_share".to_string(), overhead);
        debug_assert_eq!(metrics.len(), PER_LAYER.len(), "a metric outside the table");

        let path = opts.out.join(format!("trace-{}.json", opts.workload));
        std::fs::write(&path, format!("{}\n", tr.to_json(&opts.workload)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "round wall under spans: {:.3} ms p10 of {}",
            percentile(&traced_ms, 10.0),
            traced_ms.len()
        );
        println!(
            "bench.round self {:.1} us, bench.setup self {:.1} ms",
            tr.self_ns("bench.round") / 1e3,
            tr.self_ns("bench.setup") / 1e6
        );
    } else {
        let (best_ms, best_cpu_s, best) = best_rounds(&plain);
        let best_items = (best * bench.items()) as f64;
        let values = [
            median(&setup_s),
            best_items / (best_ms / 1e3),
            percentile(&plain_ms, 0.0),
            best_cpu_s * 1e3 / best_items,
            peak_rss_mb(),
        ];
        for (m, v) in END_TO_END.iter().zip(values) {
            metrics.insert(m.name.to_string(), v);
        }
        println!(
            "round_ms: min {:.3}  p10 {:.3}  p50 {:.3}  p90 {:.3}  over {} rounds of {} items",
            percentile(&plain_ms, 0.0),
            percentile(&plain_ms, 10.0),
            median(&plain_ms),
            percentile(&plain_ms, 90.0),
            rounds,
            bench.items()
        );
    }
    Ok(RunResult {
        attempted,
        failed,
        unstable_counts,
        rounds,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_rounds_are_the_fastest_twentieth_but_three_and_a_second() {
        let rounds = [
            (900.0, 0.9),
            (100.0, 0.1),
            (500.0, 0.5),
            (200.0, 0.2),
            (700.0, 0.7),
        ];
        // Three rounds are 800 ms; the fourth makes the second.
        let (ms, cpu, n) = best_rounds(&rounds);
        assert_eq!((ms, n), (1500.0, 4));
        assert!((cpu - 1.5).abs() < 1e-12);
        assert_eq!(best_rounds(&rounds[..1]), (900.0, 0.9, 1));
        let many: Vec<(f64, f64)> = (0..100).rev().map(|i| (1e3 + f64::from(i), 1.0)).collect();
        assert_eq!(best_rounds(&many), (5010.0, 5.0, 5));
    }
}
