//! `fusionbench`: end-to-end and per-layer benchmark of the page-fusion
//! simulator.
//!
//! ```text
//! cargo run --release --manifest-path fusionbench/Cargo.toml -- \
//!     --workload fleet_idle --seed 1 --seconds 40 --trace 0
//! ```
//!
//! A run repeats episodes (every engine of the workload set up from
//! scratch and measured once) until `--seconds` is used, and reports
//! medians. Each episode runs in a fresh child process, so every sample
//! sees a fresh heap layout. With `--trace 0` the run prints the
//! end-to-end metrics; with `--trace 1` it alternates untraced and traced
//! episodes and prints the per-layer split. The last line of standard
//! output is one JSON object; the exit code is non-zero if any
//! correctness check failed.

mod driver;
mod oracle;
mod report;
mod run;
mod spans;
mod workload;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use report::{median, metric, Metric, Summary};
use run::{episode, Mode};
use workload::{Sizes, Workload};

/// Where traced episodes write their spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".bench_out";

/// How one episode process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EpisodeKind {
    /// Untraced, then the sweep and frame audit.
    Gated,
    Untraced,
    Traced,
}

impl EpisodeKind {
    fn name(self) -> &'static str {
        match self {
            EpisodeKind::Gated => "gated",
            EpisodeKind::Untraced => "untraced",
            EpisodeKind::Traced => "traced",
        }
    }

    fn mode(self) -> Mode {
        Mode {
            traced: self == EpisodeKind::Traced,
            gate: self == EpisodeKind::Gated,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in an episode process: run one episode and report it.
    episode: Option<EpisodeKind>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut episode = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            "--episode" => {
                let kinds = [
                    EpisodeKind::Gated,
                    EpisodeKind::Untraced,
                    EpisodeKind::Traced,
                ];
                episode = Some(
                    kinds
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or_else(|| format!("unknown episode kind {value:?}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        episode,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fusionbench: {e}");
            eprintln!(
                "usage: fusionbench --workload <fleet_idle|guest_access|cow_churn> --seed <n> [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(kind) = args.episode {
        print!("{}", run_episode(&args, kind).to_text());
        return ExitCode::SUCCESS;
    }
    let out = execute(&args);
    print!("{}", out.text);
    println!("{}", out.json);
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The body of an episode process.
fn run_episode(args: &Args, kind: EpisodeKind) -> Summary {
    let w = args.workload;
    let oracle = w.oracle(args.seed);
    let ep = episode(w, args.seed, Sizes::FULL, &oracle, kind.mode());
    let mut summary = Summary::of(&ep);
    if kind == EpisodeKind::Traced {
        let csv: String = ep
            .iter()
            .filter_map(|e| e.layers.as_ref().map(|l| l.spans_csv.as_str()))
            .collect();
        let path = format!("{SPAN_DIR}/{}-seed{}.spans.csv", w.name(), args.seed);
        if let Err(e) = std::fs::create_dir_all(SPAN_DIR).and_then(|_| std::fs::write(&path, csv)) {
            summary
                .messages
                .push(format!("spans not written to {path}: {e}"));
        }
    }
    summary
}

/// Runs one episode in a child process and waits for it. A child that
/// crashes or reports garbage counts as one failed check.
fn spawn_episode(args: &Args, kind: EpisodeKind) -> Summary {
    let failed = |why: String| Summary {
        checked: 1,
        failures: 1,
        messages: vec![format!("{} episode process: {why}", kind.name())],
        ..Summary::default()
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return failed(format!("cannot locate own executable: {e}")),
    };
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--episode", kind.name()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    match out {
        Ok(o) if o.status.success() => match std::str::from_utf8(&o.stdout) {
            Ok(text) => Summary::parse(text).unwrap_or_else(failed),
            Err(e) => failed(e.to_string()),
        },
        Ok(o) => failed(format!("exited with {}", o.status)),
        Err(e) => failed(format!("did not start: {e}")),
    }
}

struct Output {
    text: String,
    json: String,
    correct: bool,
}

/// Episodes until the time budget is used (at least `min_rounds`).
fn execute(args: &Args) -> Output {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let min_rounds = if args.trace { 1 } else { 3 };
    let start = Instant::now();
    let mut untraced: Vec<Summary> = Vec::new();
    let mut traced: Vec<Summary> = Vec::new();
    loop {
        let kind = if untraced.is_empty() {
            EpisodeKind::Gated
        } else {
            EpisodeKind::Untraced
        };
        untraced.push(spawn_episode(args, kind));
        if args.trace {
            traced.push(spawn_episode(args, EpisodeKind::Traced));
        }
        let rounds = untraced.len() as u32;
        let elapsed = start.elapsed();
        if untraced.len() >= min_rounds && elapsed + elapsed / rounds > budget {
            break;
        }
    }

    let mut text = String::new();
    let all: Vec<&Summary> = untraced.iter().chain(&traced).collect();
    let mut attempted: u64 = all.iter().map(|s| s.checked).sum();
    let mut failed: u64 = all.iter().map(|s| s.failures).sum();
    for m in all.iter().flat_map(|s| &s.messages) {
        let _ = writeln!(text, "FAIL {m}");
    }
    // Every episode of a seed must simulate exactly the same thing,
    // traced or not.
    for s in &all[1..] {
        attempted += 1;
        if s.signature != all[0].signature {
            failed += 1;
            let _ = writeln!(
                text,
                "FAIL simulated outputs differ between episodes of one seed"
            );
        }
    }

    let _ = writeln!(
        text,
        "fusionbench {} seed={} engines={} episodes={} traced_episodes={} elapsed={:.1}s",
        w.name(),
        args.seed,
        w.engines()
            .iter()
            .map(|k| k.slug())
            .collect::<Vec<_>>()
            .join(","),
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    let _ = writeln!(
        text,
        "  fail_ratio {} ({failed} failed of {attempted} checked)",
        failed as f64 / attempted.max(1) as f64
    );
    let ms_of = |f: fn(&Summary) -> u64| -> Vec<u64> {
        untraced.iter().map(|s| f(s) / 1_000_000).collect()
    };
    let _ = writeln!(text, "  episode wall ms  {:?}", ms_of(|s| s.wall_ns));
    let _ = writeln!(text, "  episode setup ms {:?}", ms_of(|s| s.setup_ns));
    let metrics = if args.trace {
        let _ = writeln!(
            text,
            "  spans of the last traced episode: {SPAN_DIR}/{}-seed{}.spans.csv",
            w.name(),
            args.seed
        );
        layer_means(&traced, &untraced)
    } else {
        end_to_end(&untraced)
    };
    let mut json = String::from("{\"correct\":");
    let _ = write!(
        json,
        "{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = writeln!(
            text,
            "  {:<36} {:>20} {:<8} {}",
            m.name,
            fmt(m.value),
            m.unit,
            m.note
        );
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            fmt(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    Output {
        text,
        json,
        correct: failed == 0,
    }
}

/// A number as JSON accepts it, with all its digits.
fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The end-to-end metrics: host times are medians over episodes; the
/// simulated ones are equal in every episode (checked by signature).
fn end_to_end(eps: &[Summary]) -> Vec<Metric> {
    let first = &eps[0];
    let med = |f: fn(&Summary) -> f64| median(eps.iter().map(f).collect());
    let n = eps.len();
    let samples = format!("simulated, n={} driver accesses", first.samples);
    let mut out = vec![
        metric("wall_s", med(|s| s.wall_ns as f64 / 1e9), "s"),
        metric("setup_s", med(|s| s.setup_ns as f64 / 1e9), "s"),
        metric(
            "sim_ops_per_host_s",
            med(|s| s.sim_ops as f64 / (s.wall_ns as f64 / 1e9)),
            "ops/s",
        ),
        metric(
            "peak_rss_mib",
            eps.iter().map(|s| s.rss_mib).fold(0.0, f64::max),
            "MiB",
        ),
        metric("sim_access_p50_ns", first.p50, "sim_ns"),
        metric("sim_access_p99_ns", first.p99, "sim_ns"),
        metric(
            "saved_mib",
            first.saved_pages as f64 * 4096.0 / (1024.0 * 1024.0),
            "sim_MiB",
        ),
    ];
    out[0].note = format!("host, median of {n} episodes");
    out[1].note = format!("host, median of {n} episodes");
    out[2].note = format!("{} simulated ops per episode", first.sim_ops);
    out[3].note = "host, largest VmHWM of the episode processes".into();
    out[4].note = samples.clone();
    out[5].note = samples;
    out[6].note = "simulated, pages_saved x 4 KiB".into();
    out
}

/// The per-layer metrics: the mean over traced episodes of each, plus the
/// tracing overhead against the untraced episodes of the same run.
fn layer_means(traced: &[Summary], untraced: &[Summary]) -> Vec<Metric> {
    let mut out: Vec<Metric> = traced[0].layers.clone();
    for m in &mut out {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|s| s.layers.iter().find(|l| l.name == m.name))
            .map(|l| l.value)
            .collect();
        m.value = values.iter().sum::<f64>() / values.len().max(1) as f64;
    }
    let wall = |eps: &[Summary]| median(eps.iter().map(|s| s.wall_ns as f64).collect());
    let (t, u) = (wall(traced), wall(untraced));
    let overhead = if u > 0.0 { (t / u - 1.0) * 100.0 } else { 0.0 };
    out.push(metric("trace.overhead_pct", overhead, "%"));
    out
}
