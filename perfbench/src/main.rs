//! perfbench — the benchmark of record for the served hull.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 --hull BIN --out DIR`
//!
//! Starts a fresh `hull serve` child per pass over a base WAL written
//! before any clock starts, drives the workload in a closed loop, checks
//! every reply and the final hull, and prints one JSON result line last
//! on stdout. `--trace 1` also runs a traced pass and the in-process
//! per-layer arms and reports per-layer metrics instead. See README.md.

mod e2e;
mod gen;
mod layers;
mod oracle;
mod server;
mod stats;
mod trace;

use stats::{median, percentile, sorted};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Cold starts timed per untraced pass besides one per repetition: at
/// least this many, and more until they took [`SETUP_BUDGET_S`].
const SETUP_TRIALS: usize = 2;
const SETUP_BUDGET_S: f64 = 1.0;

const FLUSH_POLICY: &str = "the WAL is flushed to the OS once per batch unit \
    (Journal::sync is a BufWriter flush) and never fsynced";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    hull: PathBuf,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut hull, mut out) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--hull" => hull = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace: trace.ok_or("--trace is required")?,
        hull: hull.ok_or("--hull is required")?,
        out: out.ok_or("--out is required")?,
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

type Metric = (&'static str, f64, &'static str);

fn pct(samples: &[f64], p: f64, what: &str) -> Result<f64, String> {
    percentile(samples, p).ok_or(format!(
        "{} {what} samples are too few for a p{p} with ten beyond it",
        samples.len()
    ))
}

/// Latencies (µs) of calls, sorted ascending.
fn latencies<'a>(calls: impl IntoIterator<Item = &'a e2e::Call>) -> Vec<f64> {
    sorted(calls.into_iter().map(e2e::Call::us).collect())
}

/// The median of a per-round figure over rounds (or repetitions) that
/// measured the same work. The machine's speed drifts over seconds, so a
/// round is the unit of measurement and the median damps the drift.
fn round_median(
    rounds: &[Vec<e2e::Call>],
    f: impl Fn(&[e2e::Call]) -> Result<f64, String>,
) -> Result<f64, String> {
    let v = rounds
        .iter()
        .map(|r| f(r))
        .collect::<Result<Vec<f64>, String>>()?;
    median(&v).ok_or("no rounds measured".into())
}

/// Calls (or committed rows) per second of a round's wall time.
fn rate(calls: &[e2e::Call], count: impl Fn(&e2e::Call) -> usize) -> Result<f64, String> {
    let t0 = calls.iter().map(|c| c.t0).min().ok_or("empty round")?;
    let t1 = calls.iter().map(|c| c.t1).max().ok_or("empty round")?;
    Ok(calls.iter().map(count).sum::<usize>() as f64 / (t1 - t0).as_secs_f64())
}

fn e2e_metrics(run: &e2e::E2e) -> Result<Vec<Metric>, String> {
    let (commits, reads) = (&run.commit_reps, &run.read_rounds);
    let lat = |what: &'static str, p: f64| move |r: &[e2e::Call]| pct(&latencies(r), p, what);
    Ok(vec![
        (
            "applied_per_s",
            round_median(commits, |r| rate(r, |c| c.rows))?,
            "1/s",
        ),
        (
            "commit_p50_us",
            round_median(commits, lat("commit", 50.0))?,
            "us",
        ),
        (
            "commit_p90_us",
            round_median(commits, lat("commit", 90.0))?,
            "us",
        ),
        (
            "reads_per_s",
            round_median(reads, |r| rate(r, |_| 1))?,
            "1/s",
        ),
        ("read_p50_us", round_median(reads, lat("read", 50.0))?, "us"),
        ("read_p99_us", round_median(reads, lat("read", 99.0))?, "us"),
        (
            "setup_s",
            median(&run.setup_s).ok_or("no cold start timed")?,
            "s",
        ),
        (
            "peak_rss_mb",
            median(&run.peak_rss_mb).ok_or("no repetition")?,
            "MiB",
        ),
        (
            "wal_bytes_per_live_row",
            median(&run.wal_bytes_per_row).ok_or("no repetition")?,
            "B",
        ),
    ])
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn metrics_json(metrics: &[Metric]) -> Result<String, String> {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("string write");
    }
    s.push('}');
    Ok(s)
}

fn run(args: &Args) -> Result<String, String> {
    let spec = gen::spec(&args.workload).ok_or(format!(
        "unknown workload {} (have: {})",
        args.workload,
        gen::SPECS
            .iter()
            .map(|s| s.name)
            .collect::<Vec<_>>()
            .join(", ")
    ))?;
    if !args.hull.is_file() {
        return Err(format!("no hull binary at {}", args.hull.display()));
    }
    let io = |e: std::io::Error| e.to_string();
    std::fs::create_dir_all(&args.out).map_err(io)?;
    let work = WorkDir(args.out.join(format!(
        "work-{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&work.0);

    // Inputs, oracles, and the base WAL: all before any clock starts.
    let inputs = gen::generate(spec, args.seed, args.seconds);
    let final_hulls: Vec<oracle::Canonical> = (0..gen::REPS)
        .map(|rep| oracle::offline(spec.dim, &inputs.final_rows(spec, rep)))
        .collect();
    let base_hull = oracle::offline(spec.dim, &inputs.base);
    let read_oracle = oracle::ReadOracle::new(spec.dim, &inputs.base, &base_hull, &inputs.queries);
    let base_wal = work.0.join("base");
    server::write_base_wal(spec.dim, &base_wal, inputs.base_units()).map_err(io)?;

    let mut plan = e2e::Plan {
        spec,
        inputs: &inputs,
        oracle: &read_oracle,
        final_hulls: &final_hulls,
        hull_bin: &args.hull,
        base_wal: &base_wal,
        work: &work.0,
        setup_min_trials: SETUP_TRIALS,
        setup_budget_s: SETUP_BUDGET_S,
    };
    let untraced = e2e::run(&plan, None).map_err(io)?;
    let e2e = e2e_metrics(&untraced)?;
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let metrics = if args.trace {
        let mut tracer = trace::Tracer::new(spec.name);
        plan.setup_min_trials = 0;
        plan.setup_budget_s = 0.0;
        let traced = e2e::run(&plan, Some(&mut tracer)).map_err(io)?;
        attempted += traced.attempted;
        failed += traced.failed;
        let traced_metrics = e2e_metrics(&traced)?;
        let get =
            |m: &[Metric], name: &str| m.iter().find(|x| x.0 == name).map_or(f64::NAN, |x| x.1);
        let reference = layers::E2eRef {
            commit_p50_us: get(&e2e, "commit_p50_us"),
            read_p50_us: get(&e2e, "read_p50_us"),
            setup_s: get(&e2e, "setup_s"),
            stats: untraced.stats.clone(),
        };
        let report = layers::run(&plan, &reference, &mut tracer).map_err(io)?;
        attempted += report.attempted;
        failed += report.failed;
        let mut m = report.metrics;
        for (label, name) in [
            ("trace.commit_overhead_us", "commit_p50_us"),
            ("trace.read_overhead_us", "read_p50_us"),
        ] {
            m.push((label, get(&traced_metrics, name) - get(&e2e, name), "us"));
        }
        let spans = args
            .out
            .join(format!("spans-{}-seed{}.jsonl", spec.name, args.seed));
        tracer.write_jsonl(&spans).map_err(io)?;
        eprintln!(
            "perfbench: {} spans written to {}",
            tracer.spans.len(),
            spans.display()
        );
        m
    } else {
        e2e.clone()
    };

    let correct = failed == 0;
    write_provenance(args, &plan, &untraced, &e2e, attempted, failed)?;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)?
    ))
}

/// The latency distribution at the percentiles its sample count
/// supports (`null` where fewer than ten samples lie beyond).
fn percentiles_json(v: &[f64]) -> String {
    let cells: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0]
        .iter()
        .map(|&p| {
            let at = percentile(v, p).map_or("null".to_string(), |x| format!("{x:.1}"));
            format!("\"p{p}\": {at}")
        })
        .collect();
    format!("{{{}}}", cells.join(", "))
}

/// Each round's median latency (µs, rounded), in run order.
fn round_p50s(rounds: &[Vec<e2e::Call>]) -> Vec<f64> {
    rounds
        .iter()
        .map(|r| percentile(&latencies(r), 50.0).map_or(f64::NAN, f64::round))
        .collect()
}

fn write_provenance(
    args: &Args,
    plan: &e2e::Plan,
    run: &e2e::E2e,
    e2e: &[Metric],
    attempted: u64,
    failed: u64,
) -> Result<(), String> {
    let (spec, inputs) = (plan.spec, plan.inputs);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let flags = plan.flags(Path::new("WAL_DIR"));
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"git_sha\": {}, \"build_profile\": {}, \
         \"server_flags\": {}, \"flush_policy\": {}, \
         \"repetitions\": {}, \"base_rows\": {}, \"stream_rows\": {}, \"envelope\": {}, \"reads\": {}, \
         \"read_connections\": {}, \"samples\": {{\"commit\": {}, \"read\": {}, \"setup\": {}}}, \
         \"client_overloaded_retries\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"hulls_differing_from_algorithm_2\": {}, \"commit_us_percentiles\": {}, \
         \"read_us_percentiles\": {}, \"commit_p50_us_per_repetition\": {:?}, \
         \"read_p50_us_per_round\": {:?}, \"e2e\": {}}}",
        json_str(spec.name),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&git_sha()),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(&format!("hull serve --addr 127.0.0.1:0 {}", flags.join(" "))),
        json_str(FLUSH_POLICY),
        gen::REPS,
        inputs.base.len(),
        inputs.envelopes.iter().map(Vec::len).sum::<usize>(),
        spec.envelope,
        inputs.reads_per_rep * gen::REPS,
        e2e::READERS,
        run.commit_reps.iter().map(Vec::len).sum::<usize>(),
        run.read_rounds.iter().map(Vec::len).sum::<usize>(),
        run.setup_s.len(),
        run.rejections,
        run.hull_mismatches,
        percentiles_json(&latencies(run.commit_reps.iter().flatten())),
        percentiles_json(&latencies(run.read_rounds.iter().flatten())),
        round_p50s(&run.commit_reps),
        round_p50s(&run.read_rounds),
        metrics_json(e2e)?,
    );
    let path = args.out.join(format!(
        "provenance-{}-seed{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, format!("{record}\n")).map_err(|e| e.to_string())?;
    eprintln!("perfbench: provenance {record}");
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
