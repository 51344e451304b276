//! One end-to-end pass against `hull serve` children: [`REPS`]
//! repetitions of cold start, read phase, commit phase, and final-hull
//! check.

use crate::gen::{Inputs, Query, Spec, REPS};
use crate::oracle::{self, Canonical, Expect, ReadOracle};
use crate::server::{copy_wal, Server};
use crate::trace::Tracer;
use chull_service::{wal_path, HullClient, Mutation, MutationBatch};
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

/// Read-load connections (and threads): one per core of the 2-vCPU
/// reference machine.
pub const READERS: usize = 2;
/// Each repetition's read phase runs as this many rounds of equal size.
pub const READ_ROUNDS: usize = 10;

pub struct Plan<'a> {
    pub spec: &'static Spec,
    pub inputs: &'a Inputs,
    pub oracle: &'a ReadOracle,
    /// Algorithm 2's hull of the rows live after each repetition.
    pub final_hulls: &'a [Canonical],
    pub hull_bin: &'a Path,
    pub base_wal: &'a Path,
    /// Scratch directory for this pass's WAL copies.
    pub work: &'a Path,
    /// Extra cold starts timed before the serving one: at least
    /// `min_trials`, and more (up to 20) until they took `budget_s`.
    pub setup_min_trials: usize,
    pub setup_budget_s: f64,
}

impl Plan<'_> {
    /// `hull serve` flags besides the ephemeral `--addr`: defaults except
    /// dimension, one shard, the WAL, and the churn window.
    pub fn flags(&self, wal: &Path) -> Vec<String> {
        let mut f = vec![
            "--dim".to_string(),
            self.spec.dim.to_string(),
            "--shards".to_string(),
            "1".to_string(),
            "--wal".to_string(),
            wal.display().to_string(),
        ];
        if let Some(w) = self.spec.window {
            f.extend(["--window".to_string(), w.to_string()]);
        }
        f
    }
}

/// One timed request: start, end, and rows it committed (0 for reads).
#[derive(Clone, Copy)]
pub struct Call {
    pub t0: Instant,
    pub t1: Instant,
    pub rows: usize,
}

impl Call {
    pub fn us(&self) -> f64 {
        (self.t1 - self.t0).as_secs_f64() * 1e6
    }
}

#[derive(Default)]
pub struct E2e {
    /// Every cold start timed: the extra trials and one per repetition.
    pub setup_s: Vec<f64>,
    /// Commits of each repetition.
    pub commit_reps: Vec<Vec<Call>>,
    /// Reads of both connections, per round, over all repetitions.
    pub read_rounds: Vec<Vec<Call>>,
    /// `Overloaded` rejections the client absorbed while committing.
    pub rejections: u64,
    /// Per repetition: the server's `VmHWM` (MiB) and WAL bytes per
    /// live row at the end.
    pub peak_rss_mb: Vec<f64>,
    pub wal_bytes_per_row: Vec<f64>,
    /// Per repetition: the `Stats` replies bracketing the commit phase.
    pub stats: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub hull_mismatches: u64,
}

fn start(plan: &Plan, name: &str) -> std::io::Result<(Server, std::path::PathBuf)> {
    let dir = copy_wal(plan.base_wal, &plan.work.join(name))?;
    let server = Server::start(plan.hull_bin, &plan.flags(&dir))?;
    Ok((server, dir))
}

/// Run one pass. With a tracer, every client call is also recorded as a
/// span (the traced pass); latencies are the same clock readings.
pub fn run(plan: &Plan, mut tracer: Option<&mut Tracer>) -> std::io::Result<E2e> {
    let mut out = E2e::default();
    while out.setup_s.len() < 20
        && (out.setup_s.len() < plan.setup_min_trials
            || out.setup_s.iter().sum::<f64>() < plan.setup_budget_s)
    {
        let (server, dir) = start(plan, &format!("setup{}", out.setup_s.len()))?;
        out.setup_s.push(server.setup_s);
        server.stop();
        std::fs::remove_dir_all(dir)?;
    }
    for rep in 0..REPS {
        let (server, dir) = start(plan, &format!("rep{rep}"))?;
        out.setup_s.push(server.setup_s);
        let mut client = server.client()?;
        read_phase(plan, &server, &mut out, tracer.as_deref_mut())?;
        let before = client.stats(Some(0))?;
        commit_phase(plan, rep, &mut client, &mut out, tracer.as_deref_mut());
        out.stats.push((before, client.stats(Some(0))?));
        // Before the snapshot reply, whose encoding would raise the peak.
        out.peak_rss_mb
            .push(server.peak_rss_mb().unwrap_or(f64::NAN));
        let snap = client.snapshot(0)?;
        if oracle::served(&snap) != plan.final_hulls[rep] {
            out.hull_mismatches += 1;
            out.failed += 1;
            eprintln!("perfbench: served hull differs from offline Algorithm 2 (repetition {rep})");
        }
        drop(client);
        server.stop();
        let live = plan.inputs.final_rows(plan.spec, rep).len();
        out.wal_bytes_per_row
            .push(std::fs::metadata(wal_path(&dir, 0))?.len() as f64 / live as f64);
        std::fs::remove_dir_all(dir)?;
    }
    Ok(out)
}

/// Closed loop over one connection: each envelope is one `Mutate`
/// followed by a `Flush` barrier, so the next send waits for the commit.
fn commit_phase(
    plan: &Plan,
    rep: usize,
    client: &mut HullClient,
    out: &mut E2e,
    mut tracer: Option<&mut Tracer>,
) {
    let slice = plan.inputs.slice(rep);
    let mut calls = Vec::with_capacity(slice.len());
    let mut last_epoch = 0u64;
    for env in slice {
        let muts: Vec<Mutation> = env.iter().cloned().map(Mutation::Insert).collect();
        out.attempted += 1;
        let t0 = Instant::now();
        let sent = client.mutate(0, MutationBatch::from(muts));
        let t_mut = Instant::now();
        let flushed = client.flush(0);
        let t1 = Instant::now();
        if let Some(tr) = tracer.as_deref_mut() {
            let c = tr.push("client.commit", None, t0, t1);
            tr.push("client.mutate", Some(c), t0, t_mut);
            tr.push("client.flush", Some(c), t_mut, t1);
        }
        let rows = match (sent, flushed) {
            (Ok(r), Ok(epoch)) if epoch > last_epoch => {
                out.rejections += r.rejections;
                last_epoch = epoch;
                env.len()
            }
            other => {
                out.failed += 1;
                eprintln!("perfbench: commit failed: {:?}", other.1);
                0
            }
        };
        calls.push(Call { t0, t1, rows });
    }
    out.commit_reps.push(calls);
}

/// Closed loop on [`READERS`] connections, one thread each, in
/// [`READ_ROUNDS`] rounds that start together; every reply is checked
/// against the scan oracle.
fn read_phase(
    plan: &Plan,
    server: &Server,
    out: &mut E2e,
    tracer: Option<&mut Tracer>,
) -> std::io::Result<()> {
    let queries = &plan.inputs.queries;
    let per_round = plan.inputs.reads_per_rep / (READERS * READ_ROUNDS);
    let barrier = Barrier::new(READERS);
    let results: Vec<std::io::Result<(Vec<Vec<Call>>, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..READERS)
            .map(|r| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut client = server.client();
                    let mut rounds = Vec::with_capacity(READ_ROUNDS);
                    let mut failed = 0u64;
                    for round in 0..READ_ROUNDS {
                        // Every reader waits here, connected or not, so
                        // a failed connect cannot strand the others.
                        barrier.wait();
                        let Ok(client) = client.as_mut() else {
                            continue;
                        };
                        let mut calls = Vec::with_capacity(per_round);
                        for i in 0..per_round {
                            let k = ((round * per_round + i) * READERS + r) % queries.len();
                            let t0 = Instant::now();
                            let ok = ask(client, &queries[k], &plan.oracle.expect[k], plan.oracle);
                            calls.push(Call {
                                t0,
                                t1: Instant::now(),
                                rows: 0,
                            });
                            failed += u64::from(!ok);
                        }
                        rounds.push(calls);
                    }
                    client.map(|_| (rounds, failed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    let mut merged: Vec<Vec<Call>> = vec![Vec::new(); READ_ROUNDS];
    for res in results {
        let (rounds, failed) = res?;
        out.failed += failed;
        for (round, calls) in rounds.into_iter().enumerate() {
            out.attempted += calls.len() as u64;
            merged[round].extend(calls);
        }
    }
    if let Some(tr) = tracer {
        for c in merged.iter().flatten() {
            tr.push("client.read", None, c.t0, c.t1);
        }
    }
    out.read_rounds.extend(merged);
    Ok(())
}

/// Send one read and compare the reply with the oracle's.
fn ask(client: &mut HullClient, q: &Query, want: &Expect, oracle: &ReadOracle) -> bool {
    match (q, want) {
        (Query::Contains(p), Expect::Contains(b)) => {
            matches!(client.contains(0, p), Ok(Some(got)) if got == *b)
        }
        (Query::Visible(p), Expect::Visible(n)) => {
            matches!(client.visible(0, p), Ok(Some(got)) if got == *n)
        }
        (Query::Extreme(d), Expect::Extreme(best)) => match client.extreme(0, d) {
            Ok(Some((_, coords))) => oracle.extreme_ok(d, &coords, *best),
            _ => false,
        },
        _ => false,
    }
}
