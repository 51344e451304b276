//! The traced in-process arms: the first repetition's op stream (base
//! WAL, read pool, commit slice) replayed through each layer's public
//! functions, with spans around every call.
//!
//! * shard arm — an in-process `HullService` with the served config and
//!   no socket, driven by `try_mutate` + `flush` on the same envelopes,
//!   plus `HullSnapshot` reads on the same query pool;
//! * pipeline arm — what one shard batch unit does, call by call: wire
//!   encode/decode of the envelope, `LiveSet` insert + window expiry,
//!   `Journal` append/tombstone/mark/sync, `HullBuilder::push_batch`,
//!   the rebuild-from-survivors decision (`seed_from_bulk` + checkpoint),
//!   and the snapshot publish (`OnlineHull` clone + `plane_block` +
//!   `hull_vertices`, which is what the shard's `freeze_live` does). It
//!   runs twice: at the default worker count and at one worker;
//! * journal replay — `HullBuilder::replay_batches` over the base units.

use crate::e2e::Plan;
use crate::gen::{Query, Spec};
use crate::oracle::{self, Expect};
use crate::server::copy_wal;
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use chull_core::online::{HullBuilder, PointLocation};
use chull_core::{LiveSet, WindowPolicy};
use chull_geometry::KernelCounts;
use chull_service::wire::Request;
use chull_service::{wal_path, HullService, Journal, Mutation, ServiceConfig};
use std::time::Instant;

/// Span names of one pipeline run.
struct Names {
    batch: &'static str,
    encode: &'static str,
    decode: &'static str,
    live: &'static str,
    journal: &'static str,
    core: &'static str,
    rebuild: &'static str,
    checkpoint: &'static str,
    publish: &'static str,
}

const DEFAULT_WORKERS: Names = Names {
    batch: "pipeline.batch",
    encode: "wire.encode",
    decode: "wire.decode",
    live: "liveset.expire",
    journal: "journal.append",
    core: "core.apply",
    rebuild: "bulk.rebuild",
    checkpoint: "journal.checkpoint",
    publish: "snapshot.publish",
};

const ONE_WORKER: Names = Names {
    batch: "pipeline_1w.batch",
    encode: "pipeline_1w.wire.encode",
    decode: "pipeline_1w.wire.decode",
    live: "pipeline_1w.liveset.expire",
    journal: "pipeline_1w.journal.append",
    core: "pipeline_1w.core.apply",
    rebuild: "pipeline_1w.bulk.rebuild",
    checkpoint: "pipeline_1w.journal.checkpoint",
    publish: "pipeline_1w.snapshot.publish",
};

#[derive(Default)]
struct PipeOut {
    /// Per batch: liveset + journal + core + rebuild + checkpoint +
    /// publish time (µs), the work a shard does for one unit apart from
    /// the wire.
    work_us: Vec<f64>,
    kernel: KernelCounts,
    inserted: u64,
    mutations: u64,
    envelope_bytes: u64,
    wal_bytes: u64,
    journal_ops: u64,
    live_rows: Vec<Vec<i64>>,
}

fn window(spec: &Spec) -> WindowPolicy {
    spec.window.map_or(WindowPolicy::None, WindowPolicy::Count)
}

fn config(spec: &Spec) -> ServiceConfig {
    ServiceConfig {
        dim: spec.dim,
        shards: 1,
        window: window(spec),
        ..ServiceConfig::default()
    }
}

/// Replay the first repetition's commit slice through the layers one
/// batch unit does.
fn pipeline(
    plan: &Plan,
    base: &HullBuilder,
    workers: usize,
    tr: &mut Tracer,
    n: &Names,
    wal_dir: &std::path::Path,
) -> std::io::Result<PipeOut> {
    let spec = plan.spec;
    let policy = window(spec);
    let cfg = ServiceConfig::default();
    let mut out = PipeOut::default();
    let mut builder = base.clone();
    let mut journal = Journal::with_wal(spec.dim, wal_dir, 0)?;
    let mut live = LiveSet::new();
    for (i, unit) in plan.inputs.base_units().enumerate() {
        for row in unit {
            live.insert(row.clone(), i as u64 + 1);
        }
    }
    let mut epoch = journal.batch_count();
    for env in plan.inputs.slice(0) {
        let b = tr.begin(n.batch, None);
        let req = Request::Mutate {
            shard: 0,
            muts: env.iter().cloned().map(Mutation::Insert).collect(),
        };
        let s = tr.begin(n.encode, Some(b));
        let bytes = std::hint::black_box(req.encode());
        tr.end(s);
        let s = tr.begin(n.decode, Some(b));
        let decoded = Request::decode(&bytes);
        tr.end(s);
        let muts = match decoded {
            Ok(Request::Mutate { muts, .. }) => muts,
            other => panic!("Mutate envelope did not round-trip: {other:?}"),
        };
        out.envelope_bytes += bytes.len() as u64;
        out.mutations += muts.len() as u64;
        let t_work = Instant::now();

        let next = epoch + 1;
        let s = tr.begin(n.live, Some(b));
        let mut inserts = Vec::with_capacity(muts.len());
        for m in muts {
            if let Mutation::Insert(p) = m {
                live.insert(p.clone(), next);
                inserts.push(p);
            }
        }
        let tombstones = live.expire_window(&policy, next);
        tr.end(s);

        let s = tr.begin(n.journal, Some(b));
        for p in &inserts {
            journal.append(p)?;
        }
        for p in &tombstones {
            journal.append_tombstone(p)?;
        }
        journal.mark_batch()?;
        journal.sync()?;
        tr.end(s);
        epoch = next;

        let s = tr.begin(n.core, Some(b));
        let k0 = builder.hull().map(|h| h.kernel).unwrap_or_default();
        builder.push_batch(&inserts, workers);
        tr.end(s);
        let k1 = builder.hull().map(|h| h.kernel).unwrap_or_default();
        out.kernel.tests += k1.tests - k0.tests;
        out.kernel.filter_hits += k1.filter_hits - k0.filter_hits;
        out.kernel.i128_fallbacks += k1.i128_fallbacks - k0.i128_fallbacks;
        out.kernel.bigint_fallbacks += k1.bigint_fallbacks - k0.bigint_fallbacks;
        out.inserted += inserts.len() as u64;

        // The shard's rebuild triggers, in its order: a tombstone that
        // was the last live copy of a row not strictly inside the hull,
        // too many lazy tombstones, or too long a journal.
        let mut scratch = KernelCounts::default();
        let invalidated = tombstones.iter().any(|t| {
            live.count(t) == 0
                && builder
                    .hull()
                    .is_none_or(|h| h.classify(t, &mut scratch) != PointLocation::Inside)
        });
        let (lazy, rows) = (live.dead_entries() as f64, live.live() as f64);
        let too_lazy = lazy > 0.0 && lazy > cfg.rebuild_ratio * rows;
        let too_long =
            cfg.journal_ratio > 0.0 && journal.len() as f64 > cfg.journal_ratio * rows.max(1.0);
        if invalidated || too_lazy || too_long {
            let s = tr.begin(n.rebuild, Some(b));
            let survivors = live.survivors();
            builder = HullBuilder::seed_from_bulk(spec.dim, &survivors, workers).0;
            tr.end(s);
            let s = tr.begin(n.checkpoint, Some(b));
            journal.reset_checkpoint(&survivors)?;
            epoch = journal.batch_count();
            live.compact(epoch);
            tr.end(s);
        }

        let s = tr.begin(n.publish, Some(b));
        if let Some(h) = builder.hull() {
            let frozen = h.clone();
            std::hint::black_box((frozen.plane_block(), frozen.hull_vertices(), frozen));
        }
        tr.end(s);
        out.work_us.push(t_work.elapsed().as_secs_f64() * 1e6);
        tr.end(b);
    }
    out.journal_ops = journal.len() as u64;
    drop(journal);
    out.wal_bytes = std::fs::metadata(wal_path(wal_dir, 0))?.len();
    out.live_rows = live.survivors();
    Ok(out)
}

#[derive(Default)]
struct ShardOut {
    workers: usize,
    commit_secs: f64,
    committed: u64,
    /// Reads that descend the history graph (all but `Extreme`).
    descending: u64,
    read_kernel: KernelCounts,
    failed: u64,
    attempted: u64,
}

/// In-process `HullService`, same config as the served one, no socket.
fn shard_arm(plan: &Plan, tr: &mut Tracer) -> std::io::Result<ShardOut> {
    let dir = copy_wal(plan.base_wal, &plan.work.join("inproc-shard"))?;
    let svc = HullService::new(ServiceConfig {
        wal_dir: Some(dir.clone()),
        ..config(plan.spec)
    })?;
    let mut out = ShardOut {
        workers: svc.workers(),
        ..ShardOut::default()
    };
    snapshot_reads(plan, &svc, tr, &mut out);
    let t_phase = Instant::now();
    for env in plan.inputs.slice(0) {
        out.attempted += 1;
        let c = tr.begin("shard.commit", None);
        let s = tr.begin("shard.try_mutate", Some(c));
        let mut pending: Vec<Mutation> = env.iter().cloned().map(Mutation::Insert).collect();
        while !pending.is_empty() {
            let (accepted, _) = svc
                .try_mutate(0, pending.clone())
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            pending = pending
                .into_iter()
                .zip(accepted)
                .filter(|(_, ok)| !ok)
                .map(|(m, _)| m)
                .collect();
        }
        tr.end(s);
        let s = tr.begin("shard.flush", Some(c));
        let flushed = svc.flush(0);
        tr.end(s);
        tr.end(c);
        match flushed {
            Ok(_) => out.committed += env.len() as u64,
            Err(_) => out.failed += 1,
        }
    }
    out.commit_secs = t_phase.elapsed().as_secs_f64();
    let snap = svc
        .snapshot(0)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let served = oracle::published(&snap, plan.spec.dim);
    if served != plan.final_hulls[0] {
        out.failed += 1;
        eprintln!("perfbench: in-process shard hull differs from offline Algorithm 2");
    }
    svc.shutdown();
    drop(svc);
    std::fs::remove_dir_all(dir)?;
    Ok(out)
}

/// `HullSnapshot` reads on the published snapshot, once through the
/// query pool, checked against the scan oracle.
fn snapshot_reads(plan: &Plan, svc: &HullService, tr: &mut Tracer, out: &mut ShardOut) {
    let snap = svc.snapshot(0).expect("shard 0 exists");
    for (q, want) in plan.inputs.queries.iter().zip(&plan.oracle.expect) {
        out.attempted += 1;
        out.descending += u64::from(!matches!(q, Query::Extreme(_)));
        let mut counts = KernelCounts::default();
        let s = tr.begin("snapshot.read", None);
        let ok = match (q, want) {
            (Query::Contains(p), Expect::Contains(b)) => snap.contains(p, &mut counts) == Some(*b),
            (Query::Visible(p), Expect::Visible(n)) => {
                snap.visible_count(p, &mut counts) == Some(*n)
            }
            (Query::Extreme(d), Expect::Extreme(best)) => snap
                .extreme(d)
                .is_some_and(|(_, c)| plan.oracle.extreme_ok(d, &c, *best)),
            _ => false,
        };
        tr.end(s);
        out.read_kernel.descent_steps += counts.descent_steps;
        out.failed += u64::from(!ok);
    }
}

/// End-to-end figures the derived per-layer metrics subtract from.
pub struct E2eRef {
    pub commit_p50_us: f64,
    pub read_p50_us: f64,
    pub setup_s: f64,
    /// Per repetition: `Stats` replies before and after the commits.
    pub stats: Vec<(String, String)>,
}

pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

fn p50(v: Vec<f64>) -> f64 {
    percentile(&sorted(v), 50.0).unwrap_or(f64::NAN)
}

fn mid(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

/// Growth of a `Stats` counter over the commit phases of all
/// repetitions.
fn stat_delta(e: &E2eRef, key: &str) -> f64 {
    let get = |s: &str| crate::stats::json_number(s, key).unwrap_or(f64::NAN);
    e.stats
        .iter()
        .map(|(before, after)| get(after) - get(before))
        .sum()
}

pub fn run(plan: &Plan, e: &E2eRef, tr: &mut Tracer) -> std::io::Result<Report> {
    let spec = plan.spec;
    let shard = shard_arm(plan, tr)?;
    let workers = shard.workers;

    let s = tr.begin("journal.replay", None);
    let base = HullBuilder::replay_batches(spec.dim, plan.inputs.base_units(), workers);
    tr.end(s);
    let replay_s = tr.duration_us("journal.replay")[0] / 1e6;

    let dir = copy_wal(plan.base_wal, &plan.work.join("inproc-pipeline"))?;
    let pipe = pipeline(plan, &base, workers, tr, &DEFAULT_WORKERS, &dir)?;
    std::fs::remove_dir_all(&dir)?;
    let dir = copy_wal(plan.base_wal, &plan.work.join("inproc-pipeline-1w"))?;
    pipeline(plan, &base, 1, tr, &ONE_WORKER, &dir)?;
    std::fs::remove_dir_all(&dir)?;
    if tr.duration_us("bulk.rebuild").is_empty() {
        // No rebuild fired: time one over the rows live at the end.
        for _ in 0..3 {
            let s = tr.begin("bulk.rebuild", None);
            std::hint::black_box(HullBuilder::seed_from_bulk(
                spec.dim,
                &pipe.live_rows,
                workers,
            ));
            tr.end(s);
        }
    }

    let apply = tr.self_us("core.apply");
    let publish = tr.self_us("snapshot.publish");
    let journal = tr.self_us("journal.append");
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let shard_commit_p50 = p50(tr.duration_us("shard.commit"));
    let snapshot_read_p50 = p50(tr.duration_us("snapshot.read"));
    let k = pipe.kernel;
    let mutations = stat_delta(e, "inserts_enqueued") + stat_delta(e, "deletes_enqueued");
    let metrics = vec![
        (
            "wire.encode_us_per_envelope",
            mid(&tr.self_us("wire.encode")),
            "us",
        ),
        (
            "wire.decode_us_per_envelope",
            mid(&tr.self_us("wire.decode")),
            "us",
        ),
        (
            "wire.bytes_per_mutation",
            pipe.envelope_bytes as f64 / pipe.mutations as f64,
            "B",
        ),
        (
            "event_server.read_hop_us",
            e.read_p50_us - snapshot_read_p50,
            "us",
        ),
        (
            "event_server.commit_hop_us",
            e.commit_p50_us - shard_commit_p50,
            "us",
        ),
        ("shard.commit_p50_us", shard_commit_p50, "us"),
        (
            "shard.applied_per_s",
            shard.committed as f64 / shard.commit_secs,
            "1/s",
        ),
        (
            "shard.wait_us_per_commit",
            shard_commit_p50 - mid(&pipe.work_us),
            "us",
        ),
        (
            "shard.overloaded_ratio",
            stat_delta(e, "overloaded") / (mutations + stat_delta(e, "overloaded")),
            "ratio",
        ),
        (
            "shard.mutations_per_epoch",
            mutations / stat_delta(e, "epoch"),
            "count",
        ),
        ("shard.rebuilds", stat_delta(e, "rebuilds"), "count"),
        ("shard.tombstones", stat_delta(e, "tombstones"), "count"),
        ("core.apply_us_per_batch", mid(&apply), "us"),
        (
            "core.par_speedup",
            sum(&tr.self_us("pipeline_1w.core.apply")) / sum(&apply),
            "ratio",
        ),
        (
            "core.kernel_tests_per_point",
            k.tests as f64 / pipe.inserted as f64,
            "count",
        ),
        (
            "core.filter_hit_ratio",
            k.filter_hits as f64 / k.tests as f64,
            "ratio",
        ),
        (
            "core.exact_fallbacks_per_1k",
            (k.i128_fallbacks + k.bigint_fallbacks) as f64 * 1000.0 / k.tests as f64,
            "count",
        ),
        (
            "core.descent_steps_per_query",
            shard.read_kernel.descent_steps as f64 / shard.descending as f64,
            "count",
        ),
        ("snapshot.publish_us_per_batch", mid(&publish), "us"),
        (
            "snapshot.publish_share",
            sum(&publish) / (sum(&apply) + sum(&publish) + sum(&journal)),
            "ratio",
        ),
        ("snapshot.read_p50_us", snapshot_read_p50, "us"),
        ("journal.append_us_per_batch", mid(&journal), "us"),
        (
            "journal.bytes_per_row",
            pipe.wal_bytes as f64 / pipe.journal_ops as f64,
            "B",
        ),
        (
            "journal.replay_share_of_setup",
            replay_s / e.setup_s,
            "ratio",
        ),
        (
            "liveset.expire_us_per_batch",
            mid(&tr.self_us("liveset.expire")),
            "us",
        ),
        (
            "bulk.rebuild_ms",
            mid(&tr.duration_us("bulk.rebuild")) / 1e3,
            "ms",
        ),
    ];
    Ok(Report {
        metrics,
        attempted: shard.attempted,
        failed: shard.failed,
    })
}
