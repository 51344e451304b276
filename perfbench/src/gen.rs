//! Workload definitions and seeded input generation.
//!
//! Every input the server sees is generated here from `--seed`: the base
//! rows written to the WAL before the clock starts, the committed stream
//! (already cut into `Mutate` envelopes), and the read-query pool.

use chull_geometry::generators;
use chull_geometry::rng::ChaCha8Rng;

/// Coordinate radius of every generated distribution.
pub const RADIUS: i64 = 1_000_000;
/// Distinct read queries per run; the read phase cycles through them.
pub const QUERY_POOL: usize = 4096;
/// Rows per batch unit in the base WAL.
pub const BASE_UNIT: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dist {
    Disk,
    Ball,
    NearCircle,
}

/// Repetitions per run: each is a fresh cold start over the base WAL,
/// a read phase on the base hull, and a commit phase of its own slice of
/// the stream. Every repetition starts from the same state, so they
/// measure the same thing and the run reports the median over them.
pub const REPS: usize = 5;

/// One workload. Work is fixed per run, not time: the stream and read
/// counts below are for `--seconds 30` and scale linearly with it, so a
/// faster program finishes the same work sooner and every run of one
/// seed serves the same hulls.
pub struct Spec {
    pub name: &'static str,
    pub dim: usize,
    pub dist: Dist,
    pub base_rows: usize,
    /// Mutations per `Mutate` envelope; every envelope is followed by a
    /// `Flush`.
    pub envelope: usize,
    /// `--window` (count window) of the served shard.
    pub window: Option<usize>,
    /// Committed rows at `--seconds 30`, over all repetitions.
    pub stream_rows: usize,
    /// Committed rows are scaled by 9/10 towards the centre: writes that
    /// land inside the hull and leave it unchanged.
    pub stream_inside: bool,
    /// Reads over both connections at `--seconds 30`, over all
    /// repetitions.
    pub reads: usize,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "ingest_3d_ball",
        dim: 3,
        dist: Dist::Ball,
        base_rows: 50_000,
        envelope: 256,
        window: None,
        stream_rows: 128_000,
        stream_inside: false,
        reads: 250_000,
    },
    Spec {
        name: "read_near_circle_2d",
        dim: 2,
        dist: Dist::NearCircle,
        base_rows: 25_000,
        envelope: 64,
        window: None,
        stream_rows: 32_000,
        stream_inside: true,
        reads: 400_000,
    },
    Spec {
        name: "churn_window_2d",
        dim: 2,
        dist: Dist::Disk,
        base_rows: 16_384,
        envelope: 64,
        window: Some(16_384),
        stream_rows: 192_000,
        stream_inside: false,
        reads: 320_000,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// A read request.
#[derive(Clone, Debug)]
pub enum Query {
    Contains(Vec<i64>),
    Visible(Vec<i64>),
    Extreme(Vec<i64>),
}

pub struct Inputs {
    pub base: Vec<Vec<i64>>,
    /// Committed stream, one `Vec` per `Mutate` envelope, cut into
    /// [`REPS`] equal slices.
    pub envelopes: Vec<Vec<Vec<i64>>>,
    /// Read queries on the base hull.
    pub queries: Vec<Query>,
    /// Reads issued per repetition (cycling through `queries`).
    pub reads_per_rep: usize,
}

impl Inputs {
    /// Base rows in the batch units the base WAL holds.
    pub fn base_units(&self) -> impl Iterator<Item = &[Vec<i64>]> {
        self.base.chunks(BASE_UNIT)
    }

    /// The envelopes repetition `rep` commits.
    pub fn slice(&self, rep: usize) -> &[Vec<Vec<i64>>] {
        let per = self.envelopes.len() / REPS;
        &self.envelopes[rep * per..(rep + 1) * per]
    }

    /// Every row the server holds live after repetition `rep`: base plus
    /// the slice, or the newest window of them.
    pub fn final_rows(&self, spec: &Spec, rep: usize) -> Vec<Vec<i64>> {
        let all: Vec<Vec<i64>> = self
            .base
            .iter()
            .chain(self.slice(rep).iter().flatten())
            .cloned()
            .collect();
        match spec.window {
            Some(w) if all.len() > w => all[all.len() - w..].to_vec(),
            _ => all,
        }
    }
}

fn rows(dist: Dist, dim: usize, n: usize, seed: u64) -> Vec<Vec<i64>> {
    match dist {
        Dist::Disk => generators::disk_2d(n, RADIUS, seed)
            .iter()
            .map(|p| p.coords().to_vec())
            .collect(),
        Dist::Ball => generators::ball_3d(n, RADIUS, seed)
            .iter()
            .map(|p| p.coords().to_vec())
            .collect(),
        Dist::NearCircle => {
            let ps = generators::near_sphere_d(dim, n, RADIUS, seed);
            (0..n).map(|i| ps.point(i).to_vec()).collect()
        }
    }
}

pub fn generate(spec: &Spec, seed: u64, seconds: f64) -> Inputs {
    let scale = seconds / 30.0;
    // A whole number of envelopes per repetition.
    let per_rep = (spec.stream_rows as f64 * scale / (REPS * spec.envelope) as f64) as usize;
    let n_stream = per_rep.max(1) * REPS * spec.envelope;
    // One draw for base and stream keeps every row distinct.
    let mut all = rows(spec.dist, spec.dim, spec.base_rows + n_stream, seed);
    let mut stream = all.split_off(spec.base_rows);
    if spec.stream_inside {
        for row in &mut stream {
            for c in row.iter_mut() {
                *c = *c * 9 / 10;
            }
        }
    }
    Inputs {
        queries: queries(spec, &all, seed),
        base: all,
        envelopes: stream.chunks(spec.envelope).map(<[_]>::to_vec).collect(),
        reads_per_rep: (spec.reads as f64 * scale) as usize / REPS,
    }
}

/// The read mix: 50% `Contains` (half well inside, half far outside),
/// 25% `Visible` from just outside an input row, 25% `Extreme`.
fn queries(spec: &Spec, rows: &[Vec<i64>], seed: u64) -> Vec<Query> {
    let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let d = spec.dim;
    let cube = |r: &mut ChaCha8Rng, half: i64| -> Vec<i64> {
        (0..d).map(|_| r.gen_range(-half..=half)).collect()
    };
    (0..QUERY_POOL)
        .map(|i| match i % 4 {
            // Inside: |x| <= R/3 per axis is within 0.58 R of the
            // centre, deep inside every distribution's hull.
            0 => Query::Contains(cube(&mut r, RADIUS / 3)),
            1 => {
                let mut p = cube(&mut r, RADIUS);
                let axis = r.gen_range(0..d);
                p[axis] = if p[axis] < 0 { -4 * RADIUS } else { 4 * RADIUS };
                Query::Contains(p)
            }
            2 => {
                let row = &rows[r.gen_range(0..rows.len())];
                Query::Visible(row.iter().map(|&c| c + c / 4096).collect())
            }
            _ => {
                let mut dir = cube(&mut r, 1000);
                if dir.iter().all(|&c| c == 0) {
                    dir[0] = 1;
                }
                Query::Extreme(dir)
            }
        })
        .collect()
}
