//! Correctness oracles: offline Algorithm 2 for the served hull, and
//! in-process linear scans for every read reply.

use crate::gen::Query;
use chull_core::online::HullBuilder;
use chull_core::seq::incremental_hull_run;
use chull_geometry::{KernelCounts, PointSet};
use chull_service::{HullSnapshot, SnapshotReply};
use std::collections::BTreeSet;

/// A hull as an order-free set of facets, each the sorted list of its
/// vertices' coordinates: vertex ids differ between runs, coordinates
/// cannot.
pub type Canonical = BTreeSet<Vec<Vec<i64>>>;

fn canonical(facets: impl Iterator<Item = Vec<Vec<i64>>>) -> Canonical {
    facets
        .map(|mut f| {
            f.sort();
            f
        })
        .collect()
}

/// Offline sequential Algorithm 2 (`incremental_hull_run`) on `rows`.
pub fn offline(dim: usize, rows: &[Vec<i64>]) -> Canonical {
    let pts = PointSet::from_rows(dim, rows);
    let run = incremental_hull_run(&pts);
    canonical(run.output.facets.iter().map(|f| {
        f[..dim]
            .iter()
            .map(|&v| pts.point(v as usize).to_vec())
            .collect()
    }))
}

/// The hull of an in-process snapshot.
pub fn published(snap: &HullSnapshot, dim: usize) -> Canonical {
    let flat = snap.flat_points();
    canonical(snap.output().facets.iter().map(|f| {
        f[..dim]
            .iter()
            .map(|&i| flat[i as usize * dim..(i as usize + 1) * dim].to_vec())
            .collect()
    }))
}

/// The hull of a `Snapshot` reply.
pub fn served(snap: &SnapshotReply) -> Canonical {
    canonical(
        snap.facets
            .iter()
            .map(|f| f.iter().map(|&v| snap.points[v as usize].clone()).collect()),
    )
}

/// The reply each read must get.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    Contains(bool),
    Visible(u32),
    /// Largest dot product with the direction over all rows.
    Extreme(i128),
}

pub fn dot(a: &[i64], b: &[i64]) -> i128 {
    a.iter().zip(b).map(|(&x, &y)| x as i128 * y as i128).sum()
}

/// Expected replies for `queries` against the hull of `rows`:
/// `contains_scan` and `visible_facets_scan` walk every alive facet, and
/// the extreme value is a brute-force maximum over the hull's vertices
/// (a linear function over a point set peaks at a hull vertex), taken
/// from Algorithm 2's canonical hull `hull`.
pub struct ReadOracle {
    pub expect: Vec<Expect>,
    vertices: BTreeSet<Vec<i64>>,
}

impl ReadOracle {
    pub fn new(dim: usize, rows: &[Vec<i64>], hull: &Canonical, queries: &[Query]) -> ReadOracle {
        // The bulk build is canonically identical to Algorithm 2 and much
        // faster to construct; the scans then walk every alive facet.
        let builder = HullBuilder::seed_from_bulk(dim, rows, 0).0;
        let h = builder.hull().expect("read rows are full-rank");
        let vertices: BTreeSet<Vec<i64>> = hull.iter().flatten().cloned().collect();
        let mut counts = KernelCounts::default();
        let expect = queries
            .iter()
            .map(|q| match q {
                Query::Contains(p) => Expect::Contains(h.contains_scan(p, &mut counts)),
                Query::Visible(p) => {
                    Expect::Visible(h.visible_facets_scan(p, &mut counts).len() as u32)
                }
                Query::Extreme(d) => Expect::Extreme(
                    vertices
                        .iter()
                        .map(|v| dot(v, d))
                        .max()
                        .expect("hull has vertices"),
                ),
            })
            .collect();
        ReadOracle { expect, vertices }
    }

    /// Whether an `Extreme` reply names a hull vertex attaining `best`.
    pub fn extreme_ok(&self, dir: &[i64], coords: &[i64], best: i128) -> bool {
        self.vertices.contains(coords) && dot(coords, dir) == best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_answers_a_square() {
        let rows: Vec<Vec<i64>> = vec![
            vec![0, 0],
            vec![10, 0],
            vec![0, 10],
            vec![10, 10],
            vec![5, 5],
        ];
        let hull = offline(2, &rows);
        assert_eq!(hull.len(), 4);
        let qs = vec![
            Query::Contains(vec![3, 3]),
            Query::Contains(vec![30, 3]),
            Query::Visible(vec![20, 5]),
            Query::Extreme(vec![1, 2]),
        ];
        let o = ReadOracle::new(2, &rows, &hull, &qs);
        assert_eq!(
            o.expect,
            vec![
                Expect::Contains(true),
                Expect::Contains(false),
                Expect::Visible(1),
                Expect::Extreme(30),
            ]
        );
        assert!(o.extreme_ok(&[1, 2], &[10, 10], 30));
        assert!(!o.extreme_ok(&[1, 2], &[5, 5], 15));
    }
}
