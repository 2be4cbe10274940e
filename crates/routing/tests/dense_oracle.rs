//! Differential oracle for the sparse routing matrix: a dense `|F| × |E|`
//! reference with a `HashMap` ECMP walk, kept here in test code only, must
//! agree bit for bit with [`RoutingMatrix`] on rows, every `entry(k, l)`,
//! `covered_links` and `link_loads`.
//!
//! IGP weights come from `{1, 2, 3}` so equal-cost splits are common; links
//! are directed and sparse, so some pairs are unreachable; every `src ==
//! dst` pair is tracked too.

use nws_routing::{OdPair, RoutingMatrix, Spf};
use nws_topo::{LinkId, LinkKind, NodeId, Topology, TopologyBuilder};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// The dense reference: `entries[k * num_links + l]`.
struct DenseReference {
    num_ods: usize,
    num_links: usize,
    entries: Vec<f64>,
}

/// Even ECMP split by a backwards walk of the shortest-path DAG, with the
/// per-OD node sort and hash-map accumulators of the dense implementation.
fn reference_fractions(topo: &Topology, spf: &Spf, od: OdPair) -> Vec<(LinkId, f64)> {
    if od.src == od.dst || spf.distance(od.dst).is_none() {
        return Vec::new();
    }
    let mut nodes: Vec<NodeId> = topo
        .node_ids()
        .filter(|&v| spf.distance(v).is_some())
        .collect();
    nodes.sort_by(|&a, &b| {
        let (da, db) = (spf.distance(a).unwrap(), spf.distance(b).unwrap());
        db.partial_cmp(&da).expect("finite distances")
    });
    let mut node_share: HashMap<NodeId, f64> = HashMap::new();
    node_share.insert(od.dst, 1.0);
    let mut link_frac: HashMap<LinkId, f64> = HashMap::new();
    for v in nodes {
        let share = match node_share.get(&v) {
            Some(&s) if s > 0.0 => s,
            _ => continue,
        };
        if v == od.src {
            continue;
        }
        let parents = spf.shortest_path_parents(v);
        let per = share / parents.len() as f64;
        for &l in parents {
            *link_frac.entry(l).or_insert(0.0) += per;
            let u = topo.link(l).src();
            *node_share.entry(u).or_insert(0.0) += per;
        }
    }
    let mut out: Vec<(LinkId, f64)> = link_frac.into_iter().collect();
    out.sort_by_key(|&(l, _)| l);
    out
}

impl DenseReference {
    fn build(topo: &Topology, ods: &[OdPair]) -> DenseReference {
        let num_links = topo.num_links();
        let mut spfs: HashMap<NodeId, Spf> = HashMap::new();
        let mut entries = vec![0.0; ods.len() * num_links];
        for (k, &od) in ods.iter().enumerate() {
            let spf = spfs
                .entry(od.src)
                .or_insert_with(|| Spf::compute(topo, od.src));
            for (l, f) in reference_fractions(topo, spf, od) {
                entries[k * num_links + l.index()] = f;
            }
        }
        DenseReference {
            num_ods: ods.len(),
            num_links,
            entries,
        }
    }

    fn entry(&self, k: usize, l: usize) -> f64 {
        self.entries[k * self.num_links + l]
    }

    fn row(&self, k: usize) -> Vec<(LinkId, f64)> {
        (0..self.num_links)
            .filter(|&l| self.entry(k, l) > 0.0)
            .map(|l| (LinkId::from_index(l), self.entry(k, l)))
            .collect()
    }

    fn covered_links(&self) -> Vec<LinkId> {
        (0..self.num_links)
            .filter(|&l| (0..self.num_ods).any(|k| self.entry(k, l) > 0.0))
            .map(LinkId::from_index)
            .collect()
    }

    fn link_loads(&self, demands: &[f64]) -> Vec<f64> {
        let mut loads = vec![0.0; self.num_links];
        for (k, &d) in demands.iter().enumerate() {
            for (l, load) in loads.iter_mut().enumerate() {
                let f = self.entry(k, l);
                if f > 0.0 {
                    *load += f * d;
                }
            }
        }
        loads
    }
}

/// A directed topology on `n` nodes; `edges` are `(from, to, weight)` with
/// self-loops and repeated pairs skipped.
fn topology(n: usize, edges: &[(usize, usize, u8)]) -> Topology {
    let mut b = TopologyBuilder::new();
    let nodes: Vec<NodeId> = (0..n).map(|i| b.node(format!("N{i}"))).collect();
    let mut seen = HashSet::new();
    for &(u, v, w) in edges {
        let (u, v) = (u % n, v % n);
        if u != v && seen.insert((u, v)) {
            b.link(nodes[u], nodes[v], 100.0, f64::from(w), LinkKind::Backbone);
        }
    }
    b.build().expect("valid topology")
}

fn random_instance() -> impl Strategy<Value = (Topology, Vec<f64>)> {
    (2usize..12)
        .prop_flat_map(|n| {
            (
                Just(n),
                prop::collection::vec((0..n, 0..n, 1u8..=3), 0..4 * n),
                prop::collection::vec(1.0f64..1e6, n * n),
            )
        })
        .prop_map(|(n, edges, demands)| (topology(n, &edges), demands))
}

/// Bit equality of two float slices, with the first mismatch in the error.
fn same_bits(what: &str, a: &[f64], b: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "{} length", what);
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{}[{}]: {} vs {}", what, i, x, y);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sparse_matrix_matches_dense_reference((topo, demands) in random_instance()) {
        // Every ordered pair, self-pairs and unreachable pairs included.
        let ods: Vec<OdPair> = topo
            .node_ids()
            .flat_map(|s| topo.node_ids().map(move |d| OdPair::new(s, d)))
            .collect();
        let sparse = RoutingMatrix::build(&topo, &ods);
        let dense = DenseReference::build(&topo, &ods);
        prop_assert_eq!(sparse.num_ods(), dense.num_ods);
        prop_assert_eq!(sparse.num_links(), dense.num_links);

        let mut nnz = 0;
        for k in 0..ods.len() {
            let (got, want) = (sparse.row(k), dense.row(k));
            let links = |r: &[(LinkId, f64)]| r.iter().map(|&(l, _)| l).collect::<Vec<_>>();
            let fracs = |r: &[(LinkId, f64)]| r.iter().map(|&(_, f)| f).collect::<Vec<_>>();
            prop_assert_eq!(links(got), links(&want), "row {} links", k);
            same_bits(&format!("row {k}"), &fracs(got), &fracs(&want))?;
            prop_assert_eq!(sparse.links_of_od(k), links(&want));
            nnz += got.len();
            for l in 0..topo.num_links() {
                let (a, b) = (sparse.entry(k, LinkId::from_index(l)), dense.entry(k, l));
                prop_assert_eq!(a.to_bits(), b.to_bits(), "entry({}, {}): {} vs {}", k, l, a, b);
            }
        }
        prop_assert_eq!(sparse.nnz(), nnz);
        prop_assert_eq!(sparse.covered_links(), dense.covered_links());
        same_bits("link_loads", &sparse.link_loads(&demands), &dense.link_loads(&demands))?;
    }
}
