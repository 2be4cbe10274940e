//! Per-source SPF cache with path extraction and ECMP splitting.

use crate::{OdPair, Path, Spf};
use nws_topo::{LinkId, NodeId, Topology};
use std::cell::RefCell;
use std::rc::Rc;

/// A network-wide routing view: lazily computes and caches one [`Spf`] per
/// source node, and answers path / ECMP-split queries for OD pairs.
///
/// The `Router` borrows the topology; recompute-after-failure scenarios
/// build a new topology (see [`crate::failure`]) and a new `Router` over it,
/// mirroring how a real control plane reconverges.
pub struct Router<'t> {
    topo: &'t Topology,
    /// One slot per node, filled on first use as a source.
    cache: RefCell<Vec<Option<Rc<Spf>>>>,
}

impl<'t> Router<'t> {
    /// Creates a router over `topo` with an empty SPF cache.
    pub fn new(topo: &'t Topology) -> Self {
        Router {
            topo,
            cache: RefCell::new(vec![None; topo.num_nodes()]),
        }
    }

    /// The topology this router routes over.
    pub fn topology(&self) -> &'t Topology {
        self.topo
    }

    /// The (cached) SPF DAG from `source`.
    pub fn spf(&self, source: NodeId) -> Rc<Spf> {
        Rc::clone(
            self.cache.borrow_mut()[source.index()]
                .get_or_insert_with(|| Rc::new(Spf::compute(self.topo, source))),
        )
    }

    /// The deterministic (lowest-link-id tie-break) shortest path for `od`;
    /// `None` if the destination is unreachable.
    pub fn path(&self, od: OdPair) -> Option<Path> {
        let spf = self.spf(od.src);
        let links = spf.path_to(self.topo, od.dst)?;
        let cost = spf.distance(od.dst)?;
        Some(Path::new(links, cost))
    }

    /// True if `od` has a single shortest path (no ECMP).
    pub fn unique_path(&self, od: OdPair) -> bool {
        self.spf(od.src).unique_path_to(self.topo, od.dst)
    }

    /// The fraction of `od`'s traffic carried by each link under even ECMP
    /// splitting (OSPF/IS-IS style: at each node, split evenly across
    /// equal-cost next hops). Returns `(link, fraction)` pairs with
    /// fractions in `(0, 1]`, in link-id order; unique paths yield all-1
    /// fractions.
    ///
    /// Returns an empty vector if the destination is unreachable or
    /// `od.src == od.dst`.
    pub fn ecmp_fractions(&self, od: OdPair) -> Vec<(LinkId, f64)> {
        let mut out = Vec::new();
        self.append_ecmp_fractions(od, &mut Vec::new(), &mut out);
        out
    }

    /// Appends [`Router::ecmp_fractions`]`(od)` to `out`. `node_share` is
    /// scratch, so building many rows reuses one buffer.
    pub(crate) fn append_ecmp_fractions(
        &self,
        od: OdPair,
        node_share: &mut Vec<f64>,
        out: &mut Vec<(LinkId, f64)>,
    ) {
        let spf = self.spf(od.src);
        let Some(dst_distance) = spf.distance(od.dst).filter(|_| od.src != od.dst) else {
            return;
        };
        // Walk the shortest-path DAG backwards from the destination,
        // distributing the destination's unit of traffic across incoming
        // shortest-path links. `node_share[v]` is the fraction of traffic
        // that flows *through* node v; it splits evenly over v's parents.
        //
        // Processing order: decreasing distance from the source guarantees a
        // node is finalized before its parents receive its share. A link
        // enters the DAG only as a parent of its own head node, which is
        // visited once, so every link is pushed at most once and needs no
        // accumulator of its own. Nodes farther than the destination come
        // before it and carry none of its traffic, so the walk starts at
        // the destination's distance.
        node_share.clear();
        node_share.resize(self.topo.num_nodes(), 0.0);
        node_share[od.dst.index()] = 1.0;
        let order = spf.by_decreasing_distance();
        let first = order.partition_point(|&v| spf.distance(v) > Some(dst_distance));
        let start = out.len();
        for &v in &order[first..] {
            let share = node_share[v.index()];
            if share <= 0.0 || v == od.src {
                continue;
            }
            let parents = spf.shortest_path_parents(v);
            debug_assert!(!parents.is_empty(), "reachable non-source node has parents");
            let per = share / parents.len() as f64;
            for &l in parents {
                out.push((l, per));
                node_share[self.topo.link(l).src().index()] += per;
            }
        }
        out[start..].sort_unstable_by_key(|&(l, _)| l);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_topo::{geant, LinkKind, TopologyBuilder};

    #[test]
    fn path_and_cache() {
        let t = geant();
        let r = Router::new(&t);
        let uk = t.require_node("UK").unwrap();
        let lu = t.require_node("LU").unwrap();
        let p = r.path(OdPair::new(uk, lu)).unwrap();
        assert_eq!(p.cost(), 25.0);
        assert_eq!(p.describe(&t), "UK -> FR -> LU");
        // Second query hits the cache; result identical.
        let p2 = r.path(OdPair::new(uk, lu)).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn unique_path_fractions_are_one() {
        let t = geant();
        let r = Router::new(&t);
        let uk = t.require_node("UK").unwrap();
        let il = t.require_node("IL").unwrap();
        let od = OdPair::new(uk, il);
        assert!(r.unique_path(od));
        let fr = r.ecmp_fractions(od);
        let p = r.path(od).unwrap();
        assert_eq!(fr.len(), p.len());
        for (l, f) in fr {
            assert!(p.traverses(l));
            assert!((f - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ecmp_splits_evenly() {
        // Equal-cost diamond: each arm carries 1/2.
        let mut b = TopologyBuilder::new();
        let a = b.node("A");
        let x = b.node("X");
        let y = b.node("Y");
        let d = b.node("D");
        b.link(a, x, 100.0, 1.0, LinkKind::Backbone);
        b.link(x, d, 100.0, 1.0, LinkKind::Backbone);
        b.link(a, y, 100.0, 1.0, LinkKind::Backbone);
        b.link(y, d, 100.0, 1.0, LinkKind::Backbone);
        let t = b.build().unwrap();
        let r = Router::new(&t);
        let fr = r.ecmp_fractions(OdPair::new(a, d));
        assert_eq!(fr.len(), 4);
        for (_, f) in fr {
            assert!((f - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn ecmp_conserves_flow() {
        // Three-level graph with mixed ECMP: total out of source == 1 and
        // total into destination == 1.
        let mut b = TopologyBuilder::new();
        let s = b.node("S");
        let m1 = b.node("M1");
        let m2 = b.node("M2");
        let m3 = b.node("M3");
        let d = b.node("D");
        b.link(s, m1, 100.0, 1.0, LinkKind::Backbone);
        b.link(s, m2, 100.0, 1.0, LinkKind::Backbone);
        b.link(s, m3, 100.0, 1.0, LinkKind::Backbone);
        b.link(m1, d, 100.0, 2.0, LinkKind::Backbone);
        b.link(m2, d, 100.0, 2.0, LinkKind::Backbone);
        b.link(m3, d, 100.0, 2.0, LinkKind::Backbone);
        let t = b.build().unwrap();
        let r = Router::new(&t);
        let fr = r.ecmp_fractions(OdPair::new(s, d));
        let out_of_s: f64 = fr
            .iter()
            .filter(|(l, _)| t.link(*l).src() == s)
            .map(|&(_, f)| f)
            .sum();
        let into_d: f64 = fr
            .iter()
            .filter(|(l, _)| t.link(*l).dst() == d)
            .map(|&(_, f)| f)
            .sum();
        assert!((out_of_s - 1.0).abs() < 1e-12);
        assert!((into_d - 1.0).abs() < 1e-12);
        for (_, f) in fr {
            assert!((f - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn self_od_and_unreachable() {
        let t = geant();
        let r = Router::new(&t);
        let uk = t.require_node("UK").unwrap();
        assert!(r.ecmp_fractions(OdPair::new(uk, uk)).is_empty());
        let p = r.path(OdPair::new(uk, uk)).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn geant_all_pairs_reachable() {
        let t = geant();
        let r = Router::new(&t);
        for s in t.node_ids() {
            for d in t.node_ids() {
                assert!(
                    r.path(OdPair::new(s, d)).is_some(),
                    "{} -> {} unreachable",
                    t.node(s).name(),
                    t.node(d).name()
                );
            }
        }
    }
}
