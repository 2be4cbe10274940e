//! Single-source shortest-path-first computation (Dijkstra) over IGP weights.

use nws_topo::{LinkId, NodeId, Topology};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Min-heap entry; `BinaryHeap` is a max-heap so ordering is reversed.
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap; distances are finite non-NaN by construction.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Relative tolerance when deciding that two path costs are "equal" for ECMP
/// purposes. IGP metrics are small integers in practice, so exact comparison
/// would usually do; the tolerance guards against accumulated float error on
/// long paths with fractional weights.
const ECMP_TOL: f64 = 1e-9;

/// The shortest-path-first tree (more precisely, DAG) from one source node.
///
/// Retains, for every destination, the distance and *all* incoming links
/// that lie on some shortest path — the information an IS-IS router holds
/// after SPF, sufficient for unique-path extraction and ECMP splitting.
#[derive(Debug, Clone)]
pub struct Spf {
    source: NodeId,
    dist: Vec<f64>,
    /// For each node, incoming links on shortest paths, sorted by link id for
    /// deterministic tie-breaks.
    parents: Vec<Vec<LinkId>>,
    /// Reachable nodes by decreasing distance (ties in node-id order): the
    /// order in which an ECMP walk finalizes a node before its parents.
    by_decreasing_distance: Vec<NodeId>,
}

impl Spf {
    /// Runs Dijkstra from `source` over the topology's IGP weights.
    pub fn compute(topo: &Topology, source: NodeId) -> Spf {
        let n = topo.num_nodes();
        let mut dist = vec![f64::INFINITY; n];
        let mut parents: Vec<Vec<LinkId>> = vec![Vec::new(); n];
        let mut settled = vec![false; n];
        let mut heap = BinaryHeap::new();

        dist[source.index()] = 0.0;
        heap.push(HeapEntry {
            dist: 0.0,
            node: source.index(),
        });

        while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
            if settled[u] {
                continue;
            }
            settled[u] = true;
            let node = NodeId::from_index(u);
            for l in topo.out_links(node) {
                let link = topo.link(l);
                let v = link.dst().index();
                let nd = d + link.igp_weight();
                if nd < dist[v] - ECMP_TOL {
                    dist[v] = nd;
                    parents[v].clear();
                    parents[v].push(l);
                    heap.push(HeapEntry { dist: nd, node: v });
                } else if (nd - dist[v]).abs() <= ECMP_TOL {
                    // Equal-cost alternative; record it for the ECMP DAG.
                    if !parents[v].contains(&l) {
                        parents[v].push(l);
                    }
                }
            }
        }
        for p in &mut parents {
            p.sort();
        }
        let mut by_decreasing_distance: Vec<NodeId> = topo
            .node_ids()
            .filter(|v| dist[v.index()].is_finite())
            .collect();
        // Stable: equal distances keep node-id order.
        by_decreasing_distance.sort_by(|a, b| {
            dist[b.index()]
                .partial_cmp(&dist[a.index()])
                .expect("finite distances")
        });
        Spf {
            source,
            dist,
            parents,
            by_decreasing_distance,
        }
    }

    /// The source node this SPF was computed from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance from the source to `node`; `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        let d = self.dist[node.index()];
        d.is_finite().then_some(d)
    }

    /// All incoming links of `node` that lie on a shortest path from the
    /// source (empty for the source itself and for unreachable nodes).
    pub fn shortest_path_parents(&self, node: NodeId) -> &[LinkId] {
        &self.parents[node.index()]
    }

    /// The reachable nodes (the source included) by decreasing distance,
    /// equal distances in node-id order. Walking the shortest-path DAG in
    /// this order visits every node before any of its shortest-path parents
    /// (when IGP weights are positive).
    pub(crate) fn by_decreasing_distance(&self) -> &[NodeId] {
        &self.by_decreasing_distance
    }

    /// True if the shortest path from the source to `node` is unique
    /// (no equal-cost alternatives anywhere along the way).
    pub fn unique_path_to(&self, topo: &Topology, node: NodeId) -> bool {
        if self.distance(node).is_none() {
            return false;
        }
        let mut cur = node;
        while cur != self.source {
            let ps = self.shortest_path_parents(cur);
            if ps.len() != 1 {
                return false;
            }
            cur = topo.link(ps[0]).src();
        }
        true
    }

    /// Extracts the lowest-link-id shortest path from the source to `node`.
    /// Returns the link sequence source→node; `None` if unreachable.
    pub fn path_to(&self, topo: &Topology, node: NodeId) -> Option<Vec<LinkId>> {
        self.distance(node)?;
        let mut rev = Vec::new();
        let mut cur = node;
        while cur != self.source {
            // Deterministic tie-break: parents are sorted by link id.
            let l = *self.parents[cur.index()].first()?;
            rev.push(l);
            cur = topo.link(l).src();
        }
        rev.reverse();
        Some(rev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_topo::{LinkKind, TopologyBuilder};

    /// Diamond with unequal arms: A->B->D costs 2, A->C->D costs 3.
    fn diamond_unequal() -> (Topology, [NodeId; 4]) {
        let mut b = TopologyBuilder::new();
        let a = b.node("A");
        let bb = b.node("B");
        let c = b.node("C");
        let d = b.node("D");
        b.link(a, bb, 100.0, 1.0, LinkKind::Backbone);
        b.link(bb, d, 100.0, 1.0, LinkKind::Backbone);
        b.link(a, c, 100.0, 1.0, LinkKind::Backbone);
        b.link(c, d, 100.0, 2.0, LinkKind::Backbone);
        (b.build().unwrap(), [a, bb, c, d])
    }

    /// Diamond with equal arms (ECMP): both A->B->D and A->C->D cost 2.
    fn diamond_equal() -> (Topology, [NodeId; 4]) {
        let mut b = TopologyBuilder::new();
        let a = b.node("A");
        let bb = b.node("B");
        let c = b.node("C");
        let d = b.node("D");
        b.link(a, bb, 100.0, 1.0, LinkKind::Backbone);
        b.link(bb, d, 100.0, 1.0, LinkKind::Backbone);
        b.link(a, c, 100.0, 1.0, LinkKind::Backbone);
        b.link(c, d, 100.0, 1.0, LinkKind::Backbone);
        (b.build().unwrap(), [a, bb, c, d])
    }

    use nws_topo::Topology;

    #[test]
    fn distances_and_unique_path() {
        let (t, [a, bb, c, d]) = diamond_unequal();
        let spf = Spf::compute(&t, a);
        assert_eq!(spf.distance(a), Some(0.0));
        assert_eq!(spf.distance(bb), Some(1.0));
        assert_eq!(spf.distance(c), Some(1.0));
        assert_eq!(spf.distance(d), Some(2.0));
        assert!(spf.unique_path_to(&t, d));
        let p = spf.path_to(&t, d).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(t.link(p[0]).dst(), bb);
    }

    #[test]
    fn reachable_nodes_by_decreasing_distance() {
        let (t, [a, bb, c, d]) = diamond_unequal();
        // B and C tie at distance 1 and keep node-id order.
        assert_eq!(Spf::compute(&t, a).by_decreasing_distance(), [d, bb, c, a]);
        // From D nothing else is reachable.
        assert_eq!(Spf::compute(&t, d).by_decreasing_distance(), [d]);
    }

    #[test]
    fn ecmp_detected() {
        let (t, [a, _, _, d]) = diamond_equal();
        let spf = Spf::compute(&t, a);
        assert_eq!(spf.shortest_path_parents(d).len(), 2);
        assert!(!spf.unique_path_to(&t, d));
        // path_to still returns a deterministic representative.
        let p = spf.path_to(&t, d).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn unreachable_nodes() {
        let mut b = TopologyBuilder::new();
        let a = b.node("A");
        let z = b.node("Z");
        let w = b.node("W");
        b.link(a, z, 100.0, 1.0, LinkKind::Backbone); // w has no incoming links
        b.link(w, a, 100.0, 1.0, LinkKind::Backbone);
        let t = b.build().unwrap();
        let spf = Spf::compute(&t, a);
        assert_eq!(spf.distance(w), None);
        assert!(spf.path_to(&t, w).is_none());
        assert!(!spf.unique_path_to(&t, w));
        assert_eq!(spf.distance(z), Some(1.0));
    }

    #[test]
    fn source_path_is_empty() {
        let (t, [a, ..]) = diamond_unequal();
        let spf = Spf::compute(&t, a);
        assert_eq!(spf.path_to(&t, a), Some(vec![]));
        assert!(spf.unique_path_to(&t, a));
    }

    #[test]
    fn respects_weights_not_hop_count() {
        // A->B direct cost 10, A->C->B cost 2+3 = 5: longer hop path wins.
        let mut b = TopologyBuilder::new();
        let a = b.node("A");
        let bb = b.node("B");
        let c = b.node("C");
        b.link(a, bb, 100.0, 10.0, LinkKind::Backbone);
        b.link(a, c, 100.0, 2.0, LinkKind::Backbone);
        b.link(c, bb, 100.0, 3.0, LinkKind::Backbone);
        let t = b.build().unwrap();
        let spf = Spf::compute(&t, a);
        assert_eq!(spf.distance(bb), Some(5.0));
        assert_eq!(spf.path_to(&t, bb).unwrap().len(), 2);
    }

    #[test]
    fn geant_uk_paths_match_design() {
        let t = nws_topo::geant();
        let uk = t.require_node("UK").unwrap();
        let spf = Spf::compute(&t, uk);
        let expect = [
            ("FR", 5.0),
            ("NL", 5.0),
            ("NY", 5.0),
            ("SE", 10.0),
            ("PT", 10.0),
            ("CH", 10.0),
            ("DE", 10.0),
            ("BE", 15.0),
            ("ES", 15.0),
            ("AT", 20.0),
            ("CZ", 20.0),
            ("PL", 20.0),
            ("IT", 20.0),
            ("IE", 20.0),
            ("LU", 25.0),
            ("SK", 35.0),
            ("HU", 35.0),
            ("SI", 35.0),
            ("GR", 40.0),
            ("IL", 45.0),
            ("HR", 45.0),
        ];
        for (name, d) in expect {
            let n = t.require_node(name).unwrap();
            assert_eq!(spf.distance(n), Some(d), "distance UK->{name}");
            assert!(spf.unique_path_to(&t, n), "UK->{name} should be ECMP-free");
        }
    }
}
