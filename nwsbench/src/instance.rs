//! Seeded benchmark instances, built only from the public generators:
//! `ring_with_chords` for the backbone, the gravity model for background
//! load and `MeasurementTask::builder` for the tracked ODs.

use nws_core::MeasurementTask;
use nws_routing::{OdPair, Router};
use nws_topo::random::ring_with_chords;
use nws_topo::NodeId;
use nws_traffic::demand::DemandMatrix;

/// The shape of a ring-with-chords instance: `sources` highest-degree
/// PoPs each track every reachable destination.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Name printed with every run.
    pub name: &'static str,
    /// PoPs on the ring.
    pub nodes: usize,
    /// Random bidirectional chords added to the ring.
    pub chords: usize,
    /// Highest-degree PoPs used as OD sources.
    pub sources: usize,
}

/// 160 PoPs, 4 sources: about 636 ODs on 640 links (the serving shape).
pub const RING160X4: Shape = Shape {
    name: "ring160x4",
    nodes: 160,
    chords: 160,
    sources: 4,
};

/// 160 PoPs, 16 sources: about 2544 ODs on 640 links (the planning shape).
pub const RING160X16: Shape = Shape {
    name: "ring160x16",
    nodes: 160,
    chords: 160,
    sources: 16,
};

/// The seed every instance is generated from. An instance is fixed per
/// shape: the workload seed drives the event and request streams run
/// against it, not the instance itself, because the solver's iteration
/// count (and with it every solve-bound time) moves by ±10% between
/// otherwise identical instances, which would swamp run-to-run
/// comparisons.
pub const INSTANCE_SEED: u64 = 42;

/// θ as a share of the tracked volume.
pub const THETA_SHARE: f64 = 0.002;

/// Builds the instance of `shape`.
///
/// OD sizes are heavy-tailed by destination rank (the largest ~9e6
/// packets, floor 600), scaled per OD by a seeded factor in [0.95, 1.05);
/// background load is a capacity-weighted gravity matrix; θ is
/// [`THETA_SHARE`] of the tracked volume.
pub fn build(shape: Shape) -> MeasurementTask {
    let topo = ring_with_chords(shape.nodes, shape.chords, INSTANCE_SEED);
    let sources = top_degree(&topo, shape.sources);
    let router = Router::new(&topo);
    let mut rng = SplitMix::new(INSTANCE_SEED);
    let mut tracked: Vec<(String, OdPair, f64)> = Vec::new();
    for &src in &sources {
        let mut rank = 0usize;
        for dst in topo.node_ids().filter(|&d| d != src) {
            let od = OdPair::new(src, dst);
            if router.path(od).is_none() {
                continue;
            }
            let base = (9_000_000.0 / ((rank + 1) as f64).powf(1.2)).max(600.0);
            let size = base * (0.95 + 0.1 * rng.unit());
            rank += 1;
            let name = format!("{}>{}", topo.node(src).name(), topo.node(dst).name());
            tracked.push((name, od, size));
        }
    }
    drop(router);
    let background =
        DemandMatrix::gravity_capacity_weighted(&topo, 3e8, 0.5, INSTANCE_SEED).link_loads(&topo);
    let total: f64 = tracked.iter().map(|t| t.2).sum();
    let mut builder = MeasurementTask::builder(topo);
    for (name, od, size) in tracked {
        builder = builder.track(name, od, size);
    }
    builder
        .background_loads(&background)
        .theta(total * THETA_SHARE)
        .build()
        .expect("generated instance is a valid measurement task")
}

/// The `k` highest-degree nodes, ties broken by lower node index.
fn top_degree(topo: &nws_topo::Topology, k: usize) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = topo.node_ids().collect();
    nodes.sort_by_key(|&v| (std::cmp::Reverse(topo.out_links(v).count()), v.index()));
    nodes.truncate(k);
    nodes
}

/// A small seeded generator (splitmix64) for the benchmark's own inputs:
/// event streams, demand jitter and schedule offsets.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
