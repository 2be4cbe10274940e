//! Criterion: SPF and routing-matrix construction throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nws_routing::{OdPair, RoutingMatrix, Spf};
use nws_topo::random::ring_with_chords;
use nws_topo::{geant, NodeId};
use std::cmp::Reverse;
use std::hint::black_box;

fn bench_spf_geant(c: &mut Criterion) {
    let topo = geant();
    let uk = topo.require_node("UK").expect("UK");
    c.bench_function("spf/geant_from_uk", |b| {
        b.iter(|| Spf::compute(black_box(&topo), uk))
    });
}

fn bench_spf_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("spf/scaling");
    for &n in &[50usize, 100, 200, 400] {
        let topo = ring_with_chords(n, n, 3);
        let src = topo.node_ids().next().expect("nodes");
        group.bench_with_input(BenchmarkId::from_parameter(n), &topo, |b, topo| {
            b.iter(|| Spf::compute(black_box(topo), src))
        });
    }
    group.finish();
}

fn bench_routing_matrix(c: &mut Criterion) {
    let topo = geant();
    let janet = topo.require_node("JANET").expect("JANET");
    let ods: Vec<OdPair> = topo
        .node_ids()
        .filter(|&d| d != janet)
        .map(|d| OdPair::new(janet, d))
        .collect();
    c.bench_function("routing_matrix/geant_all_dsts", |b| {
        b.iter(|| RoutingMatrix::build(black_box(&topo), black_box(&ods)))
    });
}

/// The planning-scale shape: 160 PoPs with 160 chords, the 16
/// highest-degree PoPs each tracking every other PoP (2544 ODs, 640 links).
fn bench_routing_matrix_ring(c: &mut Criterion) {
    let topo = ring_with_chords(160, 160, 42);
    let mut sources: Vec<NodeId> = topo.node_ids().collect();
    sources.sort_by_key(|&v| (Reverse(topo.out_links(v).count()), v.index()));
    sources.truncate(16);
    let ods: Vec<OdPair> = sources
        .iter()
        .flat_map(|&s| {
            topo.node_ids()
                .filter(move |&d| d != s)
                .map(move |d| OdPair::new(s, d))
        })
        .collect();
    c.bench_function("routing_matrix/ring160x16", |b| {
        b.iter(|| RoutingMatrix::build(black_box(&topo), black_box(&ods)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_spf_geant, bench_spf_scaling, bench_routing_matrix,
        bench_routing_matrix_ring
}
criterion_main!(benches);
