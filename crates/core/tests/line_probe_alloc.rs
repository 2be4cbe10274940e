//! Verifies that a placement objective's Newton line searches do not
//! allocate once warm: the line restriction borrows its buffers from the
//! objective and returns them when the search ends. Own integration-test
//! binary (one test, no threads) so nothing else allocates while the
//! counting window is open.

use nws_core::scenarios::janet_task;
use nws_core::{PlacementObjective, RateModel, ReducedIndex};
use nws_linalg::Vector;
use nws_obs::Recorder;
use nws_solver::NewtonLineSearch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn warm_line_searches_do_not_allocate() {
    let task = janet_task();
    let index = ReducedIndex::new(&task);
    let dim = index.dim();
    let p = Vector::filled(dim, 1e-3);
    // Every coordinate moves, so every OD row does: the first search sizes
    // the buffers for all later ones.
    let directions: Vec<Vector> = (0..8)
        .map(|i| {
            (0..dim)
                .map(|v| if (v + i) % 3 == 0 { 1e-3 } else { -4e-4 })
                .collect()
        })
        .collect();
    let search = NewtonLineSearch::default();
    let rec = Recorder::disabled();
    for model in [RateModel::Approximate, RateModel::Exact] {
        let objective = PlacementObjective::new(&task, &index, model);
        search
            .maximize(&objective, &p, &directions[0], 1.0, &rec)
            .expect("warm-up search");
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for s in &directions {
            search
                .maximize(&objective, &p, s, 1.0, &rec)
                .expect("search");
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(after - before, 0, "{model:?}: warm line searches allocated");
    }
}
