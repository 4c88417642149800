//! Parallel evaluation must be indistinguishable from serial evaluation.
//!
//! The engine's contract (see `defacto::engine`) is that worker count is
//! a pure throughput knob: sweeps come back in the space's iteration
//! order, and the Figure-2 search visits the same sequence, selects the
//! same design and terminates for the same reason at any thread count,
//! evaluating exactly the points it visits. These tests pin that
//! contract on the five paper kernels at 1, 2 and 8 workers, comparing
//! against an explicitly single-threaded reference run.

use defacto::prelude::*;
use defacto_ir::Kernel;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn suite() -> Vec<(&'static str, Kernel)> {
    defacto_kernels::paper_kernels()
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    for (name, k) in suite() {
        let serial = Explorer::new(&k).threads(1).sweep().unwrap();
        let serial_bytes = format!("{serial:?}");
        for workers in WORKER_COUNTS {
            let parallel = Explorer::new(&k).threads(workers).sweep().unwrap();
            assert_eq!(
                parallel, serial,
                "{name} sweep differs at {workers} workers"
            );
            assert_eq!(
                format!("{parallel:?}"),
                serial_bytes,
                "{name} sweep bytes differ at {workers} workers"
            );
        }
    }
}

#[test]
fn parallel_search_selects_identically_to_serial() {
    for (name, k) in suite() {
        let serial = Explorer::new(&k).threads(1).explore().unwrap();
        for workers in WORKER_COUNTS {
            let parallel = Explorer::new(&k).threads(workers).explore().unwrap();
            assert_eq!(
                parallel.selected, serial.selected,
                "{name} selected design differs at {workers} workers"
            );
            assert_eq!(
                parallel.visited, serial.visited,
                "{name} visited sequence differs at {workers} workers"
            );
            assert_eq!(
                parallel.termination, serial.termination,
                "{name} termination differs at {workers} workers"
            );
            assert_eq!(parallel.space_size, serial.space_size, "{name}");
            assert_eq!(parallel.stats.workers, workers, "{name}");
            // A cold search pays for exactly the points it visits.
            assert_eq!(
                parallel.stats.evaluated,
                parallel.visited.len() as u64,
                "{name} evaluated work differs from visited at {workers} workers"
            );
        }
    }
}

#[test]
fn reexploration_is_served_from_the_memo_cache() {
    for (name, k) in suite() {
        let ex = Explorer::new(&k).threads(2);
        let first = ex.explore().unwrap();
        assert!(first.stats.evaluated > 0, "{name} first run evaluates");
        let second = ex.explore().unwrap();
        assert_eq!(second.selected, first.selected, "{name}");
        assert!(
            second.stats.cache_hits >= 1,
            "{name} re-exploration should hit the cache (stats: {:?})",
            second.stats
        );
        assert_eq!(
            second.stats.evaluated, 0,
            "{name} re-exploration should evaluate nothing new"
        );
    }
}

/// The pool genuinely overlaps evaluations: eight blocking items on
/// eight workers are all in flight at once. Each item waits until every
/// item has started, so the proof is a counter, not a wall clock (and it
/// holds on single-core hosts, where CPU-bound speedup is capped). The
/// deadline only turns a broken pool into a failure instead of a hang.
#[test]
fn worker_pool_overlaps_blocking_evaluations() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};
    let items: Vec<u32> = (0..8).collect();
    let in_flight = AtomicUsize::new(0);
    let max_in_flight = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs(60);
    let results = EvalEngine::new(8).parallel_map(&items, |_| {
        let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        max_in_flight.fetch_max(now, Ordering::SeqCst);
        while max_in_flight.load(Ordering::SeqCst) < items.len() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        in_flight.fetch_sub(1, Ordering::SeqCst);
        Ok(())
    });
    assert!(results.iter().all(Result::is_ok));
    assert_eq!(
        max_in_flight.load(Ordering::SeqCst),
        items.len(),
        "8 workers should hold all 8 blocking items in flight at once"
    );
}

#[test]
fn sweep_stats_report_work_and_workers() {
    let (_, k) = suite().remove(0);
    let ex = Explorer::new(&k).threads(2);
    let (sweep, stats) = ex.sweep_with_stats().unwrap();
    assert_eq!(stats.evaluated, sweep.len() as u64);
    assert_eq!(stats.workers, 2);
    // A second sweep over the same explorer is answered by the cache.
    let (again, stats2) = ex.sweep_with_stats().unwrap();
    assert_eq!(again, sweep);
    assert_eq!(stats2.evaluated, 0);
    assert_eq!(stats2.cache_hits, sweep.len() as u64);
}
