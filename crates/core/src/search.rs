//! The design-space-exploration algorithm (paper Figure 2).
//!
//! Starting from the saturation set, the search exploits the
//! monotonicity of balance (non-decreasing before the saturation point,
//! non-increasing after — Observation 3) to binary-search the crossover
//! between compute-bound and memory-bound designs, doubling the unroll
//! product while only compute-bound designs are seen, and halving back
//! when a memory-bound or over-capacity design appears. The result is a
//! design close to the best performance in the space that is also the
//! smallest among comparable designs — after visiting only a handful of
//! points.
//!
//! Caching has exactly one layer: the evaluator passed in. The
//! instrumented entry point ([`run_search_instrumented`]) takes an
//! evaluator returning a [`VisitOutcome`] whose `cache_hit` flag is the
//! single source of truth for [`EvalStats`] accounting — the engine's
//! memo cache when called through [`crate::Explorer::explore`], a local
//! memo adapter for the plain [`run_search`] closure. The search itself
//! keeps no shadow cache, so both paths report identical stats for the
//! same serial run. Every step emits a [`TraceEvent`] into the given
//! [`TraceSink`] for the [auditor](crate::audit).

use crate::engine::EvalStats;
use crate::error::Result;
use crate::explorer::EvaluatedDesign;
use crate::saturation::SaturationInfo;
use crate::space::DesignSpace;
use crate::trace::{NullSink, TraceEvent, TraceSink};
use defacto_synth::Estimate;
use defacto_xform::UnrollVector;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Tuning knobs of the search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Designs with `|B − 1| ≤ tolerance` count as balanced.
    pub balance_tolerance: f64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            balance_tolerance: 0.10,
        }
    }
}

/// Why the search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// A balanced design was found.
    Balanced,
    /// The initial (saturation) design was already memory bound.
    MemoryBoundAtInit,
    /// The search was limited by device capacity.
    SpaceConstrained,
    /// Binary search between compute- and memory-bound points converged.
    Converged,
    /// Unrolling was exhausted while still compute bound.
    ExhaustedCompute,
}

/// One evaluator answer: the estimate plus whether the underlying cache
/// layer answered it. The flag is the *only* hit/miss source of truth
/// the search consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct VisitOutcome {
    /// The design point's estimate.
    pub estimate: Estimate,
    /// True when the estimate came from the evaluator's cache.
    pub cache_hit: bool,
}

/// Outcome of one exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The selected design.
    pub selected: EvaluatedDesign,
    /// Every design evaluated, in visit order (no duplicates).
    pub visited: Vec<EvaluatedDesign>,
    /// Size of the full design space.
    pub space_size: u64,
    /// Why the search stopped.
    pub termination: Termination,
    /// The saturation analysis that seeded the search.
    pub saturation: SaturationInfo,
    /// Evaluation counters for this run, from the evaluator's cache-hit
    /// flags. [`crate::Explorer::explore`] overwrites it with the
    /// engine-wide view (wall times, persistent-store and tier-0
    /// counters); its evaluations are exactly the visited points the
    /// caches could not answer.
    pub stats: EvalStats,
}

impl SearchResult {
    /// Fraction of the design space evaluated.
    pub fn fraction_explored(&self) -> f64 {
        if self.space_size == 0 {
            0.0
        } else {
            self.visited.len() as f64 / self.space_size as f64
        }
    }
}

/// Run the Figure-2 search over `space` with a plain estimator. A local
/// memo adapter is layered over `eval`, so re-visits never re-run it and
/// `visited` holds unique points in first-visit order.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn run_search<E>(
    space: &DesignSpace,
    sat: &SaturationInfo,
    cfg: &SearchConfig,
    eval: E,
) -> Result<SearchResult>
where
    E: FnMut(&UnrollVector) -> Result<Estimate>,
{
    run_search_with_sink(space, sat, cfg, eval, &NullSink)
}

/// [`run_search`] with a trace sink.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn run_search_with_sink<E>(
    space: &DesignSpace,
    sat: &SaturationInfo,
    cfg: &SearchConfig,
    mut eval: E,
    sink: &dyn TraceSink,
) -> Result<SearchResult>
where
    E: FnMut(&UnrollVector) -> Result<Estimate>,
{
    let mut memo: HashMap<UnrollVector, Estimate> = HashMap::new();
    run_search_instrumented(
        space,
        sat,
        cfg,
        |u| {
            if let Some(e) = memo.get(u) {
                return Ok(VisitOutcome {
                    estimate: e.clone(),
                    cache_hit: true,
                });
            }
            let e = eval(u)?;
            memo.insert(u.clone(), e.clone());
            Ok(VisitOutcome {
                estimate: e,
                cache_hit: false,
            })
        },
        sink,
    )
}

/// Per-run bookkeeping shared by every visit.
struct SearchState<'a> {
    visited: Vec<EvaluatedDesign>,
    seen: HashSet<UnrollVector>,
    evaluated: u64,
    cache_hits: u64,
    sink: &'a dyn TraceSink,
}

impl SearchState<'_> {
    fn visit<E>(&mut self, u: &UnrollVector, eval: &mut E) -> Result<Estimate>
    where
        E: FnMut(&UnrollVector) -> Result<VisitOutcome>,
    {
        let outcome = eval(u)?;
        if outcome.cache_hit {
            self.cache_hits += 1;
        } else {
            self.evaluated += 1;
        }
        let revisit = !self.seen.insert(u.clone());
        if !revisit {
            self.visited.push(EvaluatedDesign {
                unroll: u.clone(),
                estimate: outcome.estimate.clone(),
            });
        }
        if self.sink.enabled() {
            self.sink.record(&TraceEvent::Visit {
                unroll: u.clone(),
                balance: outcome.estimate.balance,
                cycles: outcome.estimate.cycles,
                slices: outcome.estimate.slices,
                fits: outcome.estimate.fits,
                // The deterministic search-level revisit flag, NOT the
                // evaluator's cache flag (which depends on what earlier
                // runs left in the memo or persistent store).
                cache_hit: revisit,
            });
        }
        Ok(outcome.estimate)
    }
}

/// The instrumented Figure-2 search: `eval` reports cache attribution
/// per visit, `sink` receives one [`TraceEvent`] per decision. This is
/// the single implementation every entry point funnels into.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn run_search_instrumented<E>(
    space: &DesignSpace,
    sat: &SaturationInfo,
    cfg: &SearchConfig,
    mut eval: E,
    sink: &dyn TraceSink,
) -> Result<SearchResult>
where
    E: FnMut(&UnrollVector) -> Result<VisitOutcome>,
{
    let started = Instant::now();
    let mut st = SearchState {
        visited: Vec::new(),
        seen: HashSet::new(),
        evaluated: 0,
        cache_hits: 0,
        sink,
    };

    let u_base = space.base_vector();
    let u_max = restricted_max(space, sat);
    let psat_product = sat.u_init.product().max(1);

    let mut u_curr = sat.u_init.clone();
    let mut u_cb: Option<UnrollVector> = None;
    let mut u_mb: Option<UnrollVector> = None;
    let termination;

    loop {
        let est = st.visit(&u_curr, &mut eval)?;

        if !est.fits {
            if u_curr == sat.u_init {
                // FindLargestFit(Ubase, Uinit): the largest design at or
                // below the saturation point that fits, regardless of
                // balance — it maximizes available parallelism.
                let init = u_curr.clone();
                u_curr = find_largest_fit(space, sat, &u_base, &init, &mut st, &mut eval)?;
                if sink.enabled() {
                    sink.record(&TraceEvent::FindLargestFit {
                        base: u_base.clone(),
                        init,
                        chosen: u_curr.clone(),
                    });
                }
                termination = Termination::SpaceConstrained;
                break;
            }
            // Halve back toward the last compute-bound fitting design.
            let lower = u_cb.clone().unwrap_or_else(|| u_base.clone());
            let next = select_between(space, sat, psat_product, &lower, &u_curr);
            if sink.enabled() {
                sink.record(&TraceEvent::SelectBetween {
                    lo: lower.clone(),
                    hi: u_curr.clone(),
                    chosen: next.clone(),
                });
            }
            match next {
                Some(next) if next != u_curr && Some(&next) != u_cb.as_ref() => {
                    u_curr = next;
                    continue;
                }
                _ => {
                    u_curr = lower;
                    // Make sure the fallback is evaluated.
                    st.visit(&u_curr, &mut eval)?;
                    termination = Termination::SpaceConstrained;
                    break;
                }
            }
        }

        let b = est.balance;
        if (b - 1.0).abs() <= cfg.balance_tolerance {
            termination = Termination::Balanced;
            break;
        }
        if b < 1.0 {
            // Memory bound.
            u_mb = Some(u_curr.clone());
            if u_curr == sat.u_init {
                termination = Termination::MemoryBoundAtInit;
                break;
            }
            let lower = u_cb.clone().unwrap_or_else(|| u_base.clone());
            let next = select_between(space, sat, psat_product, &lower, &u_curr);
            if sink.enabled() {
                sink.record(&TraceEvent::SelectBetween {
                    lo: lower.clone(),
                    hi: u_curr.clone(),
                    chosen: next.clone(),
                });
            }
            match next {
                Some(next) if next != u_curr && Some(&next) != u_cb.as_ref() => u_curr = next,
                _ => {
                    u_curr = lower;
                    st.visit(&u_curr, &mut eval)?;
                    termination = Termination::Converged;
                    break;
                }
            }
        } else {
            // Compute bound.
            u_cb = Some(u_curr.clone());
            match &u_mb {
                None => {
                    // Only compute-bound designs so far: double.
                    match increase(space, sat, &u_curr, &u_max) {
                        Some(next) if next != u_curr => {
                            if sink.enabled() {
                                sink.record(&TraceEvent::Increase {
                                    from: u_curr.clone(),
                                    to: next.clone(),
                                });
                            }
                            u_curr = next;
                        }
                        _ => {
                            termination = Termination::ExhaustedCompute;
                            break;
                        }
                    }
                }
                Some(mb) => {
                    let mb = mb.clone();
                    let next = select_between(space, sat, psat_product, &u_curr, &mb);
                    if sink.enabled() {
                        sink.record(&TraceEvent::SelectBetween {
                            lo: u_curr.clone(),
                            hi: mb,
                            chosen: next.clone(),
                        });
                    }
                    match next {
                        Some(next) if next != u_curr => u_curr = next,
                        _ => {
                            termination = Termination::Converged;
                            break;
                        }
                    }
                }
            }
        }
    }

    let selected_est = st
        .visited
        .iter()
        .find(|d| d.unroll == u_curr)
        .expect("current point evaluated")
        .estimate
        .clone();
    if sink.enabled() {
        sink.record(&TraceEvent::Terminate {
            reason: termination,
            selected: u_curr.clone(),
        });
    }
    let stats = EvalStats {
        evaluated: st.evaluated,
        cache_hits: st.cache_hits,
        wall: started.elapsed(),
        eval_wall: Default::default(),
        workers: 1,
        ..EvalStats::default()
    };
    Ok(SearchResult {
        selected: EvaluatedDesign {
            unroll: u_curr,
            estimate: selected_est,
        },
        visited: st.visited,
        space_size: space.size(),
        termination,
        saturation: sat.clone(),
        stats,
    })
}

/// The chain of design points the search visits while every estimate
/// stays compute bound: the saturation point, then each `Increase` step
/// (product doubling) up to the restricted maximum. The search visits a
/// prefix of exactly this chain until it leaves the compute-bound
/// regime, so the chain bounds how far its doubling phase can reach.
/// The search itself does not call this; it is exported for tools that
/// reason about that reach.
pub fn doubling_frontier(space: &DesignSpace, sat: &SaturationInfo) -> Vec<UnrollVector> {
    let u_max = restricted_max(space, sat);
    let mut frontier = vec![sat.u_init.clone()];
    let mut current = sat.u_init.clone();
    while let Some(next) = increase(space, sat, &current, &u_max) {
        if next == current {
            break;
        }
        frontier.push(next.clone());
        current = next;
    }
    frontier
}

/// The largest vector of the space restricted to unrollable loops.
fn restricted_max(space: &DesignSpace, sat: &SaturationInfo) -> UnrollVector {
    let max = space.max_vector();
    UnrollVector(
        max.factors()
            .iter()
            .zip(&sat.unrollable)
            .map(|(&f, &on)| if on { f } else { 1 })
            .collect(),
    )
}

/// `Increase(U)`: the preferred member with `P(Uout) = 2·P(Uin)` and
/// `Uin ≤ Uout ≤ Umax`; `None` when no such member remains.
fn increase(
    space: &DesignSpace,
    sat: &SaturationInfo,
    u: &UnrollVector,
    u_max: &UnrollVector,
) -> Option<UnrollVector> {
    let target = u.product().checked_mul(2)?;
    let members = space.members_with_product(target, u, u_max);
    sat.pick_growth(&members)
}

/// `SelectBetween(Usmall, Ularge)`: the preferred member whose product is
/// a multiple of `P(Uinit)` as close as possible to the midpoint
/// `(P(Usmall)+P(Ularge))/2`, strictly between the two products;
/// `None` when no point remains (the search has converged).
///
/// Candidate products come from [`DesignSpace::products_between`] — the
/// products actually representable in the space — rather than every
/// integer multiple in the range, which is identical in behavior (a
/// non-representable product has no members) but stays cheap when the
/// bracket spans a huge range.
fn select_between(
    space: &DesignSpace,
    sat: &SaturationInfo,
    psat_product: i64,
    small: &UnrollVector,
    large: &UnrollVector,
) -> Option<UnrollVector> {
    let ps = small.product();
    let pl = large.product();
    if pl <= ps {
        return None;
    }
    let mid = (ps + pl) / 2;
    let mut products: Vec<i64> = space
        .products_between(ps + 1, pl - 1)
        .into_iter()
        .filter(|&p| p % psat_product == 0)
        .collect();
    products.sort_by_key(|&p| ((p - mid).abs(), p));
    for p in products {
        let members = space.members_with_product(p, small, large);
        if let Some(m) = sat.pick_growth(&members) {
            return Some(m);
        }
    }
    None
}

/// `FindLargestFit(Ubase, Uinit)`: evaluate members between base and the
/// saturation point in decreasing product order until one fits. Only
/// products representable in the space are scanned (the former dense
/// `1..P(Uinit)` integer scan made this step quadratic in the trip
/// count).
fn find_largest_fit<E>(
    space: &DesignSpace,
    sat: &SaturationInfo,
    base: &UnrollVector,
    init: &UnrollVector,
    st: &mut SearchState,
    eval: &mut E,
) -> Result<UnrollVector>
where
    E: FnMut(&UnrollVector) -> Result<VisitOutcome>,
{
    let mut products = space.products_between(base.product(), init.product() - 1);
    products.reverse();
    for p in products {
        let members = space.members_with_product(p, base, init);
        if let Some(m) = sat.pick_growth(&members) {
            let est = st.visit(&m, eval)?;
            if est.fits {
                return Ok(m);
            }
        }
    }
    Ok(base.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saturation::SaturationInfo;
    use crate::trace::MemorySink;

    /// Build a synthetic saturation info over a 2-deep 64×32 space.
    fn synthetic() -> (DesignSpace, SaturationInfo) {
        let space = DesignSpace::new(&[64, 32], &[true, true]);
        let base = space.base_vector();
        let sat_set = space.members_with_product(4, &base, &space.max_vector());
        let info = SaturationInfo {
            read_sets: 2,
            write_sets: 1,
            psat: 4,
            unrollable: vec![true, true],
            sat_set: sat_set.clone(),
            u_init: UnrollVector(vec![4, 1]),
            preference: vec![0, 1],
        };
        (space, info)
    }

    /// A fake estimator: balance crosses from compute bound to memory
    /// bound at product `cross`; area grows linearly with product and
    /// exceeds capacity above `cap_product`.
    fn fake_eval(cross: i64, cap_product: i64) -> impl FnMut(&UnrollVector) -> Result<Estimate> {
        move |u: &UnrollVector| {
            let p = u.product();
            let balance = cross as f64 / p as f64; // >1 below cross
            Ok(Estimate {
                cycles: (100_000 / p as u64).max(1),
                slices: (p * 100) as u32,
                memory_busy_cycles: p as u64,
                compute_busy_cycles: cross as u64,
                bits_from_memory: 0,
                registers: 0,
                balance,
                clock_ns: 40,
                fits: p <= cap_product,
                provenance: Default::default(),
            })
        }
    }

    #[test]
    fn finds_balanced_crossover() {
        let (space, sat) = synthetic();
        let cfg = SearchConfig::default();
        let r = run_search(&space, &sat, &cfg, fake_eval(64, 10_000)).unwrap();
        // Balance = 64/p: balanced at p = 64.
        assert_eq!(r.selected.unroll.product(), 64);
        assert_eq!(r.termination, Termination::Balanced);
        // Visits a handful of points, not the whole space.
        assert!(r.visited.len() <= 8, "visited {}", r.visited.len());
        assert!(r.fraction_explored() < 0.25);
    }

    #[test]
    fn memory_bound_at_init_stops_immediately() {
        let (space, sat) = synthetic();
        let cfg = SearchConfig::default();
        let r = run_search(&space, &sat, &cfg, fake_eval(1, 10_000)).unwrap();
        assert_eq!(r.termination, Termination::MemoryBoundAtInit);
        assert_eq!(r.selected.unroll, sat.u_init);
        assert_eq!(r.visited.len(), 1);
    }

    #[test]
    fn capacity_limits_the_search() {
        let (space, sat) = synthetic();
        let cfg = SearchConfig::default();
        // Always compute bound, capacity at product 16.
        let r = run_search(&space, &sat, &cfg, fake_eval(100_000, 16)).unwrap();
        assert!(r.selected.estimate.fits);
        assert_eq!(r.selected.unroll.product(), 16);
        assert_eq!(r.termination, Termination::SpaceConstrained);
    }

    #[test]
    fn capacity_exceeded_at_init_falls_back() {
        let (space, sat) = synthetic();
        let cfg = SearchConfig::default();
        // Nothing above product 2 fits.
        let r = run_search(&space, &sat, &cfg, fake_eval(100_000, 2)).unwrap();
        assert!(r.selected.estimate.fits);
        assert_eq!(r.selected.unroll.product(), 2);
        assert_eq!(r.termination, Termination::SpaceConstrained);
    }

    #[test]
    fn exhausts_compute_bound_space() {
        let (space, sat) = synthetic();
        let cfg = SearchConfig::default();
        // Always compute bound, everything fits: unroll to the max.
        let r = run_search(&space, &sat, &cfg, fake_eval(100_000_000, 1 << 60)).unwrap();
        assert_eq!(r.termination, Termination::ExhaustedCompute);
        assert_eq!(r.selected.unroll.product(), 2048);
    }

    #[test]
    fn converges_between_bounds_without_balanced_point() {
        let (space, sat) = synthetic();
        // Sharp transition: B = 10 below product 32, B = 0.2 at and
        // above. No balanced point exists.
        let eval = |u: &UnrollVector| {
            let p = u.product();
            let balance = if p < 32 { 10.0 } else { 0.2 };
            Ok(Estimate {
                cycles: (100_000 / p as u64).max(1),
                slices: 100,
                memory_busy_cycles: 1,
                compute_busy_cycles: 1,
                bits_from_memory: 0,
                registers: 0,
                balance,
                clock_ns: 40,
                fits: true,
                provenance: Default::default(),
            })
        };
        let cfg = SearchConfig::default();
        let r = run_search(&space, &sat, &cfg, eval).unwrap();
        // Converges to the largest compute-bound product below 32.
        assert!(r.selected.estimate.balance > 1.0);
        assert_eq!(r.termination, Termination::Converged);
        assert_eq!(r.selected.unroll.product(), 16);
    }

    #[test]
    fn visited_has_no_duplicates() {
        let (space, sat) = synthetic();
        let cfg = SearchConfig::default();
        let r = run_search(&space, &sat, &cfg, fake_eval(64, 10_000)).unwrap();
        let mut seen = std::collections::HashSet::new();
        for v in &r.visited {
            assert!(seen.insert(v.unroll.clone()), "duplicate {}", v.unroll);
        }
    }

    #[test]
    fn stats_come_from_the_single_cache_layer() {
        // Regression: the search used to keep a private HashMap on top
        // of the caller's cache, so revisits never reached the caller
        // and its hit counter disagreed with the reported stats. The
        // caller's cache layer is now the only one: every revisit is a
        // hit *there*.
        let (space, sat) = synthetic();
        let cfg = SearchConfig::default();
        // An eval with its own memo layer (stand-in for the engine),
        // counting its hits and actual evaluations.
        let mut layer_hits = 0u64;
        let mut layer_evals = 0u64;
        let mut memo: HashMap<UnrollVector, Estimate> = HashMap::new();
        // Converging fixture: guarantees one revisit (the fallback to
        // the last compute-bound point).
        let inner = move |u: &UnrollVector| -> Result<Estimate> {
            let p = u.product();
            let balance = if p < 32 { 10.0 } else { 0.2 };
            Ok(Estimate {
                balance,
                ..fake_eval(1, 1 << 60)(u)?
            })
        };
        let r = run_search_instrumented(
            &space,
            &sat,
            &cfg,
            |u| {
                if let Some(e) = memo.get(u) {
                    layer_hits += 1;
                    return Ok(VisitOutcome {
                        estimate: e.clone(),
                        cache_hit: true,
                    });
                }
                layer_evals += 1;
                let e = inner(u)?;
                memo.insert(u.clone(), e.clone());
                Ok(VisitOutcome {
                    estimate: e,
                    cache_hit: false,
                })
            },
            &NullSink,
        )
        .unwrap();
        assert!(layer_hits >= 1, "fixture must produce a revisit");
        assert_eq!(r.stats.cache_hits, layer_hits);
        assert_eq!(r.stats.evaluated, layer_evals);
        assert_eq!(r.stats.evaluated, r.visited.len() as u64);
    }

    #[test]
    fn plain_and_instrumented_stats_agree() {
        let (space, sat) = synthetic();
        let cfg = SearchConfig::default();
        let plain = run_search(&space, &sat, &cfg, fake_eval(64, 10_000)).unwrap();
        let mut memo: HashMap<UnrollVector, Estimate> = HashMap::new();
        let mut inner = fake_eval(64, 10_000);
        let inst = run_search_instrumented(
            &space,
            &sat,
            &cfg,
            |u| {
                if let Some(e) = memo.get(u) {
                    return Ok(VisitOutcome {
                        estimate: e.clone(),
                        cache_hit: true,
                    });
                }
                let e = inner(u)?;
                memo.insert(u.clone(), e.clone());
                Ok(VisitOutcome {
                    estimate: e,
                    cache_hit: false,
                })
            },
            &NullSink,
        )
        .unwrap();
        assert_eq!(plain.stats, inst.stats);
        assert_eq!(plain.selected, inst.selected);
        assert_eq!(plain.visited, inst.visited);
    }

    #[test]
    fn emits_a_complete_trace() {
        let (space, sat) = synthetic();
        let cfg = SearchConfig::default();
        let sink = MemorySink::new();
        let r = run_search_with_sink(&space, &sat, &cfg, fake_eval(64, 10_000), &sink).unwrap();
        let events = sink.events();
        // One Visit per visit call, Increase steps along the doubling
        // chain, and a final Terminate naming the selection.
        let visits = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Visit { .. }))
            .count();
        assert_eq!(visits, r.visited.len());
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Increase { .. })));
        match events.last() {
            Some(TraceEvent::Terminate { reason, selected }) => {
                assert_eq!(*reason, r.termination);
                assert_eq!(*selected, r.selected.unroll);
            }
            other => panic!("last event must be Terminate, got {other:?}"),
        }
    }

    #[test]
    fn trace_marks_revisits_not_first_visits() {
        let (space, sat) = synthetic();
        let cfg = SearchConfig::default();
        let sink = MemorySink::new();
        // Converging fixture guarantees a revisit of the fallback point.
        let eval = |u: &UnrollVector| -> Result<Estimate> {
            let p = u.product();
            let balance = if p < 32 { 10.0 } else { 0.2 };
            Ok(Estimate {
                balance,
                ..fake_eval(1, 1 << 60)(u)?
            })
        };
        run_search_with_sink(&space, &sat, &cfg, eval, &sink).unwrap();
        let hits: Vec<bool> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Visit { cache_hit, .. } => Some(*cache_hit),
                _ => None,
            })
            .collect();
        assert!(!hits[0], "first visit is never a revisit");
        assert!(hits.iter().any(|&h| h), "fixture must produce a revisit");
    }

    #[test]
    fn find_largest_fit_scans_only_representable_products() {
        // Regression: with a huge trip count and nothing fitting, the
        // old dense 1..P(Uinit) integer scan made this effectively hang
        // (each integer triggered a recursive member enumeration). Only
        // the ~31 representable power-of-two products are scanned now.
        let trip = 1i64 << 30;
        let space = DesignSpace::new(&[trip], &[true]);
        let u_init = UnrollVector(vec![trip]);
        let sat = SaturationInfo {
            read_sets: 1,
            write_sets: 1,
            psat: trip,
            unrollable: vec![true],
            sat_set: vec![u_init.clone()],
            u_init,
            preference: vec![0],
        };
        let cfg = SearchConfig::default();
        // Nothing fits except the baseline.
        let r = run_search(&space, &sat, &cfg, fake_eval(1 << 40, 1)).unwrap();
        assert_eq!(r.termination, Termination::SpaceConstrained);
        assert_eq!(r.selected.unroll.product(), 1);
        // The scan visits one member per representable product, not one
        // per integer.
        assert!(r.visited.len() <= 32, "visited {}", r.visited.len());
    }
}
