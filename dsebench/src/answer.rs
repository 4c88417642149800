//! One request's answer: parse, a fresh `Explorer` with a fresh
//! two-worker `EvalEngine`, then the workload's call.

use crate::Workload;
use defacto::cache::PersistentCache;
use defacto::exhaustive::best_performance;
use defacto::ir::parse_kernel;
use defacto::{
    Axis, EvalEngine, EvalStats, EvaluatedDesign, EvaluatedJointDesign, Explorer, StrategyKind,
    Termination,
};
use std::sync::Arc;

/// Worker threads of every answer's engine, whatever the host offers.
pub const WORKERS: usize = 2;

/// The part of an answer that must not depend on caches or timing.
#[derive(Debug, Clone, PartialEq)]
pub enum Design {
    Fig2 {
        selected: EvaluatedDesign,
        visited: Vec<EvaluatedDesign>,
        termination: Termination,
    },
    Sweep {
        selected: Option<EvaluatedDesign>,
        sweep: Vec<EvaluatedDesign>,
    },
    Joint {
        selected: Option<EvaluatedJointDesign>,
        evaluated: Vec<EvaluatedJointDesign>,
        gap_cycles: Option<u64>,
    },
}

impl Design {
    /// The selected unroll vector the correctness check simulates
    /// (Figure-2 and sweep answers only).
    pub fn selected_unroll(&self) -> Option<&defacto::xform::UnrollVector> {
        match self {
            Design::Fig2 { selected, .. } => Some(&selected.unroll),
            Design::Sweep { selected, .. } => selected.as_ref().map(|d| &d.unroll),
            Design::Joint { .. } => None,
        }
    }
}

/// Counters the library reports for one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Tier-1 evaluations (for joint answers, the strategy's evaluated
    /// set: the engine counters read 0 there).
    pub tier1_evals: u64,
    pub memo_hits: u64,
    pub persist_hits: u64,
    pub persist_misses: u64,
    /// Points the answer's search visited (Figure 2), evaluated (joint)
    /// or swept.
    pub visited: u64,
    pub space_points: u64,
    pub pruned: u64,
}

pub struct Answer {
    pub design: Design,
    pub counts: Counts,
    pub stats: EvalStats,
}

/// Answer one request text.
pub fn answer(
    workload: Workload,
    text: &str,
    store: &Arc<PersistentCache>,
) -> Result<Answer, String> {
    let kernel = parse_kernel(text).map_err(|e| format!("parse: {e}"))?;
    let ex = Explorer::new(&kernel).engine(Arc::new(EvalEngine::new(WORKERS)));
    match workload {
        Workload::Fig2Edit => {
            let r = ex
                .persistent(Arc::clone(store))
                .explore()
                .map_err(|e| format!("explore: {e}"))?;
            let counts = Counts {
                tier1_evals: r.stats.evaluated,
                memo_hits: r.stats.cache_hits,
                persist_hits: r.stats.persist_hits,
                persist_misses: r.stats.persist_misses,
                visited: r.visited.len() as u64,
                space_points: r.space_size,
                pruned: 0,
            };
            Ok(Answer {
                design: Design::Fig2 {
                    selected: r.selected,
                    visited: r.visited,
                    termination: r.termination,
                },
                counts,
                stats: r.stats,
            })
        }
        Workload::SweepBatch => {
            let (sweep, stats) = ex.sweep_with_stats().map_err(|e| format!("sweep: {e}"))?;
            let counts = Counts {
                tier1_evals: stats.evaluated,
                memo_hits: stats.cache_hits,
                persist_hits: stats.persist_hits,
                persist_misses: stats.persist_misses,
                visited: sweep.len() as u64,
                space_points: sweep.len() as u64,
                pruned: 0,
            };
            Ok(Answer {
                design: Design::Sweep {
                    selected: best_performance(&sweep).cloned(),
                    sweep,
                },
                counts,
                stats,
            })
        }
        Workload::JointEdit => {
            let r = ex
                .persistent(Arc::clone(store))
                .axes(&Axis::ALL)
                .joint_explore(StrategyKind::BranchAndBound)
                .map_err(|e| format!("joint_explore: {e}"))?;
            let counts = Counts {
                tier1_evals: r.evaluated.len() as u64,
                memo_hits: r.stats.cache_hits,
                persist_hits: r.stats.persist_hits,
                persist_misses: r.stats.persist_misses,
                visited: r.evaluated.len() as u64,
                space_points: r.space_points,
                pruned: r.pruned,
            };
            Ok(Answer {
                design: Design::Joint {
                    selected: r.selected,
                    evaluated: r.evaluated,
                    gap_cycles: r.gap_cycles,
                },
                counts,
                stats: r.stats,
            })
        }
    }
}
