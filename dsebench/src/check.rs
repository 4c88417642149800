//! Correctness checks, run after the timed loop and outside every timing.
//!
//! 1. Every answer of a pool member equals that member's first (cold)
//!    answer in the run.
//! 2. Figure-2 and sweep: the selected design, run through
//!    `Explorer::simulate` on `defacto_kernels::workload` inputs, matches
//!    the family's plain-Rust reference.
//! 3. Joint: the branch-and-bound selection equals the best design of the
//!    exhaustive joint sweep.
//!
//! A failed check marks the answers it covers as failed.

use crate::answer::{Design, WORKERS};
use crate::stream::{Member, Request};
use crate::{Done, Workload};
use defacto::exhaustive::best_joint_performance;
use defacto::ir::parse_kernel;
use defacto::{Axis, EvalEngine, Explorer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Indices into `done` of answers that failed (errored or checked wrong),
/// with one message per distinct failure.
pub fn check(
    workload: Workload,
    pool: &[Member],
    requests: &[Request],
    done: &[Done],
) -> (Vec<bool>, Vec<String>) {
    let mut failed = vec![false; done.len()];
    let mut messages = Vec::new();
    // Member → indices into `done`, in stream order; the first is cold.
    let mut by_member: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (k, d) in done.iter().enumerate() {
        match &d.result {
            Ok(_) => by_member
                .entry(requests[d.request].member)
                .or_default()
                .push(k),
            Err(e) => {
                failed[k] = true;
                messages.push(format!("request {}: {e}", d.request));
            }
        }
    }
    for (&member, answers) in &by_member {
        let cold = &done[answers[0]];
        let cold_design = &cold.result.as_ref().expect("grouped answers are Ok").design;
        for &k in &answers[1..] {
            let design = &done[k]
                .result
                .as_ref()
                .expect("grouped answers are Ok")
                .design;
            if design != cold_design {
                failed[k] = true;
                messages.push(format!(
                    "request {}: answer differs from the cold answer of {}",
                    done[k].request,
                    pool[member].label()
                ));
            }
        }
    }
    // Each member's cold answer is checked independently; spread the
    // members over the workers.
    let members: Vec<(&usize, &Vec<usize>)> = by_member.iter().collect();
    let next = AtomicUsize::new(0);
    let verdicts: Vec<(usize, String)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut errors = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(&member, answers)) = members.get(i) else {
                            break errors;
                        };
                        let cold = &done[answers[0]];
                        let design = &cold.result.as_ref().expect("grouped answers are Ok").design;
                        let request = &requests[cold.request];
                        let verdict = match workload {
                            Workload::Fig2Edit | Workload::SweepBatch => {
                                simulate_matches(&pool[member], request, design)
                            }
                            Workload::JointEdit => joint_matches_exhaustive(request, design),
                        };
                        if let Err(e) = verdict {
                            errors.push((i, e));
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("check worker panicked"))
            .collect()
    });
    for (i, e) in verdicts {
        let (&member, answers) = members[i];
        for &k in answers {
            failed[k] = true;
        }
        messages.push(format!("{}: {e}", pool[member].label()));
    }
    (failed, messages)
}

fn simulate_matches(member: &Member, request: &Request, design: &Design) -> Result<(), String> {
    let unroll = design
        .selected_unroll()
        .ok_or("no design fits the device")?;
    let kernel = parse_kernel(&request.text).map_err(|e| e.to_string())?;
    let ex = Explorer::new(&kernel).engine(Arc::new(EvalEngine::new(WORKERS)));
    let inputs: Vec<(&str, Vec<i64>)> = member
        .inputs()
        .into_iter()
        .map(|(name, data)| (request.renamed(name), data))
        .collect();
    let (ws, _) = ex
        .simulate(unroll, &inputs)
        .map_err(|e| format!("simulate {unroll}: {e}"))?;
    let (output, expected) = member.reference();
    match ws.array(request.renamed(output)) {
        Some(got) if got == expected.as_slice() => Ok(()),
        Some(_) => Err(format!("design {unroll} computes a wrong {output}")),
        None => Err(format!("design {unroll} has no output {output}")),
    }
}

fn joint_matches_exhaustive(request: &Request, design: &Design) -> Result<(), String> {
    let Design::Joint { selected, .. } = design else {
        return Err("not a joint answer".into());
    };
    let kernel = parse_kernel(&request.text).map_err(|e| e.to_string())?;
    let ex = Explorer::new(&kernel)
        .engine(Arc::new(EvalEngine::new(WORKERS)))
        .axes(&Axis::ALL);
    let sweep = ex.joint_sweep().map_err(|e| format!("joint_sweep: {e}"))?;
    if best_joint_performance(&sweep) == selected.as_ref() {
        Ok(())
    } else {
        Err("branch-and-bound selection differs from the exhaustive joint sweep".into())
    }
}
