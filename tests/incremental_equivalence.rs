//! Incremental evaluation must be bit-identical to from-scratch.
//!
//! The prepared path (`PreparedKernel::transform` plus the doubling-chain
//! copy cache) exists purely for throughput: its contract is that every
//! design point yields the *same* `TransformedDesign` — kernel IR,
//! scalar-replacement info and memory binding — as the monolithic
//! [`defacto_xform::transform`] pipeline, and therefore the same
//! behavioral estimate. These tests pin that contract across the full
//! design spaces of the five paper kernels, under every pipeline option
//! the `TransformOptions` struct exposes, and against the reference
//! interpreter for end-to-end semantics. Saturation analysis read off a
//! preparation reused across kernel revisions must likewise equal a fresh
//! analysis of each revision.

use defacto::prelude::*;
use defacto_ir::visit::offset_vars_stmts;
use defacto_ir::{canonicalize, run_with_inputs, Stmt};
use defacto_kernels::{fir, jacobi, matmul, pattern, sobel, workload};
use defacto_synth::{estimate_opts, SynthesisOptions};
use defacto_xform::{transform, PreparedKernel, TransformedDesign};
use proptest::prelude::*;
use std::sync::Arc;

struct Case {
    name: &'static str,
    kernel: Kernel,
    inputs: Vec<(&'static str, Vec<i64>)>,
    output: &'static str,
}

fn paper_cases() -> Vec<Case> {
    vec![
        Case {
            name: "FIR",
            kernel: fir::kernel(),
            inputs: vec![
                ("S", workload::signal(96, 10)),
                ("C", workload::signal(32, 11)),
            ],
            output: "D",
        },
        Case {
            name: "MM",
            kernel: matmul::kernel(),
            inputs: vec![
                ("A", workload::signal(512, 20)),
                ("B", workload::signal(64, 21)),
            ],
            output: "C",
        },
        Case {
            name: "PAT",
            kernel: pattern::kernel(),
            inputs: vec![("S", workload::text(64, 30)), ("P", workload::text(16, 31))],
            output: "M",
        },
        Case {
            name: "JAC",
            kernel: jacobi::kernel(),
            inputs: vec![("A", workload::image(34, 40))],
            output: "B",
        },
        Case {
            name: "SOBEL",
            kernel: sobel::kernel(),
            inputs: vec![("I", workload::image(34, 50))],
            output: "E",
        },
    ]
}

/// The full design space of a kernel, in the explorer's (doubling-chain)
/// iteration order.
fn full_space(kernel: &Kernel) -> Vec<UnrollVector> {
    let (_, space) = Explorer::new(kernel).analyze().expect("analyzable");
    space.iter().collect()
}

/// Revisions of `k` an editor session produces: unchanged, alpha-renamed,
/// declarations reordered, the outermost loop's bounds shifted by +2 with
/// compensated subscripts (all computing the same thing), and the
/// outermost trip count halved (same body, new bounds).
fn revisions(k: &Kernel) -> Vec<(&'static str, Kernel)> {
    let mut arrays = k.arrays().to_vec();
    arrays.reverse();
    let reordered = Kernel::new(k.name(), arrays, k.scalars().to_vec(), k.body().to_vec())
        .expect("reordered declarations stay valid");
    let [Stmt::For(outer)] = k.body() else {
        panic!("{}: paper kernels are perfect nests", k.name());
    };
    let mut shifted = outer.clone();
    shifted.lower += 2;
    shifted.upper += 2;
    shifted.body = offset_vars_stmts(&outer.body, &[(outer.var.as_str(), -2)]);
    let shifted = k
        .with_body(vec![Stmt::For(shifted)])
        .expect("shifted bounds stay valid");
    let mut halved = outer.clone();
    halved.upper = outer.lower + outer.trip_count() / 2;
    let halved = k
        .with_body(vec![Stmt::For(halved)])
        .expect("a shorter outer loop stays valid");
    vec![
        ("unchanged", k.clone()),
        ("alpha-renamed", canonicalize(k).kernel),
        ("decl-reordered", reordered),
        ("bounds-shifted", shifted),
        ("outer-trip-halved", halved),
    ]
}

fn assert_same_design(
    name: &str,
    u: &UnrollVector,
    prepared: &TransformedDesign,
    scratch: &TransformedDesign,
) {
    assert_eq!(
        prepared.kernel, scratch.kernel,
        "{name} {u}: prepared kernel IR diverges from scratch"
    );
    assert_eq!(prepared.info, scratch.info, "{name} {u}: scalar info");
    assert_eq!(prepared.binding, scratch.binding, "{name} {u}: binding");
    assert_eq!(prepared, scratch, "{name} {u}: design");
}

/// Every point of every paper kernel's full space: prepared and scratch
/// designs are equal as IR and produce the identical estimate, and the
/// doubling-chain walk actually reuses cached unrolled bodies.
#[test]
fn full_space_designs_and_estimates_are_bit_identical() {
    let opts = TransformOptions::default();
    let mem = MemoryModel::wildstar_pipelined();
    let device = FpgaDevice::virtex1000();
    let synthesis = SynthesisOptions::default();
    for case in paper_cases() {
        let prep = PreparedKernel::prepare(&case.kernel).expect("prepare");
        let points = full_space(&case.kernel);
        assert!(!points.is_empty(), "{}: empty space", case.name);
        for u in &points {
            let scratch = transform(&case.kernel, u, &opts).expect("scratch");
            let prepared = prep.transform(u, &opts).expect("prepared");
            assert_same_design(case.name, u, &prepared, &scratch);
            let e_scratch = estimate_opts(&scratch, &mem, &device, &synthesis);
            let e_prepared = estimate_opts(&prepared, &mem, &device, &synthesis);
            assert_eq!(
                e_prepared, e_scratch,
                "{} {u}: estimates diverge",
                case.name
            );
        }
        // The space walk is ordered so that factor tuples repeat across
        // points (u shares copies with 2u); the copy cache must see a
        // substantial hit rate, not just occasional luck.
        let (hits, misses) = prep.copy_cache_stats();
        assert!(
            hits + misses > 0,
            "{}: copy cache never consulted",
            case.name
        );
        let rate = hits as f64 / (hits + misses) as f64;
        assert!(
            rate >= 0.5,
            "{}: doubling-chain reuse rate {rate:.3} below 0.5 ({hits} hits / {misses} misses)",
            case.name
        );
    }
}

fn option_variants() -> Vec<(&'static str, TransformOptions)> {
    let base = TransformOptions::default;
    vec![
        ("default", base()),
        (
            "no-scalar-replacement",
            TransformOptions {
                scalar_replacement: false,
                ..base()
            },
        ),
        (
            "no-peel",
            TransformOptions {
                peel: false,
                ..base()
            },
        ),
        (
            "no-redundant-write-elim",
            TransformOptions {
                redundant_write_elim: false,
                ..base()
            },
        ),
        (
            "shared-memory-layout",
            TransformOptions {
                custom_layout: false,
                ..base()
            },
        ),
        (
            "register-budget-8",
            TransformOptions {
                register_budget: Some(8),
                ..base()
            },
        ),
        (
            "verify-each-pass",
            TransformOptions {
                verify_each_pass: true,
                ..base()
            },
        ),
    ]
}

/// An explorer seeded with a preparation reused from the previous
/// revision (as incremental re-exploration does) analyzes every revision
/// of every paper kernel exactly like a from-scratch
/// `saturation_analysis`: same saturation point, preferences and space.
#[test]
fn analysis_from_a_reused_preparation_matches_a_fresh_one() {
    let opts = TransformOptions::default();
    for case in paper_cases() {
        let base = PreparedKernel::prepare(&case.kernel).expect("prepare");
        for (label, revision) in revisions(&case.kernel) {
            let reused = PreparedKernel::prepare_reusing(&revision, &base)
                .unwrap_or_else(|e| panic!("{} [{label}]: prepare_reusing: {e}", case.name));
            let analyzed = Explorer::new(&revision)
                .with_prepared(Arc::new(reused))
                .analyze()
                .unwrap_or_else(|e| panic!("{} [{label}]: reused analysis: {e}", case.name));
            let fresh = saturation_analysis(&revision, &opts, None)
                .unwrap_or_else(|e| panic!("{} [{label}]: fresh analysis: {e}", case.name));
            assert_eq!(analyzed, fresh, "{} [{label}]", case.name);
        }
    }
}

/// Representative points under every pipeline option: the prepared path
/// takes different shortcuts per option (e.g. it never materializes the
/// jammed body unless scalar replacement is off or per-pass verification
/// is on), and each shortcut must stay invisible in the output.
#[test]
fn option_variants_are_bit_identical() {
    for case in paper_cases() {
        let prep = PreparedKernel::prepare(&case.kernel).expect("prepare");
        let points = full_space(&case.kernel);
        // First, middle and last points of the walk: unit factors, a
        // mixed interior point, and the maximal-unroll corner.
        let picks = [0, points.len() / 2, points.len() - 1];
        for (label, opts) in option_variants() {
            for &i in &picks {
                let u = &points[i];
                let scratch = transform(&case.kernel, u, &opts)
                    .unwrap_or_else(|e| panic!("{} {u} [{label}]: scratch: {e}", case.name));
                let prepared = prep
                    .transform(u, &opts)
                    .unwrap_or_else(|e| panic!("{} {u} [{label}]: prepared: {e}", case.name));
                assert_same_design(&format!("{} [{label}]", case.name), u, &prepared, &scratch);
            }
        }
    }
}

/// End-to-end semantics: designs from the prepared path compute the same
/// outputs as the untransformed kernel on concrete inputs.
#[test]
fn prepared_designs_preserve_interpreter_semantics() {
    let opts = TransformOptions::default();
    for case in paper_cases() {
        let inputs: Vec<(&str, Vec<i64>)> =
            case.inputs.iter().map(|(n, v)| (*n, v.clone())).collect();
        let (w0, _) = run_with_inputs(&case.kernel, &inputs).expect("original runs");
        let prep = PreparedKernel::prepare(&case.kernel).expect("prepare");
        let points = full_space(&case.kernel);
        for &i in &[0, points.len() / 2, points.len() - 1] {
            let u = &points[i];
            let design = prep.transform(u, &opts).expect("prepared");
            let (w1, _) = run_with_inputs(&design.kernel, &inputs).expect("design runs");
            assert_eq!(
                w0.array(case.output),
                w1.array(case.output),
                "{} {u}: output `{}` diverges after prepared transform",
                case.name,
                case.output
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random (kernel, point, option) triples: the prepared design is
    /// the scratch design.
    #[test]
    fn prop_prepared_matches_scratch(
        kernel_idx in 0usize..5,
        point_sel in 0usize..1usize << 16,
        variant_idx in 0usize..7,
    ) {
        let case = &paper_cases()[kernel_idx];
        let (label, opts) = &option_variants()[variant_idx];
        let points = full_space(&case.kernel);
        let u = &points[point_sel % points.len()];
        let prep = PreparedKernel::prepare(&case.kernel).expect("prepare");
        let scratch = transform(&case.kernel, u, opts).expect("scratch");
        let prepared = prep.transform(u, opts).expect("prepared");
        prop_assert_eq!(
            &prepared,
            &scratch,
            "{} {} [{}]: prepared != scratch",
            case.name,
            u,
            label
        );
    }
}
