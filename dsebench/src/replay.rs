//! The traced run's per-layer replay.
//!
//! After a request's answer has been timed, the calls that answer made
//! into each layer's public functions are issued again, one by one, each
//! timed as a span. Spans are kept in memory and written out at exit.
//! The replay never runs inside an answer's timing, so end-to-end
//! figures stay untraced.

use crate::answer::{Answer, Design};
use crate::Workload;
use defacto::cache::PersistentCache;
use defacto::ir::{canonicalize, content_hash, parse_kernel};
use defacto::synth::{
    estimate_opts, FpgaDevice, JointAnalyticModel, MemoryModel, SynthesisOptions,
};
use defacto::xform::{transform, PreparedKernel, UnrollVector, VariantCache, VariantKey};
use defacto::{doubling_frontier, saturation_analysis, Axis, Explorer, JointPoint};
use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub request: u32,
    pub parent: Option<u32>,
}

/// Span recorder plus the per-layer counts measured at the same
/// boundaries.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Transform + estimate time on points that do not fit the device,
    /// and on all points.
    pub over_capacity: Duration,
    pub priced: Duration,
    /// Offset-copy cache `(hits, misses)` of the replayed preparations.
    pub copy_hits: u64,
    pub copy_misses: u64,
    /// The explorer's default platform, which every answer runs on.
    mem: MemoryModel,
    dev: FpgaDevice,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            over_capacity: Duration::ZERO,
            priced: Duration::ZERO,
            copy_hits: 0,
            copy_misses: 0,
            mem: MemoryModel::wildstar_pipelined(),
            dev: FpgaDevice::virtex1000(),
        }
    }

    /// Record an already-timed interval.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            start: start - self.origin,
            end: end - self.origin,
            request,
            parent,
        });
        id
    }

    fn time<R>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        let end = Instant::now();
        self.record(name, request, Some(parent), start, end);
        (r, end - start)
    }

    /// Total duration and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (Duration, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((Duration::ZERO, 0), |(d, n), s| {
                (d + (s.end - s.start), n + 1)
            })
    }

    /// Total duration of every layer span (named `layer.call`).
    pub fn layer_busy(&self) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name.contains('.'))
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"request\":{},\"parent\":{}}}",
                s.id,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.request,
                parent
            )?;
        }
        out.flush()
    }

    /// Replay one answered request's layer calls under a `replay` span
    /// whose parent is the request's `answer` span. `store` is the run's
    /// store (lookups only); `scratch` takes the replayed writes so the
    /// run's store is left as the answer left it.
    #[allow(clippy::too_many_arguments)]
    pub fn replay(
        &mut self,
        workload: Workload,
        request: u32,
        answer_span: u32,
        text: &str,
        answer: &Answer,
        store: &PersistentCache,
        scratch: &PersistentCache,
    ) {
        let start = Instant::now();
        let root = self.record("replay", request, Some(answer_span), start, start);
        self.replay_calls(workload, request, root, text, answer, store, scratch);
        self.spans[root as usize].end = Instant::now() - self.origin;
    }

    #[allow(clippy::too_many_arguments)]
    fn replay_calls(
        &mut self,
        workload: Workload,
        request: u32,
        root: u32,
        text: &str,
        answer: &Answer,
        store: &PersistentCache,
        scratch: &PersistentCache,
    ) {
        let (kernel, _) = self.time("ir.parse", request, root, || parse_kernel(text));
        let Ok(kernel) = kernel else { return };
        let ex = Explorer::new(&kernel);
        let opts = ex.transform_options().clone();
        let sopts = SynthesisOptions::default();
        match (workload, &answer.design) {
            (Workload::Fig2Edit, Design::Fig2 { visited, .. }) => {
                // Explorer::explore: canonical hash for the store key,
                // saturation analysis, the frontier prefetch and search
                // over the store, then the persisted selection.
                self.time("ir.canon", request, root, || content_hash(&kernel));
                let (analysis, _) = self.time("analysis.saturation", request, root, || {
                    saturation_analysis(&kernel, &opts, None)
                });
                let Ok((sat, space)) = analysis else { return };
                let (prepared, _) = self.time("xform.prepare", request, root, || {
                    PreparedKernel::prepare(&kernel)
                });
                let mut points: Vec<UnrollVector> = Vec::new();
                let frontier = doubling_frontier(&space, &sat);
                for u in frontier.iter().chain(visited.iter().map(|d| &d.unroll)) {
                    if !points.contains(u) {
                        points.push(u.clone());
                    }
                }
                let key = ex.persist_key();
                for u in &points {
                    self.time("cache.lookup", request, root, || {
                        store.lookup_estimate(key, u.factors())
                    });
                }
                let cold = answer.counts.tier1_evals > 0;
                let mut fresh = Vec::new();
                if let (true, Ok(prepared)) = (cold, &prepared) {
                    for u in &points {
                        if let Some(e) =
                            self.price(request, root, u, |u| prepared.transform(u, &opts), &sopts)
                        {
                            fresh.push((u.clone(), e));
                        }
                    }
                    let (h, m) = prepared.copy_cache_stats();
                    self.copy_hits += h;
                    self.copy_misses += m;
                }
                self.time("ir.canon", request, root, || canonicalize(&kernel));
                let _ = self.time("cache.write", request, root, || {
                    for (u, e) in &fresh {
                        scratch.insert_estimate(key, u.factors(), e);
                    }
                    scratch.flush()
                });
            }
            (Workload::SweepBatch, Design::Sweep { .. }) => {
                let (analysis, _) = self.time("analysis.saturation", request, root, || {
                    saturation_analysis(&kernel, &opts, None)
                });
                let Ok((_, space)) = analysis else { return };
                let (prepared, _) = self.time("xform.prepare", request, root, || {
                    PreparedKernel::prepare(&kernel)
                });
                let Ok(prepared) = prepared else { return };
                for u in space.iter() {
                    self.price(request, root, &u, |u| prepared.transform(u, &opts), &sopts);
                }
                let (h, m) = prepared.copy_cache_stats();
                self.copy_hits += h;
                self.copy_misses += m;
            }
            (Workload::JointEdit, Design::Joint { evaluated, .. }) => {
                // Explorer::joint_explore analyses the nest twice (space and
                // seed), prepares the kernel and every variant the tier-0
                // pass prices, then evaluates the strategy's points.
                for _ in 0..2 {
                    let _ = self.time("analysis.saturation", request, root, || {
                        saturation_analysis(&kernel, &opts, None)
                    });
                }
                let ex = ex.axes(&Axis::ALL);
                let Ok(space) = ex.joint_space() else { return };
                let (variants, _) = self.time("xform.prepare", request, root, || {
                    let _ = PreparedKernel::prepare(&kernel);
                    VariantCache::new(&kernel).map(Arc::new)
                });
                let Ok(variants) = variants else { return };
                let keys: BTreeSet<VariantKey> = space
                    .joint_points()
                    .iter()
                    .map(|p| (p.permutation.clone(), p.tile))
                    .collect();
                for (perm, tile) in &keys {
                    let _ = self.time("xform.prepare", request, root, || variants.get(perm, *tile));
                }
                let model = JointAnalyticModel::new(
                    Arc::clone(&variants),
                    self.mem.clone(),
                    self.dev.clone(),
                    opts.clone(),
                    sopts.clone(),
                );
                if let Some(model) = model {
                    for p in space.joint_points() {
                        let u = joint_unroll(p);
                        self.time("synth.band", request, root, || {
                            model.band(&p.permutation, p.tile, p.narrow, p.pack, &u)
                        });
                    }
                }
                for d in evaluated {
                    let p = &d.point;
                    let Ok(variant) = variants.get(&p.permutation, p.tile) else {
                        continue;
                    };
                    let mut flagged = sopts.clone();
                    flagged.bitwidth_narrowing |= p.narrow;
                    flagged.pack_small_types |= p.pack;
                    self.price(
                        request,
                        root,
                        &joint_unroll(p),
                        |u| match &variant.prepared {
                            Some(prepared) => prepared.transform(u, &opts),
                            None => transform(&variant.kernel, u, &opts),
                        },
                        &flagged,
                    );
                }
                for (perm, tile) in &keys {
                    if let Ok(v) = variants.get(perm, *tile) {
                        if let Some(prepared) = &v.prepared {
                            let (h, m) = prepared.copy_cache_stats();
                            self.copy_hits += h;
                            self.copy_misses += m;
                        }
                    }
                }
            }
            _ => unreachable!("an answer always matches its workload"),
        }
    }

    /// Transform and estimate one point, each as its own span; returns the
    /// estimate when the transform succeeds.
    fn price(
        &mut self,
        request: u32,
        root: u32,
        u: &UnrollVector,
        xform: impl FnOnce(&UnrollVector) -> defacto::xform::Result<defacto::xform::TransformedDesign>,
        sopts: &SynthesisOptions,
    ) -> Option<defacto::synth::Estimate> {
        let (design, t_xform) = self.time("xform.transform", request, root, || xform(u));
        let design = design.ok()?;
        let (mem, dev) = (self.mem.clone(), self.dev.clone());
        let (estimate, t_est) = self.time("synth.estimate", request, root, || {
            estimate_opts(&design, &mem, &dev, sopts)
        });
        self.priced += t_xform + t_est;
        if !estimate.fits {
            self.over_capacity += t_xform + t_est;
        }
        Some(estimate)
    }
}

/// The unroll vector a joint point's variant is transformed with:
/// register tiling deepens the nest by one and is enumerated at all-ones
/// unroll (mirrors the explorer's joint evaluator).
fn joint_unroll(p: &JointPoint) -> UnrollVector {
    match p.tile {
        Some(_) => UnrollVector::ones(p.unroll.len() + 1),
        None => UnrollVector(p.unroll.clone()),
    }
}
