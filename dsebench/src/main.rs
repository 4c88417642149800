//! Request-level design-space-exploration benchmark.
//!
//! A single-process, closed-loop client (one request in flight) sends a
//! seeded stream of kernel revisions to the library's public entry
//! points and times each answer: parse, a fresh `Explorer` with a fresh
//! two-worker `EvalEngine`, then the workload's call.
//!
//! ```text
//! cargo run --release --manifest-path dsebench/Cargo.toml -- \
//!     --workload fig2-edit --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: end-to-end metrics with
//! `--trace 0`, per-layer metrics from a traced replay with `--trace 1`.
//! See README.md for the workloads and metrics.

mod answer;
mod check;
mod replay;
mod stream;

use answer::{answer, Answer, Counts};
use defacto::cache::PersistentCache;
use replay::Tracer;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stream::{Family, Member, Stream};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig2Edit,
    SweepBatch,
    JointEdit,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Fig2Edit,
        Workload::SweepBatch,
        Workload::JointEdit,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Fig2Edit => "fig2-edit",
            Workload::SweepBatch => "sweep-batch",
            Workload::JointEdit => "joint-edit",
        }
    }

    /// Mixed into the seed so workloads draw different pools.
    fn salt(self) -> u64 {
        match self {
            Workload::Fig2Edit => 0x0f19_2ed1,
            Workload::SweepBatch => 0x05ee_9ba7,
            Workload::JointEdit => 0x0301_47ed,
        }
    }

    /// Pool members and requests generated up front. The requests
    /// outnumber what a run at the expected answer rate issues; the pool
    /// is as large as the grids allow, up to four requests per member.
    fn stream_size(self) -> (usize, usize) {
        match self {
            Workload::Fig2Edit => (6000, 24000),
            Workload::SweepBatch | Workload::JointEdit => (1000, 3000),
        }
    }
}

/// A run needs at least this many answers, so that at least ten samples
/// lie beyond p90; the traced run re-issues this many requests.
const MIN_ANSWERS: usize = 100;
/// Set-up is repeated this many times and its median reported.
const SETUP_REPEATS: usize = 9;
/// Everything the benchmark writes lives under this directory of the
/// working directory.
const RUN_ROOT: &str = ".bench_run";

pub struct Done {
    pub request: usize,
    pub latency: Duration,
    pub result: Result<Answer, String>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A directory removed when dropped: one per run, holding its store.
struct RunDir(PathBuf);

impl RunDir {
    fn create(tag: &str) -> std::io::Result<RunDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = Path::new(RUN_ROOT).join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    fn store(&self, name: &str) -> std::io::Result<Arc<PersistentCache>> {
        PersistentCache::open(&self.0.join(name)).map(Arc::new)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Setup {
    stream: Stream,
    store: Arc<PersistentCache>,
    // Dropped after the store it holds.
    _dir: RunDir,
}

/// Kernels answered during set-up to fault in code and allocator state.
/// Every size lies below every workload's grid, so warm-up never
/// answers a pool member.
fn warmup_members() -> Vec<Member> {
    let m = |family, dims: &[usize]| Member {
        family,
        dims: dims.to_vec(),
    };
    vec![
        m(Family::Fir, &[8, 4]),
        m(Family::Mm, &[4, 4, 2]),
        m(Family::Pat, &[12, 4]),
        m(Family::Jac, &[6]),
        m(Family::Sobel, &[5]),
    ]
}

fn setup(workload: Workload, seed: u64) -> Result<Setup, String> {
    let (members, requests) = workload.stream_size();
    let stream = Stream::generate(workload, seed, members, requests);
    let dir = RunDir::create("run").map_err(|e| format!("run dir: {e}"))?;
    let store = dir.store("store").map_err(|e| format!("store: {e}"))?;
    for m in warmup_members() {
        answer(workload, &m.source(), &store).map_err(|e| format!("warm-up {}: {e}", m.label()))?;
    }
    Ok(Setup {
        stream,
        store,
        _dir: dir,
    })
}

/// Answer requests in stream order until `seconds` have passed and at
/// least [`MIN_ANSWERS`] were attempted. Returns the attempts and the
/// loop's wall time.
fn timed_loop(workload: Workload, setup: &Setup, seconds: u64) -> (Vec<Done>, Duration) {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut done: Vec<Done> = Vec::new();
    for (request, r) in setup.stream.requests.iter().enumerate() {
        if done.len() >= MIN_ANSWERS && start.elapsed() >= budget {
            break;
        }
        let t0 = Instant::now();
        let result = answer(workload, &r.text, &setup.store);
        let latency = t0.elapsed();
        done.push(Done {
            request,
            latency,
            result,
        });
    }
    let wall = start.elapsed();
    if wall < budget {
        eprintln!("warning: the stream ran out after {wall:?}");
    }
    (done, wall)
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Self-check of the deterministic counters: a member's first answer in
/// a run must miss the store (nothing leaked in from an earlier run),
/// and all its later answers must repeat the same counters.
fn counters_repeat(setup: &Setup, done: &[Done]) -> Result<(), String> {
    let mut first: std::collections::HashMap<usize, Counts> = Default::default();
    let mut later: std::collections::HashMap<usize, Counts> = Default::default();
    for d in done {
        let Ok(a) = &d.result else { continue };
        let member = setup.stream.requests[d.request].member;
        if let Some(cold) = first.get(&member) {
            let warm = later.entry(member).or_insert(a.counts);
            if *warm != a.counts {
                return Err(format!(
                    "request {}: counters {:?} differ from an earlier repeat {:?} (cold {:?})",
                    d.request, a.counts, warm, cold
                ));
            }
        } else {
            if a.counts.persist_hits != 0 {
                return Err(format!(
                    "request {}: the first answer of a member hit the store",
                    d.request
                ));
            }
            first.insert(member, a.counts);
        }
    }
    Ok(())
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsebench: {e}");
            eprintln!(
                "usage: dsebench --workload fig2-edit|sweep-batch|joint-edit --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let code = match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("dsebench: {e}");
            1
        }
    };
    // Nothing else is left in the run root after a run without spans.
    let _ = std::fs::remove_dir(RUN_ROOT);
    std::process::exit(code);
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    // Set-up, repeated; the last one serves the run.
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let t = Instant::now();
        let s = setup(workload, args.seed)?;
        setup_secs.push(t.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let setup = kept.expect("set-up ran");
    let setup_s = median(&mut setup_secs);

    let (done, wall) = timed_loop(workload, &setup, args.seconds);
    let rss = peak_rss_mb();
    counters_repeat(&setup, &done)?;

    let check_started = Instant::now();
    let (failed, messages) =
        check::check(workload, &setup.stream.pool, &setup.stream.requests, &done);
    eprintln!(
        "correctness check took {:.2} s",
        check_started.elapsed().as_secs_f64()
    );
    for m in messages.iter().take(10) {
        eprintln!("check failed: {m}");
    }
    let attempted = done.len();
    let n_failed = failed.iter().filter(|&&f| f).count();
    let completed = done.iter().filter(|d| d.result.is_ok()).count();
    let mut latencies: Vec<f64> = done
        .iter()
        .map(|d| match d.result {
            Ok(_) => ms(d.latency),
            // A failed request misses any latency limit.
            Err(_) => f64::INFINITY,
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    let members = done
        .iter()
        .map(|d| setup.stream.requests[d.request].member)
        .collect::<std::collections::HashSet<_>>()
        .len();
    eprintln!(
        "{attempted} answers ({members} distinct kernels) in {:.2} s; set-up median {:.4} s",
        wall.as_secs_f64(),
        setup_s
    );

    let metrics = if args.trace {
        traced_run(args, &setup, &done)?
    } else {
        vec![
            Metric {
                name: "answer_ms_p50",
                value: percentile(&latencies, 0.50),
                unit: "ms",
            },
            Metric {
                name: "answer_ms_p90",
                value: percentile(&latencies, 0.90),
                unit: "ms",
            },
            Metric {
                name: "answers_per_s",
                value: completed as f64 / wall.as_secs_f64(),
                unit: "1/s",
            },
            Metric {
                name: "ok_frac",
                value: 1.0 - n_failed as f64 / attempted as f64,
                unit: "ratio",
            },
            Metric {
                name: "peak_rss_mb",
                value: rss,
                unit: "MiB",
            },
            Metric {
                name: "setup_s",
                value: setup_s,
                unit: "s",
            },
        ]
    };
    drop(setup);

    for m in &metrics {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {n_failed}, \"metrics\": {{{}}}}}",
        n_failed == 0,
        body.join(", ")
    );
    Ok(())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Re-issue the first [`MIN_ANSWERS`] requests against a fresh store,
/// replaying each answer's layer calls outside its timing, and derive
/// the per-layer metrics from the spans.
fn traced_run(args: &Args, setup: &Setup, untraced: &[Done]) -> Result<Vec<Metric>, String> {
    let workload = args.workload;
    let dir = RunDir::create("traced").map_err(|e| format!("run dir: {e}"))?;
    let store = dir.store("store").map_err(|e| format!("store: {e}"))?;
    let scratch = dir.store("replay").map_err(|e| format!("store: {e}"))?;
    for m in warmup_members() {
        answer(workload, &m.source(), &store).map_err(|e| format!("warm-up {}: {e}", m.label()))?;
    }
    let k = untraced.len().min(MIN_ANSWERS);
    let mut tracer = Tracer::new();
    let mut traced: Vec<Done> = Vec::with_capacity(k);
    for d in &untraced[..k] {
        let text = &setup.stream.requests[d.request].text;
        let t0 = Instant::now();
        let result = answer(workload, text, &store);
        let t1 = Instant::now();
        let span = tracer.record("answer", d.request as u32, None, t0, t1);
        if let Ok(a) = &result {
            tracer.replay(workload, d.request as u32, span, text, a, &store, &scratch);
        }
        traced.push(Done {
            request: d.request,
            latency: t1 - t0,
            result,
        });
    }

    // The traced run must reproduce the untraced run's counters and
    // designs request by request: a difference means state leaked.
    for (a, b) in untraced[..k].iter().zip(&traced) {
        match (&a.result, &b.result) {
            (Ok(x), Ok(y)) if x.counts == y.counts && x.design == y.design => {}
            (Err(_), Err(_)) => {}
            _ => {
                return Err(format!(
                    "request {}: the traced run's counters or design differ from the untraced run",
                    a.request
                ))
            }
        }
    }

    let spans = Path::new(RUN_ROOT).join("spans").join(format!(
        "{}-seed{}.jsonl",
        workload.name(),
        args.seed
    ));
    tracer
        .write(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    eprintln!(
        "{} spans written to {}",
        tracer.spans.len(),
        spans.display()
    );

    let n = k as f64;
    let answered = |ds: &[Done]| -> (f64, f64) {
        let ok = ds.iter().filter(|d| d.result.is_ok()).count() as f64;
        let secs: f64 = ds.iter().map(|d| d.latency.as_secs_f64()).sum();
        (ok, secs)
    };
    let (ok_u, secs_u) = answered(&untraced[..k]);
    let (ok_t, secs_t) = answered(&traced);
    let aps_untraced = ratio(ok_u, secs_u);
    let aps_traced = ratio(ok_t, secs_t);

    let counts: Vec<Counts> = traced
        .iter()
        .filter_map(|d| d.result.as_ref().ok().map(|a| a.counts))
        .collect();
    let sum = |f: fn(&Counts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    // Prefetch waste is measured on cold Figure-2 answers only.
    let (cold_visited, cold_evals) = if workload == Workload::Fig2Edit {
        counts
            .iter()
            .filter(|c| c.tier1_evals > 0)
            .fold((0.0, 0.0), |(v, e), c| {
                (v + c.visited as f64, e + c.tier1_evals as f64)
            })
    } else {
        (0.0, 0.0)
    };
    // Worker busy fraction: eval_wall / (wall × workers), summed.
    let (eval_wall, worker_wall) = traced.iter().filter_map(|d| d.result.as_ref().ok()).fold(
        (Duration::ZERO, Duration::ZERO),
        |(e, w), a| {
            (
                e + a.stats.eval_wall,
                w + a.stats.wall * a.stats.workers as u32,
            )
        },
    );
    let answer_total: Duration = traced.iter().map(|d| d.latency).sum();
    let per = |name: &str| ms(tracer.total(name).0) / n;
    let calls = |name: &str| tracer.total(name).1 as f64 / n;
    let lookups = sum(|c| c.persist_hits + c.persist_misses);

    Ok(vec![
        Metric {
            name: "ir.parse_ms",
            value: per("ir.parse"),
            unit: "ms",
        },
        Metric {
            name: "ir.canon_ms",
            value: per("ir.canon"),
            unit: "ms",
        },
        Metric {
            name: "analysis.saturation_ms",
            value: per("analysis.saturation"),
            unit: "ms",
        },
        Metric {
            name: "analysis.space_points",
            value: sum(|c| c.space_points) / n,
            unit: "count",
        },
        Metric {
            name: "xform.prepare_ms",
            value: per("xform.prepare"),
            unit: "ms",
        },
        Metric {
            name: "xform.transform_ms",
            value: per("xform.transform"),
            unit: "ms",
        },
        Metric {
            name: "xform.transform_calls",
            value: calls("xform.transform"),
            unit: "count",
        },
        Metric {
            name: "xform.copy_reuse_ratio",
            value: ratio(
                tracer.copy_hits as f64,
                (tracer.copy_hits + tracer.copy_misses) as f64,
            ),
            unit: "ratio",
        },
        Metric {
            name: "synth.estimate_ms",
            value: per("synth.estimate"),
            unit: "ms",
        },
        Metric {
            name: "synth.over_capacity_share",
            value: ratio(
                tracer.over_capacity.as_secs_f64(),
                tracer.priced.as_secs_f64(),
            ),
            unit: "ratio",
        },
        Metric {
            name: "synth.band_ms",
            value: per("synth.band"),
            unit: "ms",
        },
        Metric {
            name: "synth.band_calls",
            value: calls("synth.band"),
            unit: "count",
        },
        Metric {
            name: "cache.lookup_ms",
            value: per("cache.lookup"),
            unit: "ms",
        },
        Metric {
            name: "cache.lookups",
            value: calls("cache.lookup"),
            unit: "count",
        },
        Metric {
            name: "cache.write_ms",
            value: per("cache.write"),
            unit: "ms",
        },
        Metric {
            name: "cache.hit_ratio",
            value: ratio(sum(|c| c.persist_hits), lookups),
            unit: "ratio",
        },
        Metric {
            name: "core.tier1_evals",
            value: sum(|c| c.tier1_evals) / n,
            unit: "count",
        },
        Metric {
            name: "core.useful_eval_ratio",
            value: ratio(cold_visited, cold_evals),
            unit: "ratio",
        },
        Metric {
            name: "core.memo_hits",
            value: sum(|c| c.memo_hits) / n,
            unit: "count",
        },
        Metric {
            name: "core.worker_busy_frac",
            value: ratio(eval_wall.as_secs_f64(), worker_wall.as_secs_f64()),
            unit: "ratio",
        },
        Metric {
            name: "core.self_ms",
            value: (ms(answer_total) - ms(tracer.layer_busy())) / n,
            unit: "ms",
        },
        Metric {
            name: "strategy.pruned_ratio",
            value: ratio(sum(|c| c.pruned), sum(|c| c.space_points)),
            unit: "ratio",
        },
        Metric {
            name: "strategy.visited_ratio",
            value: ratio(sum(|c| c.visited), sum(|c| c.space_points)),
            unit: "ratio",
        },
        Metric {
            name: "trace.overhead_frac",
            value: ratio(aps_untraced - aps_traced, aps_untraced),
            unit: "ratio",
        },
    ])
}
