//! Seeded request streams.
//!
//! A *pool* holds distinct kernels drawn from the five paper families
//! (`defacto_kernels::{fir,matmul,pattern,jacobi,sobel}::source_sized`)
//! at seeded sizes on per-workload grids. A *request* is the source
//! text of one pool member after a seeded alpha-rename and declaration
//! reorder, so the program never sees the same text twice while the
//! canonical identity of the kernel repeats.

use crate::Workload;
use defacto_kernels::{fir, jacobi, matmul, pattern, sobel, workload};
use std::collections::VecDeque;

/// SplitMix64: the same generator `defacto_kernels::workload` uses.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    Fir,
    Mm,
    Pat,
    Jac,
    Sobel,
}

impl Family {
    pub const ALL: [Family; 5] = [
        Family::Fir,
        Family::Mm,
        Family::Pat,
        Family::Jac,
        Family::Sobel,
    ];

    /// Each size parameter's values as `(lo, hi, step)`, in `source_sized`
    /// order. The paper's sizes are FIR 64×32, MM 32×16×4, PAT 64×16,
    /// JAC 34 and SOBEL 34. Sweeps and joint searches price every point
    /// or every variant, so their grids are smaller and coarser: unbounded
    /// sizes make one answer take seconds, and a coarse grid is nearly
    /// covered by every run, so pools drawn with different seeds cost
    /// alike.
    fn grid(self, workload: Workload) -> &'static [(usize, usize, usize)] {
        use Family::*;
        use Workload::*;
        match (workload, self) {
            (Fig2Edit, Fir) => &[(32, 96, 1), (16, 48, 1)],
            (Fig2Edit, Mm) => &[(16, 48, 1), (8, 24, 1), (2, 8, 1)],
            (Fig2Edit, Pat) => &[(48, 96, 1), (8, 24, 1)],
            (Fig2Edit, Jac | Sobel) => &[(18, 50, 1)],
            (SweepBatch, Fir) => &[(32, 64, 8), (16, 32, 8)],
            (SweepBatch, Mm) => &[(16, 48, 16), (8, 24, 8), (2, 8, 3)],
            (SweepBatch, Pat) => &[(48, 96, 16), (8, 24, 8)],
            (SweepBatch, Jac) => &[(14, 30, 2)],
            (SweepBatch, Sobel) => &[(12, 24, 2)],
            (JointEdit, Fir) => &[(16, 64, 16), (8, 32, 12)],
            (JointEdit, Mm) => &[(8, 32, 12), (4, 16, 6), (2, 4, 2)],
            (JointEdit, Pat) => &[(24, 56, 16), (4, 16, 6)],
            (JointEdit, Jac) => &[(8, 16, 1)],
            (JointEdit, Sobel) => &[(6, 11, 1)],
        }
    }

    /// Every size on the grid, in `source_sized` parameter order.
    fn sizes(self, workload: Workload) -> Vec<Vec<usize>> {
        let mut sizes = vec![Vec::new()];
        for &(lo, hi, step) in self.grid(workload) {
            sizes = sizes
                .into_iter()
                .flat_map(|prefix| {
                    (lo..=hi).step_by(step).map(move |v| {
                        let mut dims = prefix.clone();
                        dims.push(v);
                        dims
                    })
                })
                .collect();
        }
        sizes
    }

    /// Names a rewrite renames: the kernel, its arrays and scalars, and
    /// its loop variables.
    fn names(self) -> &'static [&'static str] {
        match self {
            Family::Fir => &["fir", "S", "C", "D", "j", "i"],
            Family::Mm => &["mm", "A", "B", "C", "i", "j", "k"],
            Family::Pat => &["pat", "S", "P", "M", "j", "i"],
            Family::Jac => &["jac", "A", "B", "i", "j"],
            Family::Sobel => &["sobel", "I", "E", "gx", "gy", "mag", "i", "j"],
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Family::Fir => "fir",
            Family::Mm => "mm",
            Family::Pat => "pat",
            Family::Jac => "jac",
            Family::Sobel => "sobel",
        }
    }
}

/// One distinct kernel: a family at one size.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Member {
    pub family: Family,
    pub dims: Vec<usize>,
}

/// Inputs seeding the correctness check's interpreter runs.
const INPUT_SEED: u64 = 0x5eed;

impl Member {
    pub fn source(&self) -> String {
        let d = &self.dims;
        match self.family {
            Family::Fir => fir::source_sized(d[0], d[1]),
            Family::Mm => matmul::source_sized(d[0], d[1], d[2]),
            Family::Pat => pattern::source_sized(d[0], d[1]),
            Family::Jac => jacobi::source_sized(d[0]),
            Family::Sobel => sobel::source_sized(d[0]),
        }
    }

    pub fn label(&self) -> String {
        let dims: Vec<String> = self.dims.iter().map(usize::to_string).collect();
        format!("{} {}", self.family.label(), dims.join("x"))
    }

    /// The family's input arrays (original names) filled from
    /// `defacto_kernels::workload`.
    pub fn inputs(&self) -> Vec<(&'static str, Vec<i64>)> {
        let d = &self.dims;
        let s = INPUT_SEED;
        match self.family {
            Family::Fir => vec![
                ("S", workload::signal(d[0] + d[1], s)),
                ("C", workload::signal(d[1], s + 1)),
            ],
            Family::Mm => vec![
                ("A", workload::signal(d[0] * d[1], s)),
                ("B", workload::signal(d[1] * d[2], s + 1)),
            ],
            Family::Pat => vec![
                ("S", workload::text(d[0], s)),
                ("P", workload::text(d[1], s + 1)),
            ],
            Family::Jac => vec![("A", workload::image(d[0], s))],
            Family::Sobel => vec![("I", workload::image(d[0], s))],
        }
    }

    /// The output array (original name) and the family's plain-Rust
    /// reference result for [`Member::inputs`].
    pub fn reference(&self) -> (&'static str, Vec<i64>) {
        let d = &self.dims;
        let inputs = self.inputs();
        let arg = |k: usize| inputs[k].1.as_slice();
        match self.family {
            Family::Fir => ("D", fir::reference(arg(0), arg(1))),
            Family::Mm => ("C", matmul::reference(arg(0), arg(1), d[0], d[1], d[2])),
            Family::Pat => ("M", pattern::reference(arg(0), arg(1))),
            Family::Jac => ("B", jacobi::reference(arg(0), d[0])),
            Family::Sobel => ("E", sobel::reference(arg(0), d[0])),
        }
    }
}

/// One request: the rewritten text of a pool member.
pub struct Request {
    pub member: usize,
    pub text: String,
    /// Original name → the name this request's text uses.
    pub renames: Vec<(&'static str, String)>,
}

impl Request {
    pub fn renamed<'a>(&'a self, original: &'a str) -> &'a str {
        self.renames
            .iter()
            .find(|(o, _)| *o == original)
            .map_or(original, |(_, n)| n.as_str())
    }
}

pub struct Stream {
    pub pool: Vec<Member>,
    pub requests: Vec<Request>,
}

/// Members are introduced in blocks of this many; the block's requests
/// are each member four times (its first answer cold, three repeats) in
/// seeded order, so three in four requests repeat an answered member.
const BLOCK: usize = 4;
const REQUESTS_PER_MEMBER: usize = 4;

impl Stream {
    /// Up to `members` distinct kernels, drawn round-robin over the
    /// families in seeded order (a family whose grid is used up drops
    /// out), and four requests for each. When `requests` exceeds what one
    /// pass over the pool gives, further passes revisit the whole pool in
    /// a new seeded order with fresh rewrites.
    pub fn generate(workload: Workload, seed: u64, members: usize, requests: usize) -> Stream {
        let mut rng = Rng::new(seed ^ workload.salt());
        let pool = draw_pool(workload, members, &mut rng);
        let mut order: Vec<usize> = (0..pool.len()).collect();
        let mut stream = Vec::with_capacity(requests);
        while stream.len() < requests {
            for block in order.chunks(BLOCK) {
                let mut slots: Vec<usize> = block
                    .iter()
                    .flat_map(|&m| std::iter::repeat_n(m, REQUESTS_PER_MEMBER))
                    .collect();
                rng.shuffle(&mut slots);
                for member in slots {
                    stream.push(rewrite(&pool[member], member, &mut rng));
                }
            }
            rng.shuffle(&mut order);
        }
        Stream {
            pool,
            requests: stream,
        }
    }
}

fn draw_pool(workload: Workload, members: usize, rng: &mut Rng) -> Vec<Member> {
    let mut families = Family::ALL.to_vec();
    rng.shuffle(&mut families);
    let mut queues: Vec<(Family, VecDeque<Vec<usize>>)> = families
        .into_iter()
        .map(|f| (f, stratified(f.sizes(workload), rng)))
        .collect();
    let mut pool = Vec::with_capacity(members);
    while pool.len() < members && queues.iter().any(|(_, q)| !q.is_empty()) {
        for (family, queue) in &mut queues {
            if pool.len() < members {
                if let Some(dims) = queue.pop_front() {
                    pool.push(Member {
                        family: *family,
                        dims,
                    });
                }
            }
        }
    }
    pool
}

/// Size strata a family's draw cycles through.
const STRATA: usize = 3;

/// A seeded order of `sizes` in which every run of [`STRATA`] draws takes
/// one size from each third of the family's work range (smallest to
/// largest iteration space), so any prefix of the pool, and therefore a
/// run of any length, mixes small and large kernels alike.
fn stratified(mut sizes: Vec<Vec<usize>>, rng: &mut Rng) -> VecDeque<Vec<usize>> {
    sizes.sort_by_key(|d| (d.iter().product::<usize>(), d.clone()));
    let per = sizes.len().div_ceil(STRATA);
    let mut strata: Vec<Vec<Vec<usize>>> = sizes.chunks(per).map(<[_]>::to_vec).collect();
    for s in &mut strata {
        rng.shuffle(s);
    }
    let mut order = VecDeque::with_capacity(sizes.len());
    while strata.iter().any(|s| !s.is_empty()) {
        let mut visit: Vec<usize> = (0..strata.len()).collect();
        rng.shuffle(&mut visit);
        for k in visit {
            if let Some(d) = strata[k].pop() {
                order.push_back(d);
            }
        }
    }
    order
}

/// Seeded alpha-rename plus declaration reorder of a member's source.
fn rewrite(member: &Member, index: usize, rng: &mut Rng) -> Request {
    let source = member.source();
    let renames: Vec<(&'static str, String)> = member
        .family
        .names()
        .iter()
        .enumerate()
        .map(|(k, &name)| {
            (
                name,
                format!("{}{k}_{:x}", prefix(rng), rng.next_u64() >> 40),
            )
        })
        .collect();
    // The declarations sit between the kernel header's `{` and the first
    // loop; reorder them as whole statements.
    let open = source.find('{').expect("kernel header") + 1;
    let body = source.find("for ").expect("kernel has a loop");
    let mut decls: Vec<&str> = source[open..body]
        .split(';')
        .map(str::trim)
        .filter(|d| !d.is_empty())
        .collect();
    rng.shuffle(&mut decls);
    let mut text = String::with_capacity(source.len() + 64);
    text.push_str(&source[..open]);
    text.push('\n');
    for d in decls {
        text.push_str("  ");
        text.push_str(d);
        text.push_str(";\n");
    }
    text.push_str("  ");
    text.push_str(&source[body..]);
    let text = rename_identifiers(&text, &renames);
    Request {
        member: index,
        text,
        renames,
    }
}

fn prefix(rng: &mut Rng) -> char {
    (b'a' + rng.below(26) as u8) as char
}

/// Replace every whole identifier found in `renames`.
fn rename_identifiers(text: &str, renames: &[(&'static str, String)]) -> String {
    let mut out = String::with_capacity(text.len() + 64);
    let mut ident = String::new();
    let flush = |ident: &mut String, out: &mut String| {
        match renames.iter().find(|(o, _)| *o == ident.as_str()) {
            Some((_, n)) => out.push_str(n),
            None => out.push_str(ident),
        }
        ident.clear();
    };
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            // A token starting with a digit is a number, never renamed.
            ident.push(c);
        } else {
            flush(&mut ident, &mut out);
            out.push(c);
        }
    }
    flush(&mut ident, &mut out);
    out
}
