//! Deterministic input generation.
//!
//! Every input the benchmark sends is a pure function of the workload
//! seed and the request's index in the stream, so the same seed always
//! yields a byte-identical request list (see [`digest`]) however the
//! client threads interleave.

/// A seed that later performance claims must also hold on, in addition
/// to the seeds used while the change was written.
pub const HELD_OUT_SEED: u64 = 0x0DD5_EED5;

/// How many leading requests [`digest`] covers.
pub const DIGEST_OPS: u64 = 4096;

/// splitmix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`: distinct streams of one seed are
    /// independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
        p
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The program shapes the serving workloads draw from. Each exercises a
/// different part of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `corpus72` shape 0: a plain coalescible `doall` pair.
    Pair,
    /// `corpus72` shape 1: a carried serial loop ahead of a `doall` pair.
    SerialPrefix,
    /// `corpus72` shape 2: a `doall` pair with symbolic bounds.
    Symbolic,
    /// A rank-3 `doall` nest.
    Rank3,
    /// An imperfect nest: the `perfect` pass acts.
    Imperfect,
    /// A serial outer level over a parallel one: `interchange` acts.
    SerialOuter,
    /// A dependence carried at every level: coalescing is skipped.
    Carried,
    /// A racy `doall`: lint LC001 warns and coalescing is skipped.
    Racy,
}

/// Every shape, in a fixed order.
pub const SHAPES: [Shape; 8] = [
    Shape::Pair,
    Shape::SerialPrefix,
    Shape::Symbolic,
    Shape::Rank3,
    Shape::Imperfect,
    Shape::SerialOuter,
    Shape::Carried,
    Shape::Racy,
];

/// Split a trip product into `rank` extents (each ≥ 2) with a random
/// aspect ratio.
fn extents(rng: &mut Rng, cells: f64, rank: usize) -> Vec<u64> {
    let mut left = cells;
    let mut out = Vec::with_capacity(rank);
    for k in 0..rank {
        let levels_left = (rank - k) as f64;
        let even = left.powf(1.0 / levels_left);
        let d = if k + 1 == rank {
            left
        } else {
            even * 2f64.powf(rng.unit() - 0.5)
        };
        let d = d.round().max(2.0);
        out.push(d as u64);
        left = (left / d).max(2.0);
    }
    out
}

/// One program of `shape` with roughly `cells` iterations. `tag` is
/// written into the body, so distinct tags give distinct sources.
pub fn program(shape: Shape, cells: f64, tag: i64, rng: &mut Rng) -> String {
    let c = rng.range(2, 9);
    if shape == Shape::Rank3 {
        let d = extents(rng, cells, 3);
        let (a, b, e) = (d[0], d[1], d[2]);
        return format!(
            "array V[{a}][{b}][{e}];\n\
             doall i = 1..{a} {{\n  doall j = 1..{b} {{\n    doall k = 1..{e} {{\n      \
             V[i][j][k] = i + j * {c} + k + {tag};\n    }}\n  }}\n}}\n"
        );
    }
    let d = extents(rng, cells, 2);
    let (n, m) = (d[0], d[1]);
    match shape {
        Shape::Pair => format!(
            "array A[{n}][{m}];\n\
             doall i = 1..{n} {{\n  doall j = 1..{m} {{\n    A[i][j] = i * {c} + j + {tag};\n  }}\n}}\n"
        ),
        Shape::SerialPrefix => format!(
            "array A[{n}][{m}];\narray B[{n}];\n\
             for i = 2..{n} {{\n  B[i] = B[i - 1] + {tag};\n}}\n\
             doall i = 1..{n} {{\n  doall j = 1..{m} {{\n    A[i][j] = i + j * {c};\n  }}\n}}\n"
        ),
        Shape::Symbolic => format!(
            "array A[{n}][{m}];\nu = {n};\nv = {m};\n\
             doall i = 1..u {{\n  doall j = 1..v {{\n    A[i][j] = i * j + {tag};\n  }}\n}}\n"
        ),
        Shape::Imperfect => format!(
            "array P[{n}];\narray A[{n}][{m}];\n\
             doall i = 1..{n} {{\n  P[i] = i * {c};\n  doall j = 1..{m} {{\n    A[i][j] = i + j + {tag};\n  }}\n}}\n"
        ),
        Shape::SerialOuter => format!(
            "array A[{n}][{m}];\n\
             for i = 2..{n} {{\n  doall j = 1..{m} {{\n    A[i][j] = A[i - 1][j] + {tag};\n  }}\n}}\n"
        ),
        Shape::Carried => format!(
            "array A[{n}][{m}];\n\
             for i = 2..{n} {{\n  for j = 2..{m} {{\n    A[i][j] = A[i - 1][j - 1] + {c} * {tag};\n  }}\n}}\n"
        ),
        Shape::Racy => format!(
            "array A[{n}][{m}];\n\
             doall i = 1..{n} {{\n  doall j = 2..{m} {{\n    A[i][j] = A[i][j - 1] + {tag};\n  }}\n}}\n"
        ),
        Shape::Rank3 => unreachable!("handled above"),
    }
}

/// What a serving request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `POST /compile`
    Compile,
    /// `POST /analyze`
    Analyze,
}

impl Kind {
    /// The endpoint path.
    pub fn path(self) -> &'static str {
        match self {
            Kind::Compile => "/compile",
            Kind::Analyze => "/analyze",
        }
    }
}

/// One request of a serving workload: which endpoint, and which program
/// (`item` indexes the program: the request index for `compile-cold`,
/// the pool index for `serve-mixed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Endpoint.
    pub kind: Kind,
    /// Program identifier.
    pub item: usize,
}

/// Size strata of `compile-cold`: the log2 trip-product range is cut
/// into this many equal bands.
pub const COLD_STRATA: u64 = 8;

/// `compile-cold` requests come in blocks of [`COLD_BLOCK`], one per
/// (shape, size stratum) pair in a seeded order, so every run sees
/// nearly the same mix of shapes and sizes whatever the seed.
pub const COLD_BLOCK: u64 = SHAPES.len() as u64 * COLD_STRATA;

/// Smallest and largest log2 trip product of a `compile-cold` program.
pub const COLD_LOG2_CELLS: (f64, f64) = (4.0, 16.0);

/// Shape and log2 trip product of `compile-cold` request `r`.
pub fn cold_plan(seed: u64, r: u64) -> (Shape, f64) {
    let block = r / COLD_BLOCK;
    let pos = (r % COLD_BLOCK) as usize;
    let pair = Rng::new(seed, 0xB10C_0000 ^ block).permutation(COLD_BLOCK as usize)[pos];
    let (shape, stratum) = (SHAPES[pair % SHAPES.len()], pair / SHAPES.len());
    let jitter = Rng::new(seed, 0x5123_0000_0000 ^ r).unit();
    let (lo, hi) = COLD_LOG2_CELLS;
    let u = (stratum as f64 + jitter) / COLD_STRATA as f64;
    (shape, lo + (hi - lo) * u)
}

/// The `compile-cold` program with request index `r`. Its source embeds
/// `r`, so no two requests of a stream share a source (or a cache key).
pub fn cold_source(seed: u64, r: u64) -> String {
    let (shape, log2_cells) = cold_plan(seed, r);
    let mut rng = Rng::new(seed, 0xC01D_0000_0000 ^ r);
    program(shape, 2f64.powf(log2_cells), r as i64 + 1, &mut rng)
}

/// Untimed warm-up programs for `compile-cold` set-up; their tags are
/// negative, so they never collide with a request of the stream.
pub fn cold_warmup_source(seed: u64, k: u64) -> String {
    let mut rng = Rng::new(seed, 0x3A12_0000 ^ k);
    let shape = SHAPES[(k % SHAPES.len() as u64) as usize];
    program(shape, 64.0, -(k as i64) - 1, &mut rng)
}

/// `serve-mixed` pool size: several times the server's 256-entry cache.
pub const POOL_SIZE: usize = 1024;

/// Log2 trip products of the pool programs (at most 1k cells).
pub const POOL_LOG2_CELLS: (f64, f64) = (2.0, 10.0);

/// Share of `serve-mixed` requests that are `/compile` (the rest are
/// `/analyze`).
pub const COMPILE_SHARE: f64 = 0.8;

/// Zipf exponent of the `serve-mixed` popularity skew.
pub const ZIPF_S: f64 = 1.0;

/// The `serve-mixed` inputs: the program pool, and the popularity order
/// the stream draws from.
#[derive(Debug, Clone)]
pub struct Mixed {
    seed: u64,
    /// The programs; `pool[i]` is item `i`.
    pub pool: Vec<String>,
    /// `by_rank[k]` is the item of popularity rank `k` (0 = hottest).
    pub by_rank: Vec<usize>,
    cdf: Vec<f64>,
}

impl Mixed {
    /// Build the pool and popularity order for `seed`. Item `i` has shape
    /// `i % 8` and the `i / 8`-th size stratum of that shape; popularity
    /// rank `k` goes to an item of shape `k % 8`, with the sizes in a
    /// seeded order. So every seed spreads traffic evenly over shapes and
    /// sizes, and only which program sits where changes.
    pub fn new(seed: u64) -> Mixed {
        let mut rng = Rng::new(seed, 0x9001);
        let shapes = SHAPES.len();
        let per_shape = POOL_SIZE / shapes;
        let (lo, hi) = POOL_LOG2_CELLS;
        let pool: Vec<String> = (0..POOL_SIZE)
            .map(|i| {
                let u = ((i / shapes) as f64 + rng.unit()) / per_shape as f64;
                let cells = 2f64.powf(lo + (hi - lo) * u);
                program(SHAPES[i % shapes], cells, i as i64 + 1, &mut rng)
            })
            .collect();
        let orders: Vec<Vec<usize>> = (0..shapes).map(|_| rng.permutation(per_shape)).collect();
        let by_rank = (0..POOL_SIZE)
            .map(|k| orders[k % shapes][k / shapes] * shapes + k % shapes)
            .collect();
        let mut cdf = Vec::with_capacity(POOL_SIZE);
        let mut acc = 0.0;
        for k in 0..POOL_SIZE {
            acc += 1.0 / ((k + 1) as f64).powf(ZIPF_S);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Mixed {
            seed,
            pool,
            by_rank,
            cdf,
        }
    }

    /// The request with index `r`.
    pub fn request(&self, r: u64) -> Request {
        let mut rng = Rng::new(self.seed, 0x5E4E_0000_0000 ^ r);
        let kind = if rng.unit() < COMPILE_SHARE {
            Kind::Compile
        } else {
            Kind::Analyze
        };
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c <= u).min(POOL_SIZE - 1);
        Request {
            kind,
            item: self.by_rank[rank],
        }
    }
}

/// The kernel body an `exec-nest` nest runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body {
    /// Coarse-grained: one matmul cell with an inner product of length `k`.
    Matmul {
        /// Inner-product length.
        k: usize,
    },
    /// Fine-grained and triangular: `imbalanced_cell(weight, ..)`.
    Imbalanced {
        /// Spin weight per row below the diagonal.
        weight: u64,
    },
}

/// One `exec-nest` nest: a DSL `doall` pair that lc-driver compiles, and
/// the body run on its coalesced shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestSpec {
    /// DSL source compiled during set-up.
    pub source: String,
    /// Rows and columns of the nest as written.
    pub n: usize,
    /// Columns.
    pub m: usize,
    /// Kernel body.
    pub body: Body,
}

/// Number of nests in the `exec-nest` set.
pub const EXEC_NESTS: usize = 8;

/// Cells of each `exec-nest` matmul nest (its aspect ratio is seeded).
pub const MATMUL_CELLS: f64 = 25_600.0;

/// The `exec-nest` nest set for `seed`: half coarse-grained matmul, half
/// fine-grained imbalanced nests. The seed picks shapes around fixed
/// amounts of work, so every seed's set costs about the same to run.
pub fn exec_nests(seed: u64) -> Vec<NestSpec> {
    let mut rng = Rng::new(seed, 0xE8EC);
    (0..EXEC_NESTS)
        .map(|i| {
            let (n, m, body) = if i % 2 == 0 {
                let n = (MATMUL_CELLS.sqrt() * 2f64.powf(rng.unit() - 0.5)).round() as usize;
                let m = (MATMUL_CELLS / n as f64).round() as usize;
                let k = rng.range(44, 52) as usize;
                (n, m, Body::Matmul { k })
            } else {
                let n = rng.range(124, 132) as usize;
                (n, n, Body::Imbalanced { weight: 4 })
            };
            let source = match body {
                Body::Matmul { k } => format!(
                    "array C[{n}][{m}];\narray A[{n}][{m}];\n\
                     doall i = 1..{n} {{\n  doall j = 1..{m} {{\n    C[i][j] = A[i][j] * {k} + i - j;\n  }}\n}}\n"
                ),
                Body::Imbalanced { weight } => format!(
                    "array T[{n}][{m}];\n\
                     doall i = 1..{n} {{\n  doall j = 1..{m} {{\n    if j <= i {{\n      T[i][j] = i * {weight} + j;\n    }}\n  }}\n}}\n"
                ),
            };
            NestSpec { source, n, m, body }
        })
        .collect()
}

/// Chunk size of the CSS(k) policy in `exec-nest`.
pub const CSS_CHUNK: u64 = 32;

/// The scheduling policies `exec-nest` cycles through.
pub const POLICIES: [lc_sched::policy::PolicyKind; 5] = [
    lc_sched::policy::PolicyKind::SelfSched,
    lc_sched::policy::PolicyKind::Chunked(CSS_CHUNK),
    lc_sched::policy::PolicyKind::Guided,
    lc_sched::policy::PolicyKind::Trapezoid,
    lc_sched::policy::PolicyKind::Factoring,
];

/// `exec-nest` operation `r`: which nest and which policy. Consecutive
/// blocks of `EXEC_NESTS × POLICIES` operations each cover every pair
/// once, in a seeded order.
pub fn exec_op(seed: u64, r: u64) -> (usize, usize) {
    let pairs = (EXEC_NESTS * POLICIES.len()) as u64;
    let perm = Rng::new(seed, 0xE0B_0000 ^ (r / pairs)).permutation(pairs as usize);
    let pair = perm[(r % pairs) as usize];
    (pair % EXEC_NESTS, pair / EXEC_NESTS)
}

/// Digest of a workload's request list: its first [`DIGEST_OPS`]
/// requests (and, for `serve-mixed`, the pool; for `exec-nest`, the
/// nest set), byte for byte.
pub fn digest(workload: &str, seed: u64) -> Option<u64> {
    let mut bytes: Vec<u8> = Vec::new();
    match workload {
        "compile-cold" => {
            for r in 0..DIGEST_OPS {
                bytes.extend_from_slice(b"/compile\n");
                bytes.extend_from_slice(cold_source(seed, r).as_bytes());
            }
        }
        "serve-mixed" => {
            let mixed = Mixed::new(seed);
            for p in &mixed.pool {
                bytes.extend_from_slice(p.as_bytes());
            }
            for r in 0..DIGEST_OPS {
                let req = mixed.request(r);
                bytes.extend_from_slice(req.kind.path().as_bytes());
                bytes.extend_from_slice(&(req.item as u64).to_le_bytes());
            }
        }
        "exec-nest" => {
            for spec in exec_nests(seed) {
                bytes.extend_from_slice(format!("{:?}\n", spec.body).as_bytes());
                bytes.extend_from_slice(spec.source.as_bytes());
            }
            for r in 0..DIGEST_OPS {
                let (nest, policy) = exec_op(seed, r);
                bytes.extend_from_slice(&[nest as u8, policy as u8]);
            }
        }
        _ => return None,
    }
    Some(fnv1a(&bytes))
}
