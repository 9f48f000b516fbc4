//! Benchmark-owned operand generation: a fixed PRNG, plain-array operand
//! types, and the digest that pins them. Nothing here calls the system
//! under test, so a change to `taco_tensor::gen` cannot move the inputs.
//!
//! Every generator fixes the *structure statistics* the kernels' cost
//! depends on (nonzeros per row, entries per fiber) and lets the seed choose
//! only positions and values, so two seeds give the same amount of work to
//! within a fraction of a percent. Values are drawn from `[0.5, 1.5)`:
//! strictly positive, so sums never cancel and a relative tolerance means
//! what it says.

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator of one stream of a seed. Seed and stream are scrambled
    /// before they become the state: SplitMix64's state is a counter, so
    /// `seed` itself as the state would make seed 42's sequence seed 41's
    /// shifted by one.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let (mut a, mut b) = (Rng(seed), Rng(!stream));
        Rng(a.next_u64() ^ b.next_u64().rotate_left(32))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for the
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Uniform in `[0.5, 1.5)`.
    pub fn value(&mut self) -> f64 {
        0.5 + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct values of `0..n`, ascending.
    pub fn distinct_sorted(&mut self, k: usize, n: usize) -> Vec<usize> {
        assert!(k <= n, "cannot draw {k} distinct values below {n}");
        let mut out: Vec<usize> = Vec::with_capacity(k);
        while out.len() < k {
            let c = self.below(n);
            if let Err(at) = out.binary_search(&c) {
                out.insert(at, c);
            }
        }
        out
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over 64-bit words; the digest that pins generated operands.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn usizes(&mut self, xs: &[usize]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x as u64);
        }
    }

    pub fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x.to_bits());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A CSR matrix as plain arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct RawCsr {
    pub nrows: usize,
    pub ncols: usize,
    pub pos: Vec<usize>,
    pub crd: Vec<usize>,
    pub vals: Vec<f64>,
}

impl RawCsr {
    /// Exactly `per_row` nonzeros in every row, at distinct sorted columns.
    pub fn fixed_rows(nrows: usize, ncols: usize, per_row: usize, rng: &mut Rng) -> RawCsr {
        let mut pos = Vec::with_capacity(nrows + 1);
        let mut crd = Vec::with_capacity(nrows * per_row);
        let mut vals = Vec::with_capacity(nrows * per_row);
        pos.push(0);
        for _ in 0..nrows {
            crd.extend(rng.distinct_sorted(per_row, ncols));
            vals.extend((0..per_row).map(|_| rng.value()));
            pos.push(crd.len());
        }
        RawCsr {
            nrows,
            ncols,
            pos,
            crd,
            vals,
        }
    }

    pub fn nnz(&self) -> usize {
        self.crd.len()
    }

    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.nrows * self.ncols];
        for i in 0..self.nrows {
            for p in self.pos[i]..self.pos[i + 1] {
                out[i * self.ncols + self.crd[p]] += self.vals[p];
            }
        }
        out
    }

    pub fn digest_into(&self, d: &mut Digest) {
        d.word(self.nrows as u64);
        d.word(self.ncols as u64);
        d.usizes(&self.pos);
        d.usizes(&self.crd);
        d.floats(&self.vals);
    }

    pub fn bytes(&self) -> usize {
        8 * (self.pos.len() + self.crd.len() + self.vals.len())
    }
}

/// A rank-3 sparse tensor as lexicographically sorted coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct RawCoo3 {
    pub dims: [usize; 3],
    pub coords: Vec<[usize; 3]>,
    pub vals: Vec<f64>,
}

impl RawCoo3 {
    /// `fibers` distinct `(i, k)` fibers holding exactly `per_fiber`
    /// distinct `l` entries each, so the CSF level sizes below the root are
    /// the same for every seed.
    pub fn fibered(dims: [usize; 3], fibers: usize, per_fiber: usize, rng: &mut Rng) -> RawCoo3 {
        let pairs = rng.distinct_sorted(fibers, dims[0] * dims[1]);
        let mut coords = Vec::with_capacity(fibers * per_fiber);
        let mut vals = Vec::with_capacity(fibers * per_fiber);
        for pair in pairs {
            for l in rng.distinct_sorted(per_fiber, dims[2]) {
                coords.push([pair / dims[1], pair % dims[1], l]);
                vals.push(rng.value());
            }
        }
        RawCoo3 { dims, coords, vals }
    }

    pub fn nnz(&self) -> usize {
        self.coords.len()
    }

    pub fn digest_into(&self, d: &mut Digest) {
        for dim in self.dims {
            d.word(dim as u64);
        }
        d.word(self.coords.len() as u64);
        for c in &self.coords {
            for &x in c {
                d.word(x as u64);
            }
        }
        d.floats(&self.vals);
    }

    pub fn bytes(&self) -> usize {
        // As stored in CSF: about one coordinate per level plus the value.
        32 * self.coords.len()
    }
}

/// A dense row-major matrix (or, with `ncols == 1`, a vector).
#[derive(Debug, Clone, PartialEq)]
pub struct RawDense {
    pub nrows: usize,
    pub ncols: usize,
    pub data: Vec<f64>,
}

impl RawDense {
    pub fn random(nrows: usize, ncols: usize, rng: &mut Rng) -> RawDense {
        RawDense {
            nrows,
            ncols,
            data: (0..nrows * ncols).map(|_| rng.value()).collect(),
        }
    }

    pub fn digest_into(&self, d: &mut Digest) {
        d.word(self.nrows as u64);
        d.word(self.ncols as u64);
        d.floats(&self.data);
    }

    pub fn bytes(&self) -> usize {
        8 * self.data.len()
    }
}

/// One generated operand, in the only shapes the workloads need.
#[derive(Debug, Clone, PartialEq)]
pub enum RawOperand {
    Csr(RawCsr),
    Coo3(RawCoo3),
    Dense(RawDense),
}

impl RawOperand {
    pub fn digest_into(&self, d: &mut Digest) {
        match self {
            RawOperand::Csr(m) => m.digest_into(d),
            RawOperand::Coo3(t) => t.digest_into(d),
            RawOperand::Dense(m) => m.digest_into(d),
        }
    }

    pub fn bytes(&self) -> usize {
        match self {
            RawOperand::Csr(m) => m.bytes(),
            RawOperand::Coo3(t) => t.bytes(),
            RawOperand::Dense(m) => m.bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_operands_and_fixed_structure() {
        let a = RawCsr::fixed_rows(64, 64, 5, &mut Rng::new(7, 0));
        let b = RawCsr::fixed_rows(64, 64, 5, &mut Rng::new(7, 0));
        assert_eq!(a, b);
        assert_eq!(a.nnz(), 64 * 5);
        for i in 0..64 {
            let row = &a.crd[a.pos[i]..a.pos[i + 1]];
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "row {i} sorted and distinct"
            );
        }
        let t = RawCoo3::fibered([8, 8, 8], 20, 3, &mut Rng::new(7, 0));
        assert_eq!(t.nnz(), 60);
        assert!(
            t.coords.windows(2).all(|w| w[0] < w[1]),
            "coordinates sorted and distinct"
        );
        assert!(a.vals.iter().all(|v| (0.5..1.5).contains(v)));
        // Adjacent seeds and streams are unrelated, not shifted copies.
        let draws = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        let (s41, s42) = (draws(41, 0), draws(42, 0));
        assert!(s41.iter().all(|x| !s42.contains(x)));
        assert_ne!(draws(41, 0), draws(41, 1));
    }
}
