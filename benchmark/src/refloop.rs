//! The calibration reference loop: a hand-written Gustavson CSR SpGEMM on
//! fixed-seed operands. It calls nothing in the repository, so its speed
//! moves only with the machine (clock drift, noisy neighbours, per-process
//! layout) and never with a change to the system under test. Every round
//! of an epoch starts with one sample of it, and every time-valued
//! end-to-end metric is reported as
//! `p25(samples) * REF_NOMINAL_MS / p25(reference samples of the epoch)`.

use crate::gen::{RawCsr, Rng};
use std::hint::black_box;
use std::time::Instant;

/// The reference sample's duration on the machine the benchmark was
/// calibrated on (2 shared cores, see README). A constant of the benchmark:
/// changing it rescales every calibrated metric, so it changes only together
/// with a re-measured baseline. (ISSUE.md asks for it in `BENCHMARK.json`;
/// that file's key set is fixed by the driver, so it lives here.)
pub const REF_NOMINAL_MS: f64 = 18.5;

const REF_SEED: u64 = 0x5eed_0f7e;
const REF_N: usize = 2048;
const REF_PER_ROW: usize = 22;

/// Elements of slack in front of each scratch array. Every sample starts
/// its scratch at another offset into the slack, so the samples of one
/// process see many cache-set and page alignments and their lower quartile
/// is not hostage to the one layout the allocator happened to give this
/// process. (With fixed offsets the loop's p25 differed by up to 10 %
/// between processes on a quiet machine — more than the interpreter it is
/// meant to calibrate.)
const SLACK: usize = 1024;

/// Fixed operands plus the scratch the loop reuses between samples, so a
/// sample allocates nothing.
pub struct RefLoop {
    b: RawCsr,
    c: RawCsr,
    acc: Vec<f64>,
    seen: Vec<bool>,
    cols: Vec<usize>,
    out_crd: Vec<usize>,
    out_vals: Vec<f64>,
    /// Chooses the scratch offsets of the next sample.
    layout: Rng,
    /// Checksum of the first sample; later samples must reproduce it.
    expected: Option<u64>,
}

impl Default for RefLoop {
    fn default() -> RefLoop {
        RefLoop::new()
    }
}

impl RefLoop {
    pub fn new() -> RefLoop {
        let mut rng = Rng::new(REF_SEED, 0);
        let b = RawCsr::fixed_rows(REF_N, REF_N, REF_PER_ROW, &mut rng);
        let c = RawCsr::fixed_rows(REF_N, REF_N, REF_PER_ROW, &mut rng);
        let cap = REF_N * REF_PER_ROW * REF_PER_ROW;
        RefLoop {
            b,
            c,
            acc: vec![0.0; REF_N + SLACK],
            seen: vec![false; REF_N + SLACK],
            cols: Vec::with_capacity(REF_N),
            out_crd: vec![0; cap + SLACK],
            out_vals: vec![0.0; cap + SLACK],
            layout: rng,
            expected: None,
        }
    }

    /// One timed sample, in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if a sample's checksum differs from the first one's: the loop
    /// is deterministic, so a difference means memory corruption.
    pub fn sample_ms(&mut self) -> f64 {
        let start = Instant::now();
        let sum = self.multiply();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let bits = sum.to_bits();
        assert_eq!(
            *self.expected.get_or_insert(bits),
            bits,
            "reference loop is not repeatable"
        );
        ms
    }

    /// Row-by-row SpGEMM into a dense accumulator with a coordinate list,
    /// sorted per row and appended to the output — the same memory pattern
    /// (gather, scatter, small sorts, appends) the measured kernels have.
    fn multiply(&mut self) -> f64 {
        let (b, c) = (black_box(&self.b), black_box(&self.c));
        let mut at = |len: usize| {
            let off = self.layout.below(SLACK);
            off..off + len
        };
        let acc = &mut self.acc[at(REF_N)];
        let seen = &mut self.seen[at(REF_N)];
        let cap = self.out_crd.len() - SLACK;
        let out_crd = &mut self.out_crd[at(cap)];
        let out_vals = &mut self.out_vals[at(cap)];
        let mut nnz = 0;
        for i in 0..b.nrows {
            self.cols.clear();
            for p in b.pos[i]..b.pos[i + 1] {
                let (k, bv) = (b.crd[p], b.vals[p]);
                for q in c.pos[k]..c.pos[k + 1] {
                    let j = c.crd[q];
                    if !seen[j] {
                        seen[j] = true;
                        self.cols.push(j);
                    }
                    acc[j] += bv * c.vals[q];
                }
            }
            self.cols.sort_unstable();
            for &j in &self.cols {
                out_crd[nnz] = j;
                out_vals[nnz] = acc[j];
                nnz += 1;
                acc[j] = 0.0;
                seen[j] = false;
            }
        }
        black_box(&out_crd[..nnz]);
        out_vals[..nnz].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_repeat_and_take_measurable_time() {
        let mut r = RefLoop::new();
        let a = r.sample_ms();
        let b = r.sample_ms();
        assert!(a > 0.0 && b > 0.0);
    }
}
