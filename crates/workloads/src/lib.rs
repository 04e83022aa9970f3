//! Seeded input generators for the experiments.
//!
//! The paper evaluates on "random 64-bit integers" (§V); the other
//! distributions exercise the algorithms' edge cases (pre-sortedness, heavy
//! duplication, skew) and feed the robustness tests and ablation benches.
//! Every generator is deterministic in its seed so experiments are
//! reproducible run-to-run.

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::mem::MaybeUninit;

/// The input distributions available to harnesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Uniform random `u64` (the paper's workload).
    UniformU64,
    /// Uniform random over `[0, max)`.
    UniformBounded(u64),
    /// Already sorted ascending.
    Sorted,
    /// Sorted descending.
    Reverse,
    /// Sorted with `frac_swapped` of positions perturbed locally.
    NearlySorted(f64),
    /// Exactly `k` distinct values, uniformly.
    FewDistinct(u64),
    /// Zipf-distributed values with exponent `s` — heavy skew, stresses
    /// bucket balance.
    Zipf(f64),
    /// All elements equal (the adversarial bucket case).
    AllEqual,
    /// Repeating ascending ramps of the given period (`i % period`) —
    /// piecewise-sorted with periodic discontinuities, the classic
    /// merge-adversarial "sawtooth" shape.
    Sawtooth(u64),
}

/// Generate `n` elements of `w` with `seed`.
///
/// From 2Mi keys on, the work that does not depend on the random stream
/// runs in one stripe per host core, each of at least 1Mi keys: the page
/// faults, the index-only shapes and Zipf's inverse CDF. The stream itself
/// is drawn once, in order, on the caller, so the output does not depend
/// on the stripe count. Shorter inputs run on the caller alone.
pub fn generate(w: Workload, n: usize, seed: u64) -> Vec<u64> {
    fill(w, n, seed, stripes(n))
}

/// Least keys per stripe of a parallel fill. Inputs shorter than two
/// stripes run inline and never query the host.
const STRIPE_KEYS: usize = 1 << 20;

/// `u64` keys per 4 KiB page.
const PAGE_KEYS: usize = 512;

/// `min(host cores, n / STRIPE_KEYS)`, and 1 below two stripes' worth.
fn stripes(n: usize) -> usize {
    let most = n / STRIPE_KEYS;
    if most < 2 {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, |p| p.get().min(most))
}

/// The generator in three stages over `stripes` contiguous stripes of one
/// `n`-key allocation:
///
/// 1. fault every page in on the stripes; the index-only shapes write
///    their keys on the way;
/// 2. draw the `StdRng` stream once, in order, on the caller (rejection
///    sampling and swaps need the stream's order);
/// 3. map each drawn word to its key on the stripes (Zipf's inverse CDF).
fn fill(w: Workload, n: usize, seed: u64, stripes: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = Vec::with_capacity(n);
    let keys = &mut v.spare_capacity_mut()[..n];
    match w {
        Workload::Sorted | Workload::NearlySorted(_) => index_fill(keys, stripes, |i| i as u64),
        Workload::Reverse => index_fill(keys, stripes, |i| (n - 1 - i) as u64),
        Workload::AllEqual => index_fill(keys, stripes, |_| 0xDEAD_BEEF),
        Workload::Sawtooth(period) => {
            let period = period.max(1);
            index_fill(keys, stripes, |i| i as u64 % period)
        }
        Workload::UniformU64 | Workload::Zipf(_) => {
            striped(keys, stripes, touch_pages);
            draw_fill(keys, || rng.next_u64())
        }
        Workload::UniformBounded(max) | Workload::FewDistinct(max) => {
            let max = max.max(1);
            striped(keys, stripes, touch_pages);
            draw_fill(keys, || rng.gen_range(0..max))
        }
    }
    // SAFETY: `keys` is the vector's first `n` slots, and every arm above
    // wrote each of them: the index fills cover every stripe, and the
    // draws write every slot after the page touches.
    unsafe { v.set_len(n) };
    match w {
        Workload::NearlySorted(frac) => {
            let swaps = ((n as f64) * frac.clamp(0.0, 1.0) / 2.0) as usize;
            for _ in 0..swaps {
                if n < 2 {
                    break;
                }
                let i = rng.gen_range(0..n - 1);
                // Local perturbation: swap with a near neighbour.
                let j = (i + 1 + rng.gen_range(0..16)).min(n - 1);
                v.swap(i, j);
            }
        }
        Workload::Zipf(s) => {
            let zipf = ZipfSampler::new(n.max(2) as u64, s);
            striped(&mut v, stripes, |_, part| {
                for k in part {
                    *k = zipf.sample_word(*k);
                }
            });
        }
        _ => {}
    }
    v
}

/// Run `f(offset, stripe)` on `stripes` contiguous stripes of `v`, the
/// first on the caller and the others on scoped threads.
fn striped<E: Send>(v: &mut [E], stripes: usize, f: impl Fn(usize, &mut [E]) + Sync) {
    if stripes <= 1 {
        return f(0, v);
    }
    let len = v.len().div_ceil(stripes).max(1);
    let mut parts = v.chunks_mut(len).enumerate();
    let first = parts.next();
    let f = &f;
    std::thread::scope(|s| {
        for (i, part) in parts {
            s.spawn(move || f(i * len, part));
        }
        if let Some((_, part)) = first {
            f(0, part);
        }
    });
}

/// Write key `key(i)` at every index `i`, on the stripes.
fn index_fill(keys: &mut [MaybeUninit<u64>], stripes: usize, key: impl Fn(usize) -> u64 + Sync) {
    striped(keys, stripes, |at, part| {
        for (k, i) in part.iter_mut().zip(at..) {
            k.write(key(i));
        }
    });
}

/// Write one word per page of `part` (and its last word), so the page
/// faults happen on this stripe. The draw overwrites every word.
fn touch_pages(_: usize, part: &mut [MaybeUninit<u64>]) {
    for k in part.iter_mut().step_by(PAGE_KEYS) {
        k.write(0);
    }
    if let Some(k) = part.last_mut() {
        k.write(0);
    }
}

/// Write `draw()` into every slot, in order.
fn draw_fill(keys: &mut [MaybeUninit<u64>], mut draw: impl FnMut() -> u64) {
    for k in keys {
        k.write(draw());
    }
}

/// An `RngCore` holding one pre-drawn word, which it yields once.
struct OneDraw(Option<u64>);

impl RngCore for OneDraw {
    fn next_u64(&mut self) -> u64 {
        self.0.take().expect("sampler drew a second word")
    }
}

/// Rejection-free Zipf sampler via the inverse-CDF integral approximation
/// (Gray et al., "Quickly generating billion-record synthetic databases").
pub struct ZipfSampler {
    n: u64,
    s: f64,
    /// Normalisation constant `H_{n,s}` (approximated).
    h: f64,
}

impl ZipfSampler {
    /// Sampler over ranks `1..=n` with exponent `s > 0`.
    pub fn new(n: u64, s: f64) -> Self {
        let s = s.max(1e-6);
        // Approximate the generalized harmonic number by its integral.
        let h = if (s - 1.0).abs() < 1e-9 {
            (n as f64).ln() + 0.5772
        } else {
            ((n as f64).powf(1.0 - s) - 1.0) / (1.0 - s) + 1.0
        };
        Self { n, s, h }
    }

    /// Draw one rank (1-based).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let target = u * self.h;
        // Invert the integral approximation.
        let rank = if (self.s - 1.0).abs() < 1e-9 {
            (target - 0.5772).exp()
        } else {
            ((1.0 - self.s) * (target - 1.0) + 1.0).powf(1.0 / (1.0 - self.s))
        };
        (rank.max(1.0).min(self.n as f64)) as u64
    }

    /// The rank [`sample`](Self::sample) returns when the generator's next
    /// word is `word`: it draws exactly one, asserted here.
    fn sample_word(&self, word: u64) -> u64 {
        let mut one = OneDraw(Some(word));
        let rank = self.sample(&mut one);
        assert!(one.0.is_none(), "sampler drew no word");
        rank
    }
}

impl Distribution<u64> for ZipfSampler {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        ZipfSampler::sample(self, rng)
    }
}

/// Sortedness fraction: adjacent pairs already in order (1.0 = sorted).
pub fn sortedness(v: &[u64]) -> f64 {
    if v.len() < 2 {
        return 1.0;
    }
    let ok = v.windows(2).filter(|w| w[0] <= w[1]).count();
    ok as f64 / (v.len() - 1) as f64
}

/// Number of distinct values (exact; O(n log n)).
pub fn distinct_count(v: &[u64]) -> usize {
    let mut s = v.to_vec();
    s.sort_unstable();
    s.dedup();
    s.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = generate(Workload::UniformU64, 1000, 7);
        let b = generate(Workload::UniformU64, 1000, 7);
        let c = generate(Workload::UniformU64, 1000, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sorted_and_reverse_shapes() {
        assert_eq!(sortedness(&generate(Workload::Sorted, 1000, 0)), 1.0);
        assert_eq!(sortedness(&generate(Workload::Reverse, 1000, 0)), 0.0);
        let ns = generate(Workload::NearlySorted(0.05), 10_000, 1);
        let f = sortedness(&ns);
        assert!(f > 0.9 && f < 1.0, "nearly sorted fraction {f}");
    }

    #[test]
    fn few_distinct_counts() {
        let v = generate(Workload::FewDistinct(5), 10_000, 2);
        assert!(distinct_count(&v) <= 5);
        let v = generate(Workload::AllEqual, 100, 0);
        assert_eq!(distinct_count(&v), 1);
    }

    #[test]
    fn uniform_bounded_stays_in_range() {
        let v = generate(Workload::UniformBounded(100), 10_000, 3);
        assert!(v.iter().all(|&x| x < 100));
        assert!(distinct_count(&v) > 50, "should use most of the range");
    }

    #[test]
    fn zipf_is_skewed() {
        let v = generate(Workload::Zipf(1.2), 100_000, 4);
        // Rank 1 should be by far the most common value.
        let ones = v.iter().filter(|&&x| x == 1).count();
        assert!(
            ones > v.len() / 20,
            "rank-1 frequency {ones} too low for zipf"
        );
        assert!(v.iter().all(|&x| x >= 1));
    }

    #[test]
    fn zipf_respects_rank_bound() {
        let s = ZipfSampler::new(50, 1.1);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let r = s.sample(&mut rng);
            assert!((1..=50).contains(&r));
        }
    }

    #[test]
    fn sawtooth_shape() {
        let v = generate(Workload::Sawtooth(10), 100, 0);
        assert_eq!(v[..10], (0..10).collect::<Vec<u64>>()[..]);
        assert_eq!(v[10], 0);
        assert_eq!(distinct_count(&v), 10);
        // Degenerate period clamps to 1 (all zero), never divides by zero.
        assert_eq!(distinct_count(&generate(Workload::Sawtooth(0), 50, 0)), 1);
    }

    #[test]
    fn lengths_match() {
        for w in [
            Workload::UniformU64,
            Workload::Sorted,
            Workload::Reverse,
            Workload::NearlySorted(0.1),
            Workload::FewDistinct(3),
            Workload::Zipf(1.0),
            Workload::AllEqual,
            Workload::Sawtooth(64),
        ] {
            assert_eq!(generate(w, 123, 9).len(), 123);
            assert_eq!(generate(w, 0, 9).len(), 0);
        }
    }
}

#[cfg(test)]
mod pinned;
