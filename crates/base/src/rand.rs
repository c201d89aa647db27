//! A small deterministic pseudo-random number generator.
//!
//! The workloads in the evaluation (random FFT input data, file contents,
//! directory trees) must be *reproducible* across runs so that cycle counts
//! are stable. This is a SplitMix64 generator: tiny, fast, and with
//! well-understood statistical quality — more than enough for workload
//! generation. It is the workspace's only random source: the workspace has
//! no third-party dependencies, so uniform ranges and floats come from the
//! methods below.

/// A deterministic SplitMix64 pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use m3_base::rand::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same sequence
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Returns a value uniformly distributed in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Lemire's multiply-shift reduction; fine for workload generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a value uniformly distributed in `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.next_below(hi - lo + 1)
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fills `buf` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_stays_in_bounds() {
        let mut rng = Rng::new(123);
        for _ in 0..1000 {
            assert!(rng.next_below(10) < 10);
        }
        assert_eq!(rng.next_below(1), 0);
    }

    #[test]
    fn next_range_inclusive() {
        let mut rng = Rng::new(5);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = rng.next_range(3, 5);
            assert!((3..=5).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 5;
        }
        assert!(saw_lo && saw_hi, "range endpoints should be reachable");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::new(99);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Rng::new(11);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0), "13 zero bytes is implausible");
    }

    #[test]
    #[should_panic(expected = "bound")]
    fn zero_bound_panics() {
        Rng::new(0).next_below(0);
    }
}
