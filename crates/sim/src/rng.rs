//! Addressable per-packet randomness for order-independent kernels.
//!
//! [`crate::sim_rng`] hands out one *sequential* stream per seed: the
//! right tool when a run consumes randomness in a single fixed order,
//! and the wrong one the moment work items may execute out of order —
//! a hop's draw count would decide which values its neighbours see.
//! This module keys a counter-based generator
//! ([`rand::counter::CounterRng`]) by logical coordinates instead:
//! every `(seed, round, packet)` tuple owns an independent,
//! well-decorrelated stream whose draws depend on nothing but the
//! tuple. Kernels that draw through [`packet_rng`] are free to process
//! packets in any order — serially, in parallel chunks, or resumed
//! from the middle — and still produce bit-identical results.
//!
//! # Example
//!
//! ```
//! use ami_sim::rng::packet_rng;
//! use rand::RngExt;
//!
//! let mut forward = packet_rng(2003, 0, 7);
//! let mut reversed = packet_rng(2003, 0, 7);
//! // Same coordinates, same stream — regardless of which other
//! // packets were processed in between.
//! assert_eq!(forward.next_u64(), reversed.next_u64());
//! ```

#![deny(missing_docs)]

pub use rand::counter::CounterRng;

/// The channel-randomness stream of one packet: keyed by the run seed,
/// the round it was offered in, and the offering node's id. Every ARQ
/// attempt of every hop of that packet draws from this stream in walk
/// order; no other packet shares it.
pub fn packet_rng(seed: u64, round: u64, source: u64) -> CounterRng {
    CounterRng::keyed(&[seed, round, source])
}

#[cfg(test)]
mod tests {
    use super::packet_rng;
    use rand::RngExt;

    #[test]
    fn coordinates_pin_the_stream() {
        let a: Vec<u64> = {
            let mut rng = packet_rng(2003, 3, 11);
            (0..16).map(|_| rng.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = packet_rng(2003, 3, 11);
            (0..16).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn each_coordinate_separates_streams() {
        let mut base = packet_rng(1, 2, 3);
        for (seed, round, source) in [(2, 2, 3), (1, 3, 3), (1, 2, 4)] {
            let mut other = packet_rng(seed, round, source);
            let same = (0..32)
                .filter(|_| base.next_u64() == other.next_u64())
                .count();
            assert_eq!(same, 0, "({seed}, {round}, {source})");
        }
    }

    #[test]
    fn floats_are_uniform_unit() {
        let mut rng = packet_rng(42, 0, 0);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.random::<f64>()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
