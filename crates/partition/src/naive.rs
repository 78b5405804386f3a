//! Naive baseline partitioners.
//!
//! The paper's evaluation explicitly states "we currently use a suboptimal naive
//! partitioning"; these baselines reproduce that behaviour and serve as the comparison
//! point for the multilevel partitioner in the ablation benchmarks.

/// Assigns vertex `v` to part `v % nparts`.
pub fn round_robin_partition(n: usize, nparts: usize) -> Vec<usize> {
    (0..n).map(|v| v % nparts.max(1)).collect()
}

/// Assigns vertices uniformly at random using a small xorshift generator seeded with
/// `seed` (deterministic for a given seed).
pub fn random_partition(n: usize, nparts: usize, seed: u64) -> Vec<usize> {
    let nparts = nparts.max(1);
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    if state == 0 {
        state = 1;
    }
    (0..n)
        .map(|_| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            (r % nparts as u64) as usize
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_parts() {
        let a = round_robin_partition(7, 3);
        assert_eq!(a, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn random_partition_depends_on_seed_only() {
        let a = random_partition(50, 2, 42);
        let b = random_partition(50, 2, 42);
        let c = random_partition(50, 2, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&p| p < 2));
    }

    #[test]
    fn degenerate_inputs() {
        assert!(round_robin_partition(0, 2).is_empty());
        assert_eq!(round_robin_partition(3, 1), vec![0, 0, 0]);
        assert_eq!(random_partition(3, 1, 9), vec![0, 0, 0]);
    }
}
