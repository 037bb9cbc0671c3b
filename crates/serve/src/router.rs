//! The one routing rule of every tier — weighted rendezvous
//! (highest-random-weight) hashing — and the partitioning of the edge
//! budgets across shards.
//!
//! Every routing decision is a pure function of `(key, candidates)`: for
//! each candidate the key is mixed with the candidate's seed into a
//! uniform draw `u ∈ (0, 1)`, scored with the logarithmic method
//! `score = -weight / ln(u)`, and the highest score wins. The score of a
//! candidate depends only on the key, its seed and its weight, which
//! gives rendezvous hashing its minimal-disruption property: removing a
//! candidate changes nothing about the scores of the others, so only the
//! keys it was winning move — each to its previous runner-up — and
//! adding one moves only the keys it now wins. `tests/router_props.rs`
//! pins both.
//!
//! Two callers, one rule, one key ([`key`]):
//!
//! * a [`crate::Service`] picks a task's shard with [`shard`]: the
//!   candidates are the shard indices `0..shards` at weight 1, so every
//!   shard owns an even share of the ids, a grow moves keys only onto
//!   the new shards and a shrink never moves a survivor's keys — the two
//!   properties the reshard handoff relies on;
//! * the gateway picks a node with [`route`] / [`rank`] over its healthy
//!   members, seeded by address ([`node_seed`]) and weighted by health
//!   headroom, so a node reporting more remaining budget gets
//!   proportionally more of the key space, and a weight change only
//!   reshuffles keys between the changed node and the rest.

use offloadnn_core::instance::Budgets;
use offloadnn_core::task::TaskId;
use std::cmp::Ordering;

/// A routable candidate as the router sees it: an opaque caller-side
/// index, a stable hash seed and a routing weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Caller-side identifier (e.g. index into the gateway's node pool);
    /// returned verbatim by [`route`] / [`rank`].
    pub index: usize,
    /// Stable seed: a node's is derived from its address via
    /// [`node_seed`] so the mapping survives restarts; a shard's is its
    /// index.
    pub seed: u64,
    /// Routing weight; non-finite or non-positive weights are clamped to
    /// a small epsilon so a node never disappears from the ring merely
    /// by reporting zero headroom.
    pub weight: f64,
}

/// 64-bit FNV-1a: small, dependency-free, and spread further by the
/// SplitMix64 finalizer in `mix`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A stable seed for a node from its address string.
pub fn node_seed(addr: &str) -> u64 {
    fnv1a(addr.as_bytes())
}

/// The routing key of a task — the one input both tiers hash.
pub fn key(task: TaskId) -> u64 {
    u64::from(task.0)
}

/// Mixes the task key with a candidate seed into 64 well-spread bits
/// (SplitMix64 finalizer over the FNV combination of both).
fn mix(key: u64, seed: u64) -> u64 {
    let mut buf = [0u8; 16];
    buf[..8].copy_from_slice(&key.to_le_bytes());
    buf[8..].copy_from_slice(&seed.to_le_bytes());
    let mut z = fnv1a(&buf);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps 64 hash bits onto the open unit interval (0, 1): the top 53 bits
/// shifted into the mantissa range, offset by one so `ln(u)` is finite.
fn unit(h: u64) -> f64 {
    ((h >> 11) + 1) as f64 / ((1u64 << 53) + 1) as f64
}

/// The rendezvous score of one `(key, candidate)` pair. Strictly
/// positive, monotone in both the weight and the candidate's uniform draw.
pub fn score(key: u64, seed: u64, weight: f64) -> f64 {
    let w = if weight.is_finite() && weight > 0.0 { weight } else { 1e-9 };
    let u = unit(mix(key, seed));
    // u ∈ (0,1) ⇒ ln(u) < 0 ⇒ score > 0; larger u or w ⇒ larger score.
    -w / u.ln()
}

/// Best-first order of scored candidates. Ties (possible only through
/// duplicate seeds) break on the seed, then the caller index, so the
/// order is total and deterministic.
fn best_first(a: &(f64, u64, usize), b: &(f64, u64, usize)) -> Ordering {
    b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
}

/// Candidate indices ordered best-first for `key`.
pub fn rank(key: u64, candidates: &[Candidate]) -> Vec<usize> {
    let mut scored: Vec<(f64, u64, usize)> =
        candidates.iter().map(|c| (score(key, c.seed, c.weight), c.seed, c.index)).collect();
    scored.sort_by(best_first);
    scored.into_iter().map(|(_, _, index)| index).collect()
}

/// The winning candidate index for `key`, or `None` with no candidates.
pub fn route(key: u64, candidates: &[Candidate]) -> Option<usize> {
    winner(key, candidates.iter().copied())
}

/// The shard of a `shards`-shard service that owns `task`: [`route`]
/// over the shard indices at weight 1, without allocating.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard(task: TaskId, shards: usize) -> usize {
    let candidates = (0..shards).map(|index| Candidate { index, seed: index as u64, weight: 1.0 });
    winner(key(task), candidates).expect("at least one shard")
}

/// [`rank`]'s first entry, found in one pass.
fn winner(key: u64, candidates: impl Iterator<Item = Candidate>) -> Option<usize> {
    candidates
        .map(|c| (score(key, c.seed, c.weight), c.seed, c.index))
        .min_by(best_first)
        .map(|(_, _, index)| index)
}

/// Splits the edge budgets evenly across `shards` partitions.
///
/// The capacity-like budgets (RBs, inference compute, memory) divide by
/// the shard count; `training_seconds` is the objective's training-cost
/// *normaliser*, not a capacity, and is kept whole so each shard scores
/// training cost on the same scale as a single controller would.
///
/// The per-shard shares are computed by running remainder — every shard
/// but the last gets `total / n`, and the last gets whatever is left —
/// so the partitions sum to the total *exactly* (bitwise, not just to
/// rounding error). Elastic resharding repartitions from the original
/// total on every [`crate::Service::scale_to`], so without exactness a
/// long grow/shrink sequence would drift the fleet's aggregate capacity.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn partition_budgets(total: Budgets, shards: usize) -> Vec<Budgets> {
    assert!(shards > 0, "at least one shard");
    let n = shards as f64;
    let share = Budgets {
        rbs: total.rbs / n,
        compute_seconds: total.compute_seconds / n,
        training_seconds: total.training_seconds,
        memory_bytes: total.memory_bytes / n,
    };
    // Accumulate the first n-1 shares in partition order, then give the
    // last shard `total - acc`: summing the partitions back in the same
    // order reproduces `acc + (total - acc)`, cancelling the rounding
    // error of the division.
    let mut acc = Budgets { rbs: 0.0, compute_seconds: 0.0, training_seconds: 0.0, memory_bytes: 0.0 };
    let mut parts = Vec::with_capacity(shards);
    for _ in 0..shards - 1 {
        parts.push(share);
        acc.rbs += share.rbs;
        acc.compute_seconds += share.compute_seconds;
        acc.memory_bytes += share.memory_bytes;
    }
    parts.push(Budgets {
        rbs: total.rbs - acc.rbs,
        compute_seconds: total.compute_seconds - acc.compute_seconds,
        training_seconds: total.training_seconds,
        memory_bytes: total.memory_bytes - acc.memory_bytes,
    });
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> Vec<Candidate> {
        (0..n)
            .map(|i| Candidate { index: i, seed: node_seed(&format!("127.0.0.1:{}", 9000 + i)), weight: 1.0 })
            .collect()
    }

    #[test]
    fn route_agrees_with_rank() {
        let nodes = pool(5);
        for key in 0..200u64 {
            assert_eq!(route(key, &nodes), rank(key, &nodes).first().copied());
        }
    }

    #[test]
    fn empty_pool_routes_nowhere() {
        assert_eq!(route(42, &[]), None);
        assert!(rank(42, &[]).is_empty());
    }

    #[test]
    fn keys_spread_across_equal_weight_nodes() {
        let nodes = pool(4);
        let mut hits = [0usize; 4];
        for key in 0..4000u64 {
            hits[route(key, &nodes).unwrap()] += 1;
        }
        // Equal weights ⇒ roughly uniform; allow a generous band.
        for &h in &hits {
            assert!((600..=1400).contains(&h), "skewed spread: {hits:?}");
        }
    }

    #[test]
    fn heavier_node_wins_more_keys() {
        let mut nodes = pool(3);
        nodes[1].weight = 4.0;
        let mut hits = [0usize; 3];
        for key in 0..3000u64 {
            hits[route(key, &nodes).unwrap()] += 1;
        }
        assert!(hits[1] > hits[0] && hits[1] > hits[2], "weight ignored: {hits:?}");
    }

    #[test]
    fn degenerate_weights_still_route() {
        let nodes = [
            Candidate { index: 0, seed: 1, weight: 0.0 },
            Candidate { index: 1, seed: 2, weight: f64::NAN },
            Candidate { index: 2, seed: 3, weight: -5.0 },
        ];
        for key in 0..100u64 {
            assert!(route(key, &nodes).is_some());
        }
    }

    #[test]
    fn a_shard_is_the_route_over_the_shard_indices() {
        for shards in 1..=8 {
            let indices: Vec<Candidate> =
                (0..shards).map(|index| Candidate { index, seed: index as u64, weight: 1.0 }).collect();
            for id in 0..500 {
                let task = TaskId(id);
                assert_eq!(Some(shard(task, shards)), route(key(task), &indices));
            }
        }
    }

    #[test]
    fn single_shard_takes_everything() {
        for i in 0..100 {
            assert_eq!(shard(TaskId(i), 1), 0);
        }
    }

    #[test]
    fn budgets_partition_conserves_capacity() {
        let total = Budgets { rbs: 50.0, compute_seconds: 2.5, training_seconds: 1000.0, memory_bytes: 8e9 };
        let parts = partition_budgets(total, 4);
        assert_eq!(parts.len(), 4);
        let rbs: f64 = parts.iter().map(|b| b.rbs).sum();
        let compute: f64 = parts.iter().map(|b| b.compute_seconds).sum();
        let memory: f64 = parts.iter().map(|b| b.memory_bytes).sum();
        assert!((rbs - total.rbs).abs() < 1e-9);
        assert!((compute - total.compute_seconds).abs() < 1e-12);
        assert!((memory - total.memory_bytes).abs() < 1e-3);
        for p in &parts {
            assert!((p.training_seconds - total.training_seconds).abs() < 1e-12, "normaliser kept whole");
        }
    }

    #[test]
    fn budgets_partition_sums_exactly_for_awkward_shard_counts() {
        // 1/3, 1/7 etc. are not representable in binary floating point;
        // the running-remainder scheme must still make the partitions sum
        // *bitwise exactly* to the total.
        let total = Budgets { rbs: 50.0, compute_seconds: 2.5, training_seconds: 1000.0, memory_bytes: 8e9 };
        for shards in 1..=23 {
            let parts = partition_budgets(total, shards);
            assert_eq!(parts.len(), shards);
            let mut sum =
                Budgets { rbs: 0.0, compute_seconds: 0.0, training_seconds: 0.0, memory_bytes: 0.0 };
            // Sum in partition order — the same order the remainder was
            // peeled off — so exactness is deterministic.
            for p in &parts {
                sum.rbs += p.rbs;
                sum.compute_seconds += p.compute_seconds;
                sum.memory_bytes += p.memory_bytes;
            }
            assert_eq!(sum.rbs, total.rbs, "{shards} shards: rbs drifted");
            assert_eq!(sum.compute_seconds, total.compute_seconds, "{shards} shards: compute drifted");
            assert_eq!(sum.memory_bytes, total.memory_bytes, "{shards} shards: memory drifted");
        }
    }

    #[test]
    fn repeated_repartition_cycles_do_not_drift_capacity() {
        // The elastic-resharding regression: every scale_to repartitions
        // from the *original* total, so 100 grow/shrink cycles must leave
        // the summed fleet capacity identical to the starting total.
        let total = Budgets { rbs: 50.0, compute_seconds: 2.5, training_seconds: 1000.0, memory_bytes: 8e9 };
        let mut shards = 4usize;
        for cycle in 0..100 {
            shards = match cycle % 4 {
                0 => shards * 2,
                1 => (shards / 3).max(1),
                2 => shards + 3,
                _ => (shards.saturating_sub(2)).max(1),
            };
            let parts = partition_budgets(total, shards);
            let rbs: f64 = parts.iter().map(|b| b.rbs).sum();
            let compute: f64 = parts.iter().map(|b| b.compute_seconds).sum();
            let memory: f64 = parts.iter().map(|b| b.memory_bytes).sum();
            assert_eq!(rbs, total.rbs, "cycle {cycle} ({shards} shards): rbs drifted");
            assert_eq!(compute, total.compute_seconds, "cycle {cycle} ({shards} shards): compute drifted");
            assert_eq!(memory, total.memory_bytes, "cycle {cycle} ({shards} shards): memory drifted");
            for p in &parts {
                assert_eq!(p.training_seconds, total.training_seconds, "normaliser kept whole");
            }
        }
    }
}
