//! Property tests of the one routing rule, weighted rendezvous, in both
//! of its uses.
//!
//! Shards ([`router::shard`]): every shard owns its fair share of the
//! ids; growing the fleet moves keys only onto the new shards and
//! shrinking it never moves a survivor's keys (the two properties the
//! reshard handoff relies on); and the moved fraction stays at the ideal
//! `|Δn| / max(old, new)`, which keeps migration cheap.
//!
//! Nodes ([`router::route`] / [`router::rank`]): routing is a
//! deterministic pure function of the key and the pool, ejected nodes
//! are never selected, and ejecting a node remaps *only* the keys that
//! node was winning (the minimal-disruption property failover relies
//! on).

use offloadnn_core::task::TaskId;
use offloadnn_serve::router::{self, node_seed, rank, route, Candidate};
use proptest::prelude::*;

/// Ids probed per reshard case: large enough that per-shard expectations
/// are in the hundreds even at the biggest shard count drawn below.
const KEYS: u32 = 4_000;

/// Slack over the ideal moved fraction: six standard deviations of the
/// sampling noise at [`KEYS`] ids.
const EPSILON: f64 = 0.05;

/// Each of 1..=8 shards owns its fair share of ids `0..100 000`, within
/// ±5 %: every shard gets exactly `1/n` of the budget, so a shard owning
/// more than its share of ids rejects while another sits idle.
#[test]
fn every_shard_owns_its_fair_share_of_the_ids() {
    const IDS: u32 = 100_000;
    for n in 1..=8usize {
        let mut owned = vec![0u32; n];
        for id in 0..IDS {
            owned[router::shard(TaskId(id), n)] += 1;
        }
        let fair = f64::from(IDS) / n as f64;
        for (shard, &count) in owned.iter().enumerate() {
            let share = f64::from(count) / fair;
            assert!(
                (0.95..=1.05).contains(&share),
                "{n} shards: shard {shard} owns {share:.3}x its fair share ({owned:?})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Adding shard `n` to an `n`-shard fleet only adds a candidate, so
    /// a key whose owner changes must be owned by the new shard — and the
    /// moved fraction stays near the ideal `1/(n+1)`.
    fn adding_a_shard_remaps_only_a_bounded_fraction_and_only_to_the_new_shard(shards in 1usize..9) {
        let mut moved = 0u32;
        for i in 0..KEYS {
            let (b, a) = (router::shard(TaskId(i), shards), router::shard(TaskId(i), shards + 1));
            if b != a {
                prop_assert_eq!(
                    a, shards,
                    "key {} moved from shard {} to old shard {} — \
                     rendezvous may only remap onto the new shard",
                    i, b, a
                );
                moved += 1;
            }
        }
        let frac = f64::from(moved) / f64::from(KEYS);
        let ideal = 1.0 / (shards + 1) as f64;
        prop_assert!(
            frac <= ideal + EPSILON,
            "remapped {:.1}% of keys (ideal {:.1}% + ε {:.0}%) going {} -> {} shards",
            100.0 * frac, 100.0 * ideal, 100.0 * EPSILON, shards, shards + 1
        );
    }

    /// The elastic-reshard contract for *arbitrary* jumps, not just +1:
    /// rerouting from `old_n` to `new_n` shards moves at most the ideal
    /// `|new_n - old_n| / max(old_n, new_n)` fraction of the keyspace,
    /// plus sampling slack. This is the bound `Service::scale_to` relies
    /// on to keep migration cheap.
    fn arbitrary_rescale_moves_a_bounded_fraction(old_n in 1usize..11, new_n in 1usize..11) {
        prop_assume!(old_n != new_n);
        let moved =
            (0..KEYS).filter(|&i| router::shard(TaskId(i), old_n) != router::shard(TaskId(i), new_n)).count();
        let frac = moved as f64 / f64::from(KEYS);
        let ideal = old_n.abs_diff(new_n) as f64 / old_n.max(new_n) as f64;
        prop_assert!(
            frac <= ideal + EPSILON,
            "remapped {:.1}% of keys (ideal {:.1}% + ε {:.0}%) going {} -> {} shards",
            100.0 * frac, 100.0 * ideal, 100.0 * EPSILON, old_n, new_n
        );
    }

    /// Scaling *down* removes only the retired shards' candidates, so a
    /// key owned by a surviving shard must keep its owner: unchanged
    /// shards never gain keys they did not already own, and every key
    /// that does move belonged to a retired shard.
    fn scaling_down_never_remaps_keys_between_survivors(old_n in 2usize..11, new_n in 1usize..10) {
        prop_assume!(new_n < old_n);
        for i in 0..KEYS {
            let (b, a) = (router::shard(TaskId(i), old_n), router::shard(TaskId(i), new_n));
            prop_assert!(a < new_n, "key {} routed to retired shard {}", i, a);
            if b < new_n {
                prop_assert_eq!(
                    a, b,
                    "key {} moved from surviving shard {} to {} on a {} -> {} shrink — \
                     survivors' keyspaces must be untouched",
                    i, b, a, old_n, new_n
                );
            }
        }
    }

    /// Every key routes into `0..shards`, identically across calls.
    fn routing_stays_deterministic_and_in_range(shards in 1usize..9, probe in 0u32..100_000) {
        let s = router::shard(TaskId(probe), shards);
        prop_assert!(s < shards);
        prop_assert_eq!(s, router::shard(TaskId(probe), shards));
    }
}

/// A pool of distinct candidates from loopback-style addresses, with
/// weights spread over two orders of magnitude.
fn arb_pool() -> impl Strategy<Value = Vec<Candidate>> {
    (2usize..12, proptest::collection::vec(0.05f64..5.0, 12)).prop_map(|(n, weights)| {
        (0..n)
            .map(|i| Candidate {
                index: i,
                seed: node_seed(&format!("10.0.0.{}:4000", i + 1)),
                weight: weights[i],
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same key, same pool ⇒ same decision, independent of candidate
    /// order (selection is by score, not position).
    fn routing_is_deterministic_and_order_independent(
        pool in arb_pool(),
        key in 0u64..1_000_000,
    ) {
        let first = route(key, &pool);
        prop_assert_eq!(first, route(key, &pool));
        let mut reversed = pool.clone();
        reversed.reverse();
        prop_assert_eq!(first, route(key, &reversed));
        prop_assert_eq!(first, rank(key, &pool).first().copied());
    }

    /// Removing (ejecting) one node leaves every other key's decision
    /// unchanged; the ejected node's keys move to their runner-up.
    fn ejecting_a_node_remaps_only_its_own_keys(
        pool in arb_pool(),
        victim_pick in 0usize..4096,
    ) {
        let victim = victim_pick % pool.len();
        let survivors: Vec<Candidate> =
            pool.iter().copied().filter(|c| c.index != victim).collect();
        for key in 0..512u64 {
            let before = route(key, &pool).unwrap();
            let after = route(key, &survivors).unwrap();
            if before == victim {
                // The key the victim was winning moves to its previous
                // runner-up...
                prop_assert_eq!(Some(after), rank(key, &pool).get(1).copied());
            } else {
                // ...and every other key stays put.
                prop_assert_eq!(after, before);
            }
        }
    }

    /// An ejected node (absent from the candidate slice) is never
    /// routed to, whatever its weight was.
    fn never_routes_to_an_ejected_node(
        pool in arb_pool(),
        victim_pick in 0usize..4096,
        keys in proptest::collection::vec(0u64..1_000_000, 64),
    ) {
        let victim = victim_pick % pool.len();
        let survivors: Vec<Candidate> =
            pool.iter().copied().filter(|c| c.index != victim).collect();
        for key in keys {
            let winner = route(key, &survivors).unwrap();
            prop_assert_ne!(winner, victim);
            prop_assert!(!rank(key, &survivors).contains(&victim));
        }
    }

    /// The full ranking is a permutation of the pool: failover can walk
    /// it to the last survivor.
    fn rank_is_a_total_permutation(pool in arb_pool(), key in 0u64..1_000_000) {
        let mut order = rank(key, &pool);
        prop_assert_eq!(order.len(), pool.len());
        order.sort_unstable();
        let mut expect: Vec<usize> = pool.iter().map(|c| c.index).collect();
        expect.sort_unstable();
        prop_assert_eq!(order, expect);
    }
}
