//! Property tests for replica placement — the invariant the memory tier's
//! whole survivability argument rests on:
//!
//! * the `r` replicas of a piece are always `r` *distinct* nodes drawn from
//!   the region's node set, none of which is the owning node, for arbitrary
//!   node sets (contiguous or gappy), replication factors, and piece keys;
//! * placement is a pure function of (owner, node set, piece key) — every
//!   task computes the same assignment without communication;
//! * infeasible factors (`r == 0`, or `r >=` distinct nodes) error cleanly
//!   instead of silently co-locating copies.

use std::collections::BTreeSet;

use drms_core::CoreError;
use drms_memtier::placement::{replica_nodes, replication_feasible};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn replicas_distinct_off_owner_and_in_set(
        node_set in proptest::collection::btree_set(0usize..1000, 2..40),
        replicas in 1usize..8,
        npieces in 1u64..60,
        owner_pick in 0usize..1000,
    ) {
        let nodes: Vec<usize> = node_set.iter().copied().collect();
        let owner = nodes[owner_pick % nodes.len()];
        prop_assume!(replicas < nodes.len());
        prop_assert!(replication_feasible(nodes.len(), replicas));

        for piece in 0..npieces {
            let got = replica_nodes(owner, &nodes, replicas, piece).unwrap();
            prop_assert_eq!(got.len(), replicas, "piece {}: wrong count {:?}", piece, got);
            let uniq: BTreeSet<usize> = got.iter().copied().collect();
            prop_assert_eq!(
                uniq.len(), replicas,
                "piece {}: two replicas share a node in {:?}", piece, got
            );
            prop_assert!(!got.contains(&owner), "piece {}: replica on owner {}", piece, owner);
            prop_assert!(
                got.iter().all(|n| node_set.contains(n)),
                "piece {}: replica outside the node set in {:?}", piece, got
            );
        }
    }

    #[test]
    fn placement_is_deterministic_and_order_blind(
        node_set in proptest::collection::btree_set(0usize..200, 3..24),
        replicas in 1usize..6,
        piece in 0u64..10_000,
        owner_pick in 0usize..1000,
        shuffle_seed in 0usize..1000,
    ) {
        let nodes: Vec<usize> = node_set.iter().copied().collect();
        let owner = nodes[owner_pick % nodes.len()];
        prop_assume!(replicas < nodes.len());

        let a = replica_nodes(owner, &nodes, replicas, piece).unwrap();
        let b = replica_nodes(owner, &nodes, replicas, piece).unwrap();
        prop_assert_eq!(&a, &b, "same inputs, different placement");

        // A rotated view of the node set (how another task might assemble
        // it) and duplicate entries must not change the placement.
        let mut rotated = nodes.clone();
        rotated.rotate_left(shuffle_seed % nodes.len());
        rotated.push(rotated[0]);
        let c = replica_nodes(owner, &rotated, replicas, piece).unwrap();
        prop_assert_eq!(&a, &c, "node-set order changed the placement");
    }

    #[test]
    fn infeasible_factors_error_cleanly(
        node_set in proptest::collection::btree_set(0usize..200, 1..10),
        extra in 0usize..5,
        piece in 0u64..100,
        owner_pick in 0usize..1000,
    ) {
        let nodes: Vec<usize> = node_set.iter().copied().collect();
        let owner = nodes[owner_pick % nodes.len()];
        let too_many = nodes.len() + extra; // r >= distinct nodes
        prop_assert!(!replication_feasible(nodes.len(), too_many));
        prop_assert!(!replication_feasible(nodes.len(), 0));

        let err = replica_nodes(owner, &nodes, too_many, piece).unwrap_err();
        prop_assert!(
            matches!(err, CoreError::ReplicationUnsatisfiable { replicas, nodes: n }
                if replicas == too_many && n == nodes.len()),
            "wrong error for r={} on {} nodes: {:?}", too_many, nodes.len(), err
        );
        let err = replica_nodes(owner, &nodes, 0, piece).unwrap_err();
        prop_assert!(matches!(err, CoreError::ReplicationUnsatisfiable { replicas: 0, .. }));
    }
}
