//! Replica placement: which nodes hold the copies of a stream piece.
//!
//! The rule the whole tier's survivability argument rests on: the `r`
//! replicas of a piece are always `r` *distinct* nodes, none of which is the
//! piece's owner. A checkpoint therefore survives the loss of any `r` nodes
//! (owner plus `r - 1` replicas of some piece may die and one replica still
//! remains), and placement is a pure function of (owner, node set, piece
//! key) so every task computes the same assignment without communication.

use drms_core::{CoreError, Result};

/// Whether a replication factor is satisfiable on `nodes` distinct nodes:
/// every piece needs `replicas >= 1` holders distinct from its owner.
pub fn replication_feasible(nodes: usize, replicas: usize) -> bool {
    replicas >= 1 && replicas < nodes
}

/// Deterministically chooses the `replicas` nodes holding copies of a piece
/// owned by node `owner`. `nodes` is the region's node set (must contain
/// `owner`; duplicates are ignored); `piece` is any stable per-piece key —
/// distinct keys rotate the placement so replica load spreads evenly.
///
/// Errors when `replicas == 0` or when fewer than `replicas` candidate
/// nodes exist (`replicas >= nodes` counted distinct), in which case no
/// placement that keeps replicas off the owner is possible.
pub fn replica_nodes(
    owner: usize,
    nodes: &[usize],
    replicas: usize,
    piece: u64,
) -> Result<Vec<usize>> {
    let mut candidates: Vec<usize> = nodes.iter().copied().filter(|&n| n != owner).collect();
    candidates.sort_unstable();
    candidates.dedup();
    let distinct = candidates.len() + nodes.contains(&owner) as usize;
    if replicas == 0 || replicas > candidates.len() {
        return Err(CoreError::ReplicationUnsatisfiable { replicas, nodes: distinct });
    }
    let start = (piece % candidates.len() as u64) as usize;
    Ok((0..replicas).map(|i| candidates[(start + i) % candidates.len()]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_are_distinct_and_never_owner() {
        let nodes: Vec<usize> = (0..8).collect();
        for owner in 0..8 {
            for piece in 0..40u64 {
                let got = replica_nodes(owner, &nodes, 3, piece).unwrap();
                assert_eq!(got.len(), 3);
                assert!(!got.contains(&owner));
                let mut uniq = got.clone();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len(), 3, "duplicate replica in {got:?}");
            }
        }
    }

    #[test]
    fn infeasible_factors_error() {
        let nodes: Vec<usize> = (0..4).collect();
        assert!(matches!(
            replica_nodes(0, &nodes, 0, 7),
            Err(CoreError::ReplicationUnsatisfiable { replicas: 0, nodes: 4 })
        ));
        assert!(matches!(
            replica_nodes(0, &nodes, 4, 7),
            Err(CoreError::ReplicationUnsatisfiable { replicas: 4, nodes: 4 })
        ));
        assert!(replica_nodes(0, &nodes, 3, 7).is_ok());
        assert!(!replication_feasible(4, 4));
        assert!(replication_feasible(4, 3));
        assert!(!replication_feasible(4, 0));
    }

    #[test]
    fn rotation_spreads_load() {
        // With one replica over 5 nodes, consecutive piece keys land on
        // different nodes.
        let nodes: Vec<usize> = (0..5).collect();
        let picks: Vec<usize> =
            (0..4u64).map(|k| replica_nodes(2, &nodes, 1, k).unwrap()[0]).collect();
        let mut uniq = picks.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "rotation reused a node too eagerly: {picks:?}");
    }
}
