//! The repo-wide fault-seed convention, in one place.
//!
//! Every fault campaign — the chaos, failure and storage-fault test
//! campaigns and the gated benches — pins its seeds in source
//! and accepts a `FAULT_SEED` override so a failing assertion reproduces
//! with one command. The environment lookup, the `--fault-seed` flag
//! spelling, and the repro-command formats all live here so the campaigns
//! cannot drift apart.

/// The environment variable every campaign honors.
pub const FAULT_SEED_VAR: &str = "FAULT_SEED";

/// The command-line flag spelling of the `gate` binary.
pub const FAULT_SEED_FLAG: &str = "--fault-seed";

/// The seed override from the environment (`FAULT_SEED`), if one parses.
pub fn fault_seed_env() -> Option<u64> {
    std::env::var(FAULT_SEED_VAR).ok().and_then(|s| s.trim().parse().ok())
}

/// The environment override, or `default` when none is set. Campaigns with
/// a pinned seed call this; campaigns sweeping many seeds use
/// [`fault_seed_env`] as a filter instead.
pub fn fault_seed_or(default: u64) -> u64 {
    fault_seed_env().unwrap_or(default)
}

/// The one-command repro for a seed-parametric test campaign:
/// `FAULT_SEED=<seed> cargo test --test <test> -- --nocapture`.
pub fn test_repro(test: &str, seed: u64) -> String {
    format!("{FAULT_SEED_VAR}={seed} cargo test --test {test} -- --nocapture")
}

/// The one-command repro for a gated bench:
/// `cargo run --release -p drms-bench --bin gate -- <gate> --fault-seed <seed>`.
pub fn bin_repro(gate: &str, seed: u64) -> String {
    format!("cargo run --release -p drms-bench --bin gate -- {gate} {FAULT_SEED_FLAG} {seed}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_commands_follow_the_convention() {
        assert_eq!(
            test_repro("chaos_campaign", 7),
            "FAULT_SEED=7 cargo test --test chaos_campaign -- --nocapture"
        );
        assert_eq!(
            bin_repro("pulse", 42),
            "cargo run --release -p drms-bench --bin gate -- pulse --fault-seed 42"
        );
    }
}
