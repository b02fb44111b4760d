//! Cost-model configuration for the simulated parallel file system.

/// Tunable parameters of the PIOFS simulator.
///
/// The [`PiofsConfig::sp_1997`] preset is calibrated against the measured
/// rates in Tables 5 and 6 of the paper (16-node RS/6000 SP, 128 MB thin
/// nodes, PIOFS striped across all 16 nodes). Times are seconds, sizes are
/// bytes, rates are bytes/second.
#[derive(Debug, Clone, PartialEq)]
pub struct PiofsConfig {
    /// Number of file-server nodes (files stripe across all of them).
    pub n_servers: usize,
    /// Stripe unit: consecutive runs of this many bytes go to consecutive
    /// servers, round-robin.
    pub stripe_unit: u64,

    // ---- server side ------------------------------------------------
    /// Per-server streaming write bandwidth.
    pub server_write_bw: f64,
    /// Per-server disk read bandwidth for bytes not yet in buffer
    /// (the prefetch path reads every unique byte once).
    pub server_disk_read_bw: f64,
    /// Per-server rate at which already-buffered bytes are served to
    /// additional clients (the reason restart is client-limited).
    pub server_serve_bw: f64,
    /// Fixed server-side cost per (request x server) chunk; penalizes the
    /// many small strided pieces of parallel array streaming relative to
    /// one big sequential segment write.
    pub chunk_overhead_write: f64,
    /// Read-side equivalent of `chunk_overhead_write`.
    pub chunk_overhead_read: f64,

    // ---- client side ------------------------------------------------
    /// Per-client write bandwidth (large sequential stream).
    pub client_write_bw: f64,
    /// Per-client read bandwidth with sequential prefetch.
    pub client_read_bw: f64,
    /// Per-client read bandwidth for strided/pieced access, which defeats
    /// client-side prefetch pipelining.
    pub client_strided_read_bw: f64,
    /// Fixed client-side cost per request issued.
    pub piece_overhead: f64,

    // ---- memory ledger ----------------------------------------------
    /// Physical memory per node.
    pub node_mem: u64,
    /// Memory held by the operating system and daemons on every node.
    pub os_resident: u64,
    /// Buffer memory a server needs per concurrently active stream to keep
    /// prefetch/write-behind effective.
    pub stream_buffer: u64,
    /// Transient client-side buffer a task needs while performing I/O.
    pub io_buffer: u64,
    /// Floor on server *read* efficiency once thrashing.
    pub thrash_floor: f64,
    /// Floor on server *write* efficiency under buffer pressure
    /// (write-behind needs less buffer than prefetch, so writes degrade
    /// linearly and bottom out higher).
    pub thrash_floor_write: f64,
    /// Prefetch works at full efficiency while `available / needed` buffer
    /// stays above this cutoff; below it, read efficiency collapses
    /// quadratically — the paper's threshold behaviour ("a threshold is
    /// crossed which causes a large increase in the time to perform the
    /// restart").
    pub read_buffer_cutoff: f64,
    /// Client bandwidth multiplier once the node starts paging
    /// (task residency + buffers exceed node memory).
    pub paging_factor: f64,

    // ---- interference -----------------------------------------------
    /// Server (and write-side client) bandwidth multiplier on a node that
    /// also hosts an application task, per Section 5 of the paper.
    pub interference: f64,
    /// Additional write-side client slowdown per fraction of nodes occupied
    /// by application tasks (memory-bus and CPU pressure at full occupancy).
    pub occupancy_write_penalty: f64,

    // ---- misc ---------------------------------------------------------
    /// Fixed per-phase overhead (open/metadata round-trips).
    pub op_overhead: f64,
    /// Relative standard deviation of the Gaussian service-time jitter.
    pub jitter_sigma: f64,

    // ---- resilience ---------------------------------------------------
    /// RAID-5-style rotating XOR parity across the servers. Each parity
    /// group covers `n_servers - 1` consecutive stripe units (which land on
    /// `n_servers - 1` distinct servers); its parity block lives on the one
    /// server the group's data skips. Tolerates the loss of any single
    /// server; writes pay a parity-update penalty and degraded reads pay a
    /// reconstruction penalty in virtual time. Requires `n_servers >= 2`.
    pub parity: bool,
}

impl PiofsConfig {
    /// Parameters calibrated to the 16-node RS/6000 SP of the paper.
    pub fn sp_1997() -> PiofsConfig {
        PiofsConfig {
            n_servers: 16,
            stripe_unit: 64 * 1024,
            server_write_bw: 1.35e6,
            server_disk_read_bw: 3.0e6,
            server_serve_bw: 25.0e6,
            chunk_overhead_write: 0.080,
            chunk_overhead_read: 0.010,
            client_write_bw: 13.0e6,
            client_read_bw: 3.6e6,
            client_strided_read_bw: 0.55e6,
            piece_overhead: 0.004,
            node_mem: 128 << 20,
            os_resident: 25 << 20,
            stream_buffer: 4 << 20,
            io_buffer: 8 << 20,
            thrash_floor: 0.25,
            thrash_floor_write: 0.5,
            read_buffer_cutoff: 0.65,
            paging_factor: 0.35,
            interference: 0.65,
            occupancy_write_penalty: 0.35,
            op_overhead: 2e-3,
            jitter_sigma: 0.05,
            parity: false,
        }
    }

    /// A fast, deterministic configuration for functional tests: generous
    /// bandwidths, no jitter, no memory pressure.
    pub fn test_tiny(n_servers: usize) -> PiofsConfig {
        PiofsConfig {
            n_servers,
            stripe_unit: 1024,
            server_write_bw: 1e9,
            server_disk_read_bw: 1e9,
            server_serve_bw: 1e9,
            chunk_overhead_write: 0.0,
            chunk_overhead_read: 0.0,
            client_write_bw: 1e9,
            client_read_bw: 1e9,
            client_strided_read_bw: 1e9,
            piece_overhead: 0.0,
            node_mem: 1 << 40,
            os_resident: 0,
            stream_buffer: 1,
            io_buffer: 0,
            thrash_floor: 1.0,
            thrash_floor_write: 1.0,
            read_buffer_cutoff: 0.0,
            paging_factor: 1.0,
            interference: 1.0,
            occupancy_write_penalty: 0.0,
            op_overhead: 0.0,
            jitter_sigma: 0.0,
            parity: false,
        }
    }

    /// Enables RAID-5-style XOR parity striping (see the `parity` field).
    pub fn with_parity(mut self) -> PiofsConfig {
        assert!(self.n_servers >= 2, "parity needs at least two servers");
        self.parity = true;
        self
    }

    /// The parity geometry in effect, when parity striping is enabled.
    pub fn parity_geom(&self) -> Option<crate::parity::ParityGeom> {
        (self.parity && self.n_servers >= 2).then_some(crate::parity::ParityGeom {
            stripe_unit: self.stripe_unit,
            n_servers: self.n_servers,
        })
    }

    /// Chunk size of the integrity records ([`crate::integrity`]): the
    /// stripe unit, clamped to a sane range. Matching the stripe unit means a
    /// failing chunk maps directly onto the stripe units a parity repair
    /// must reconstruct.
    pub fn integrity_chunk(&self) -> u64 {
        self.stripe_unit.clamp(1024, 1 << 20)
    }

    /// Scales every byte-denominated memory parameter **and** every fixed
    /// time overhead by `f`.
    ///
    /// Used to run the paper's experiments at reduced problem scale:
    /// scaling memory alone preserves the buffer-threshold crossings
    /// (thresholds are ratios of bytes), and scaling the fixed per-chunk /
    /// per-op costs by the same factor makes *every* simulated time shrink
    /// linearly — so a class-W run is a 1/8-scale exact replica of the
    /// class-A shapes, not just a qualitative approximation.
    pub fn scale_memory(mut self, f: f64) -> PiofsConfig {
        let scale = |v: u64| -> u64 { ((v as f64) * f).round() as u64 };
        self.node_mem = scale(self.node_mem);
        self.os_resident = scale(self.os_resident);
        self.stream_buffer = scale(self.stream_buffer).max(1);
        self.io_buffer = scale(self.io_buffer);
        self.stripe_unit = scale(self.stripe_unit).max(64);
        self.chunk_overhead_write *= f;
        self.chunk_overhead_read *= f;
        self.piece_overhead *= f;
        self.op_overhead *= f;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sp_preset_is_sane() {
        let c = PiofsConfig::sp_1997();
        assert_eq!(c.n_servers, 16);
        assert!(c.client_read_bw > 0.0 && c.client_read_bw < c.client_write_bw);
        assert!(c.client_strided_read_bw < c.client_read_bw);
        assert!(c.interference > 0.0 && c.interference < 1.0);
        assert!(c.os_resident < c.node_mem);
    }

    #[test]
    fn memory_scaling_preserves_ratios() {
        let c = PiofsConfig::sp_1997();
        let s = c.clone().scale_memory(0.125);
        assert_eq!(s.node_mem, c.node_mem / 8);
        assert_eq!(s.os_resident, c.os_resident / 8);
        // Threshold ratios preserved.
        let r0 = c.os_resident as f64 / c.node_mem as f64;
        let r1 = s.os_resident as f64 / s.node_mem as f64;
        assert!((r0 - r1).abs() < 1e-6);
    }
}
