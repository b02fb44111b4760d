/// Per-task virtual clock, in simulated seconds since region start.
///
/// Clocks only move forward. Synchronizing operations (barriers, collectives,
/// collective I/O phases) reconcile the clocks of participating tasks by
/// taking the maximum, exactly like wall time would on real hardware.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimClock {
    now: f64,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> SimClock {
        SimClock { now: 0.0 }
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances the clock by `dt` seconds (`dt >= 0`).
    pub fn advance(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0, "clock must not run backwards (dt = {dt})");
        debug_assert!(dt.is_finite());
        self.now += dt.max(0.0);
    }

    /// Moves the clock forward to `t` if `t` is later than now.
    pub fn advance_to(&mut self, t: f64) {
        if t > self.now {
            self.now = t;
        }
    }
}

/// Communication cost model for the simulated interconnect.
///
/// The defaults are calibrated to the multistage switch of the 16-node
/// RS/6000 SP used in the paper (thin nodes, MPL user-space protocol):
/// ~40 µs one-way latency and ~35 MB/s point-to-point bandwidth, which is
/// what contemporaneous measurements of the SP2 switch reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// One-way wire latency per message, seconds.
    pub latency: f64,
    /// Point-to-point bandwidth, bytes per second.
    pub bandwidth: f64,
    /// Sender-side software overhead per message, seconds.
    pub send_overhead: f64,
    /// Receiver-side software overhead per message, seconds.
    pub recv_overhead: f64,
    /// Fixed cost of a barrier once all tasks have arrived, seconds.
    pub barrier_cost: f64,
    /// Local memory copy bandwidth, bytes per second — charged for packing
    /// and unpacking during redistribution (67 MHz POWER2 thin nodes moved
    /// on the order of 80 MB/s).
    pub memcpy_bw: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            latency: 40e-6,
            bandwidth: 35.0e6,
            send_overhead: 15e-6,
            recv_overhead: 15e-6,
            barrier_cost: 60e-6,
            memcpy_bw: 80.0e6,
        }
    }
}

impl CostModel {
    /// A zero-cost model: useful for tests that check data movement only.
    pub fn free() -> CostModel {
        CostModel {
            latency: 0.0,
            bandwidth: f64::INFINITY,
            send_overhead: 0.0,
            recv_overhead: 0.0,
            barrier_cost: 0.0,
            memcpy_bw: f64::INFINITY,
        }
    }

    /// Time for `bytes` to cross one link, excluding latency.
    pub fn wire_time(&self, bytes: usize) -> f64 {
        bytes as f64 / self.bandwidth
    }

    /// Cost of a `log2(P)`-stage collective's latency component.
    pub fn collective_latency(&self, ntasks: usize) -> f64 {
        let stages = (ntasks.max(1) as f64).log2().ceil();
        stages * self.latency + self.barrier_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(1.5);
        assert_eq!(c.now(), 1.5);
        c.advance_to(1.0); // no-op: earlier than now
        assert_eq!(c.now(), 1.5);
        c.advance_to(2.0);
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    fn free_model_is_free() {
        let m = CostModel::free();
        assert_eq!(m.wire_time(1 << 30), 0.0);
        assert_eq!(m.collective_latency(16), 0.0);
    }

    #[test]
    fn collective_latency_scales_log2() {
        let m = CostModel { latency: 1.0, barrier_cost: 0.0, ..CostModel::default() };
        assert_eq!(m.collective_latency(1), 0.0);
        assert_eq!(m.collective_latency(2), 1.0);
        assert_eq!(m.collective_latency(8), 3.0);
        assert_eq!(m.collective_latency(9), 4.0);
    }

    #[test]
    fn wire_time_proportional_to_bytes() {
        let m = CostModel { bandwidth: 1e6, ..CostModel::default() };
        assert!((m.wire_time(2_000_000) - 2.0).abs() < 1e-12);
    }
}
