//! Deterministic pricing of I/O phases.
//!
//! A *phase* is a set of read/write requests issued together (one collective
//! call, or a single task's private operation). Pricing is a pure function
//! of the configuration, the per-server busy horizon, the per-node memory
//! residency, and the request descriptors — given the same inputs and RNG
//! state it always produces the same completion times, which is what makes
//! simulated runs reproducible per seed.

use std::collections::HashMap;

use crate::config::PiofsConfig;
use crate::rng::SplitMix64;
use crate::stripe::{striped_bytes, IntervalSet};

/// How a read request accesses the file, which decides the client-side
/// prefetch efficiency (paper, Section 5: PIOFS prefetch makes sequential
/// reads fast; the strided 1 MB pieces of parallel array streaming do not
/// pipeline as well).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadAccess {
    /// One large in-order scan of a file region.
    Sequential,
    /// Scattered pieces at computed offsets.
    Strided,
}

/// A write request, carried by the issuing task. The payload is an owned
/// buffer by default; a request may lend its bytes instead (`&[u8]`), and
/// [`crate::Piofs::collective_write`] stores either the same way.
#[derive(Debug, Clone)]
pub struct WriteReq<D = Vec<u8>> {
    /// Logical file path.
    pub path: String,
    /// Byte offset of the write.
    pub offset: u64,
    /// Payload.
    pub data: D,
}

/// A read request.
#[derive(Debug, Clone)]
pub struct ReadReq {
    /// Logical file path.
    pub path: String,
    /// Byte offset of the read.
    pub offset: u64,
    /// Bytes to read.
    pub len: u64,
    /// Access pattern hint.
    pub access: ReadAccess,
}

/// Request descriptor: what pricing needs to know (no payload bytes).
#[derive(Debug, Clone)]
pub(crate) struct ReqDesc {
    /// Issuing task rank.
    pub client: usize,
    /// Node hosting the issuing task.
    pub node: usize,
    /// Interned file identity (for unique-byte grouping).
    pub path_id: u64,
    /// Byte offset.
    pub offset: u64,
    /// Byte length.
    pub len: u64,
    /// Operation kind.
    pub kind: DescKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DescKind {
    Write,
    Read(ReadAccess),
}

/// Outcome of pricing a phase.
#[derive(Debug, Clone)]
pub(crate) struct Pricing {
    /// Phase start (max participant clock + op overhead). Anchors the
    /// phase span reported to the observability recorder.
    pub t0: f64,
    /// Completion time per client rank (clients with no requests complete
    /// at `t0`).
    pub completion: HashMap<usize, f64>,
    /// New per-server busy horizon.
    pub server_busy: Vec<f64>,
    /// Busy interval `(server, start, end)` of each server that did work in
    /// this phase: start is the later of the server's prior busy horizon
    /// and `t0`, end is its new horizon. Exported to the observability
    /// recorder for per-server utilization/Gantt attribution.
    pub server_spans: Vec<(usize, f64, f64)>,
}

/// Prices one phase. `busy` and `residency` are indexed by node; `t_sync`
/// is the synchronized start time (max of participant clocks).
pub(crate) fn price_phase(
    cfg: &PiofsConfig,
    busy: &[f64],
    residency: &[u64],
    t_sync: f64,
    reqs: &[ReqDesc],
    participants: &[usize],
    rng: &mut SplitMix64,
) -> Pricing {
    let n = cfg.n_servers;
    debug_assert_eq!(busy.len(), n);
    debug_assert_eq!(residency.len(), n);
    let t0 = t_sync + cfg.op_overhead;

    // ---- phase-wide facts -------------------------------------------
    let occupied = residency.iter().filter(|&&r| r > 0).count();
    let frac_occ = occupied as f64 / n.max(1) as f64;
    let streams = {
        let mut set: Vec<(usize, u64)> = reqs.iter().map(|r| (r.client, r.path_id)).collect();
        set.sort_unstable();
        set.dedup();
        set.len().max(1)
    };
    let need = streams as u64 * cfg.stream_buffer;

    let avail = |k: usize| -> u64 {
        cfg.node_mem.saturating_sub(cfg.os_resident).saturating_sub(residency[k])
    };
    // Server buffer efficiency. Writes (write-behind) degrade gently and
    // linearly; reads (prefetch) hold full efficiency down to a cutoff and
    // then collapse quadratically — the threshold the paper observes when
    // conventional restarts outgrow PIOFS buffer memory.
    let ratio = |k: usize| avail(k) as f64 / need.max(1) as f64;
    let beff_write = |k: usize| -> f64 { ratio(k).clamp(cfg.thrash_floor_write, 1.0) };
    let beff_read = |k: usize| -> f64 {
        let r = ratio(k);
        if r >= cfg.read_buffer_cutoff {
            1.0
        } else {
            (r * r).clamp(cfg.thrash_floor, 1.0)
        }
    };
    let interf = |k: usize| -> f64 {
        if residency[k] > 0 {
            cfg.interference
        } else {
            1.0
        }
    };
    let paging = |node: usize| -> f64 {
        if cfg.os_resident + residency[node.min(n - 1)] + cfg.io_buffer > cfg.node_mem {
            cfg.paging_factor
        } else {
            1.0
        }
    };

    // ---- server loads ------------------------------------------------
    // Unique read bytes per file (prefetched from disk once; extra copies
    // served from buffer).
    let mut uniq: HashMap<u64, IntervalSet> = HashMap::new();
    for r in reqs {
        if matches!(r.kind, DescKind::Read(_)) {
            uniq.entry(r.path_id).or_default().insert(r.offset, r.offset + r.len);
        }
    }

    let mut server_time = vec![0.0f64; n];
    #[allow(clippy::needless_range_loop)] // k indexes several parallel tables
    for k in 0..n {
        let mut w_load = 0u64;
        let mut r_total = 0u64;
        let mut w_chunks = 0usize;
        let mut r_chunks = 0usize;
        for r in reqs {
            let b = striped_bytes(cfg.stripe_unit, n, r.offset, r.offset + r.len, k);
            if b == 0 {
                continue;
            }
            match r.kind {
                DescKind::Write => {
                    w_load += b;
                    w_chunks += 1;
                }
                DescKind::Read(_) => {
                    r_total += b;
                    r_chunks += 1;
                }
            }
        }
        let u_k: u64 = uniq.values().map(|set| set.striped_total(cfg.stripe_unit, n, k)).sum();
        let mut t = 0.0;
        if w_load > 0 || w_chunks > 0 {
            t += w_load as f64 / (cfg.server_write_bw * interf(k) * beff_write(k))
                + w_chunks as f64 * cfg.chunk_overhead_write;
        }
        if r_total > 0 || r_chunks > 0 {
            t += u_k as f64 / (cfg.server_disk_read_bw * interf(k) * beff_read(k))
                + r_total as f64 / cfg.server_serve_bw
                + r_chunks as f64 * cfg.chunk_overhead_read;
        }
        server_time[k] = t;
    }
    let server_finish: Vec<f64> = (0..n).map(|k| busy[k].max(t0) + server_time[k]).collect();
    let server_spans: Vec<(usize, f64, f64)> = (0..n)
        .filter(|&k| server_time[k] > 0.0)
        .map(|k| (k, busy[k].max(t0), server_finish[k]))
        .collect();

    // ---- client times --------------------------------------------------
    let occ_pen = 1.0 - frac_occ * cfg.occupancy_write_penalty;
    let mut client_time: HashMap<usize, f64> = HashMap::new();
    let mut client_servers: HashMap<usize, Vec<bool>> = HashMap::new();
    for r in reqs {
        let ct = client_time.entry(r.client).or_insert(0.0);
        match r.kind {
            DescKind::Write => {
                *ct += r.len as f64 / (cfg.client_write_bw * occ_pen * paging(r.node))
                    + cfg.piece_overhead;
            }
            DescKind::Read(access) => {
                let rate = match access {
                    ReadAccess::Sequential => cfg.client_read_bw,
                    ReadAccess::Strided => cfg.client_strided_read_bw,
                };
                *ct += r.len as f64 / (rate * paging(r.node)) + cfg.piece_overhead;
            }
        }
        let touched = client_servers.entry(r.client).or_insert_with(|| vec![false; n]);
        for (k, slot) in touched.iter_mut().enumerate() {
            if striped_bytes(cfg.stripe_unit, n, r.offset, r.offset + r.len, k) > 0 {
                *slot = true;
            }
        }
    }

    // ---- completion per participant, with per-client jitter -----------
    let mut completion = HashMap::new();
    let mut sorted: Vec<usize> = participants.to_vec();
    sorted.sort_unstable();
    for c in sorted {
        let base = match client_time.get(&c) {
            Some(&ct) => {
                let server_gate = client_servers[&c]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &touched)| touched)
                    .map(|(k, _)| server_finish[k])
                    .fold(f64::NEG_INFINITY, f64::max);
                (t0 + ct).max(server_gate)
            }
            None => t0,
        };
        let jit = rng.jitter(cfg.jitter_sigma);
        completion.insert(c, t0 + (base - t0) * jit);
    }

    Pricing { t0, completion, server_busy: server_finish, server_spans }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PiofsConfig {
        let mut c = PiofsConfig::sp_1997();
        c.jitter_sigma = 0.0;
        c.op_overhead = 0.0;
        c
    }

    fn write_desc(client: usize, node: usize, path: u64, len: u64) -> ReqDesc {
        ReqDesc { client, node, path_id: path, offset: 0, len, kind: DescKind::Write }
    }

    fn read_desc(client: usize, node: usize, path: u64, len: u64, access: ReadAccess) -> ReqDesc {
        ReqDesc { client, node, path_id: path, offset: 0, len, kind: DescKind::Read(access) }
    }

    #[test]
    fn empty_phase_completes_at_t0() {
        let c = cfg();
        let mut rng = SplitMix64::new(1);
        let p = price_phase(&c, &[0.0; 16], &[0; 16], 5.0, &[], &[0, 1], &mut rng);
        assert_eq!(p.completion[&0], 5.0);
        assert_eq!(p.completion[&1], 5.0);
    }

    #[test]
    fn single_sequential_write_is_client_limited_on_idle_system() {
        let c = cfg();
        let mut rng = SplitMix64::new(1);
        let len = 64 << 20; // 64 MB
        let reqs = vec![write_desc(0, 0, 0, len)];
        let p = price_phase(&c, &[0.0; 16], &[0; 16], 0.0, &reqs, &[0], &mut rng);
        let t = p.completion[&0];
        // Client limit: 64 MB / 13 MB/s ~ 5.16 s; aggregate server capacity
        // 16 x 1.35 = 21.6 MB/s would finish sooner.
        let client_limit = len as f64 / c.client_write_bw;
        assert!((t - client_limit).abs() / client_limit < 0.05, "t = {t}");
    }

    #[test]
    fn co_location_interference_slows_writes() {
        let c = cfg();
        let mut rng = SplitMix64::new(1);
        let len: u64 = 64 << 20;
        let idle = price_phase(
            &c,
            &[0.0; 16],
            &[0; 16],
            0.0,
            &(0..16).map(|i| write_desc(i, i, i as u64, len / 16)).collect::<Vec<_>>(),
            &(0..16).collect::<Vec<_>>(),
            &mut rng,
        );
        let mut rng = SplitMix64::new(1);
        let occupied = price_phase(
            &c,
            &[0.0; 16],
            &[64 << 20; 16],
            0.0,
            &(0..16).map(|i| write_desc(i, i, i as u64, len / 16)).collect::<Vec<_>>(),
            &(0..16).collect::<Vec<_>>(),
            &mut rng,
        );
        let t_idle = idle.completion.values().cloned().fold(0.0, f64::max);
        let t_occ = occupied.completion.values().cloned().fold(0.0, f64::max);
        assert!(t_occ > t_idle, "occupied {t_occ} vs idle {t_idle}");
    }

    #[test]
    fn shared_file_read_is_client_limited_and_scales() {
        // All clients read the same 32 MB file: per-client time roughly
        // constant, so doubling clients doubles aggregate rate.
        let c = cfg();
        let len: u64 = 32 << 20;
        let per_client = |p_clients: usize| -> f64 {
            let mut rng = SplitMix64::new(1);
            let reqs: Vec<ReqDesc> =
                (0..p_clients).map(|i| read_desc(i, i, 0, len, ReadAccess::Sequential)).collect();
            let parts: Vec<usize> = (0..p_clients).collect();
            let pr = price_phase(&c, &[0.0; 16], &[1; 16], 0.0, &reqs, &parts, &mut rng);
            pr.completion.values().cloned().fold(0.0, f64::max)
        };
        let t8 = per_client(8);
        let t16 = per_client(16);
        assert!((t8 - t16).abs() / t8 < 0.25, "t8 {t8} t16 {t16}");
        // And roughly the client sequential-read time.
        let expect = len as f64 / c.client_read_bw;
        assert!((t8 - expect).abs() / expect < 0.3, "t8 {t8} expect {expect}");
    }

    #[test]
    fn distinct_file_reads_thrash_when_buffers_tight() {
        let mut c = cfg();
        c.thrash_floor = 0.2;
        let len: u64 = 60 << 20;
        // 16 clients read 16 distinct large files; nodes heavily resident.
        let heavy: Vec<u64> = vec![80 << 20; 16];
        let light: Vec<u64> = vec![1 << 20; 16];
        let reqs: Vec<ReqDesc> =
            (0..16).map(|i| read_desc(i, i, i as u64, len, ReadAccess::Sequential)).collect();
        let parts: Vec<usize> = (0..16).collect();
        let mut rng = SplitMix64::new(1);
        let t_heavy = price_phase(&c, &[0.0; 16], &heavy, 0.0, &reqs, &parts, &mut rng)
            .completion
            .values()
            .cloned()
            .fold(0.0, f64::max);
        let mut rng = SplitMix64::new(1);
        let t_light = price_phase(&c, &[0.0; 16], &light, 0.0, &reqs, &parts, &mut rng)
            .completion
            .values()
            .cloned()
            .fold(0.0, f64::max);
        assert!(t_heavy > 2.0 * t_light, "expected collapse: heavy {t_heavy} vs light {t_light}");
    }

    #[test]
    fn strided_reads_slower_than_sequential() {
        let c = cfg();
        let len: u64 = 8 << 20;
        let mut rng = SplitMix64::new(1);
        let seq = price_phase(
            &c,
            &[0.0; 16],
            &[1; 16],
            0.0,
            &[read_desc(0, 0, 0, len, ReadAccess::Sequential)],
            &[0],
            &mut rng,
        )
        .completion[&0];
        let mut rng = SplitMix64::new(1);
        let strided = price_phase(
            &c,
            &[0.0; 16],
            &[1; 16],
            0.0,
            &[read_desc(0, 0, 0, len, ReadAccess::Strided)],
            &[0],
            &mut rng,
        )
        .completion[&0];
        assert!(strided > 3.0 * seq, "strided {strided} seq {seq}");
    }

    #[test]
    fn busy_servers_delay_phase() {
        let c = cfg();
        let mut rng = SplitMix64::new(1);
        let busy = vec![100.0; 16];
        let p =
            price_phase(&c, &busy, &[0; 16], 0.0, &[write_desc(0, 0, 0, 1 << 20)], &[0], &mut rng);
        assert!(p.completion[&0] > 100.0);
    }

    #[test]
    fn paging_penalizes_oversubscribed_client_nodes() {
        let c = cfg();
        let len: u64 = 16 << 20;
        // Residency such that os + resident + io_buffer exceeds node memory.
        let paging_res = c.node_mem - c.os_resident - c.io_buffer + 1;
        let mut rng = SplitMix64::new(1);
        let slow = price_phase(
            &c,
            &[0.0; 16],
            &[paging_res; 16],
            0.0,
            &[read_desc(0, 0, 0, len, ReadAccess::Sequential)],
            &[0],
            &mut rng,
        )
        .completion[&0];
        let mut rng = SplitMix64::new(1);
        let fast = price_phase(
            &c,
            &[0.0; 16],
            &[1 << 20; 16],
            0.0,
            &[read_desc(0, 0, 0, len, ReadAccess::Sequential)],
            &[0],
            &mut rng,
        )
        .completion[&0];
        assert!(slow > 1.5 * fast, "paging {slow} vs normal {fast}");
    }

    #[test]
    fn jitter_perturbs_but_preserves_mean() {
        let mut c = cfg();
        c.jitter_sigma = 0.05;
        let len: u64 = 8 << 20;
        let mut times = Vec::new();
        for seed in 0..200 {
            let mut rng = SplitMix64::new(seed);
            let p = price_phase(
                &c,
                &[0.0; 16],
                &[0; 16],
                0.0,
                &[write_desc(0, 0, 0, len)],
                &[0],
                &mut rng,
            );
            times.push(p.completion[&0]);
        }
        let mean: f64 = times.iter().sum::<f64>() / times.len() as f64;
        let base = len as f64 / PiofsConfig::sp_1997().client_write_bw;
        assert!((mean - base).abs() / base < 0.05);
        let spread = times.iter().cloned().fold(0.0f64, f64::max)
            - times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.0);
    }
}
