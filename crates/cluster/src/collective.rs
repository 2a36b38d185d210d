//! α-β cost models for the collectives used by the orthogonal parallelisms.
//!
//! Ring algorithms: an all-reduce of `b` bytes over `n` ranks moves
//! `2(n-1)/n · b` per rank; all-gather/reduce-scatter move `(n-1)/n · b`.
//! Latency contributes one link-latency per ring step. The bandwidth used is
//! the *bottleneck* of the group's spanning level (see
//! `ClusterSpec::effective_bandwidth`).

use crate::topology::ClusterSpec;

/// The collective operations the parallelism layer issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    /// Sum-reduce to all ranks (gradient averaging, tensor-parallel sync).
    AllReduce,
    /// Gather shards to all ranks (FSDP parameter gathering).
    AllGather,
    /// Reduce then scatter shards (FSDP gradient reduction).
    ReduceScatter,
    /// Point-to-point halo exchange with direct neighbours.
    HaloExchange,
}

/// Time in seconds for a collective of `bytes` over the ranks in `group`.
///
/// Returns 0 for single-rank groups (no communication needed).
pub fn collective_time(op: Collective, bytes: u64, group: &[usize], cluster: &ClusterSpec) -> f64 {
    let n = group.len();
    if n <= 1 {
        return 0.0;
    }
    let bw = cluster.effective_bandwidth(group);
    let lat = cluster.link(cluster.group_level(group)).latency;
    let b = bytes as f64;
    let nf = n as f64;
    // Latency steps: libraries switch from the bandwidth-optimal ring
    // (n-1 steps) to tree/recursive-doubling algorithms (~2 log2 n steps)
    // once groups get large; model the better of the two.
    let lat_steps = (nf - 1.0).min(2.0 * nf.log2().ceil().max(1.0));
    match op {
        Collective::AllReduce => 2.0 * (nf - 1.0) / nf * b / bw + 2.0 * lat_steps * lat,
        Collective::AllGather | Collective::ReduceScatter => (nf - 1.0) / nf * b / bw + lat_steps * lat,
        // Halo exchange: each rank swaps with up to 4 neighbours in
        // parallel; time is one neighbour volume each way.
        Collective::HaloExchange => 2.0 * b / bw + 2.0 * lat,
    }
}

/// A convenience: time for a hierarchical all-reduce that reduces within
/// nodes first, then across nodes, then broadcasts back — the standard
/// optimization for gradient averaging over many nodes.
pub fn hierarchical_allreduce_time(bytes: u64, group: &[usize], cluster: &ClusterSpec) -> f64 {
    let n = group.len();
    if n <= 1 {
        return 0.0;
    }
    // Partition by node.
    let mut per_node: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for &r in group {
        per_node.entry(cluster.node_of(r)).or_default().push(r);
    }
    if per_node.len() == 1 {
        return collective_time(Collective::AllReduce, bytes, group, cluster);
    }
    // Intra-node reduce-scatter + inter-node all-reduce over node leaders +
    // intra-node all-gather.
    let widest_node = per_node.values().max_by_key(|v| v.len()).unwrap();
    let intra = collective_time(Collective::ReduceScatter, bytes, widest_node, cluster)
        + collective_time(Collective::AllGather, bytes, widest_node, cluster);
    let leaders: Vec<usize> = per_node.values().map(|v| v[0]).collect();
    let shard = bytes / widest_node.len().max(1) as u64;
    let inter = collective_time(Collective::AllReduce, shard, &leaders, cluster);
    intra + inter
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c() -> ClusterSpec {
        ClusterSpec::frontier()
    }

    #[test]
    fn single_rank_is_free() {
        assert_eq!(collective_time(Collective::AllReduce, 1 << 30, &[3], &c()), 0.0);
    }

    #[test]
    fn allreduce_costs_twice_allgather() {
        let g: Vec<usize> = (0..8).collect();
        let ar = collective_time(Collective::AllReduce, 1 << 30, &g, &c());
        let ag = collective_time(Collective::AllGather, 1 << 30, &g, &c());
        assert!((ar / ag - 2.0).abs() < 0.01);
    }

    #[test]
    fn more_bytes_more_time() {
        let g: Vec<usize> = (0..4).collect();
        let t1 = collective_time(Collective::AllReduce, 1 << 20, &g, &c());
        let t2 = collective_time(Collective::AllReduce, 1 << 24, &g, &c());
        assert!(t2 > t1 * 10.0);
    }

    #[test]
    fn intra_node_faster_than_inter_node() {
        // Same byte volume, same group size: staying inside a node wins when
        // the NIC is shared (two half-populated nodes -> 4 GPUs per NIC).
        let intra: Vec<usize> = (0..8).collect();
        let inter: Vec<usize> = vec![0, 1, 2, 3, 8, 9, 10, 11];
        let ti = collective_time(Collective::AllReduce, 1 << 28, &intra, &c());
        let tx = collective_time(Collective::AllReduce, 1 << 28, &inter, &c());
        assert!(ti < tx, "intra {ti} vs inter {tx}");
        // One GPU per node, by contrast, owns the full 100 GB/s NIC and can
        // beat the 50 GB/s inter-card fabric (the mapping logic of Fig. 5
        // exploits exactly this asymmetry).
        let sparse: Vec<usize> = (0..8).map(|i| i * 8).collect();
        let ts = collective_time(Collective::AllReduce, 1 << 28, &sparse, &c());
        assert!(ts < ti);
    }

    #[test]
    fn allreduce_bandwidth_term_saturates_with_ranks() {
        // The 2(n-1)/n factor approaches 2: going from 16 to 1024 ranks (one
        // per node) should not blow up the bandwidth term.
        let g16: Vec<usize> = (0..16).map(|i| i * 8).collect();
        let g1024: Vec<usize> = (0..1024).map(|i| i * 8).collect();
        let t16 = collective_time(Collective::AllReduce, 1 << 28, &g16, &c());
        let t1024 = collective_time(Collective::AllReduce, 1 << 28, &g1024, &c());
        // Bandwidth term saturates at 2x the volume; only the per-step ring
        // latency grows with rank count.
        assert!(t1024 < t16 * 4.0, "ring all-reduce must scale: {t16} -> {t1024}");
        assert!(hierarchical_allreduce_time(1 << 28, &g1024, &c()) <= t1024);
    }

    #[test]
    fn hierarchical_beats_flat_at_scale() {
        let cluster = c();
        // 64 nodes fully populated.
        let group: Vec<usize> = (0..512).collect();
        let flat = collective_time(Collective::AllReduce, 1 << 30, &group, &cluster);
        let hier = hierarchical_allreduce_time(1 << 30, &group, &cluster);
        assert!(hier < flat, "hierarchical {hier} vs flat {flat}");
    }

    #[test]
    fn halo_exchange_is_cheap() {
        let g: Vec<usize> = (0..16).collect();
        let halo = collective_time(Collective::HaloExchange, 1 << 20, &g, &c());
        let ar = collective_time(Collective::AllReduce, 1 << 20, &g, &c());
        assert!(halo < ar);
    }
}
