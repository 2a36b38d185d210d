//! Hardware topology of the simulated cluster.
//!
//! Frontier numbers from the paper (Sec. IV) and public system docs: each
//! node has one 64-core EPYC and 4 MI250X cards; each card holds two GCDs
//! ("GPUs") with 64 GB HBM each; GCDs on a card talk over in-package
//! Infinity Fabric, cards over 50 GB/s Infinity Fabric links, nodes over
//! 100 GB/s Slingshot-11.

/// One GPU (MI250X GCD).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// HBM capacity in bytes.
    pub mem_bytes: u64,
    /// Peak BF16 throughput in FLOP/s.
    pub peak_bf16_flops: f64,
    /// HBM bandwidth in bytes/s.
    pub hbm_bw: f64,
}

/// A communication link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Per-message latency in seconds.
    pub latency: f64,
}

/// Hierarchy level over which a group of ranks communicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CommLevel {
    /// Same MI250X card (two GCDs).
    IntraCard,
    /// Different cards, same node.
    InterCard,
    /// Different nodes.
    InterNode,
}

/// The whole cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// GPU (GCD) description.
    pub gpu: GpuSpec,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// GPUs per MI250X card.
    pub gpus_per_card: usize,
    /// Link between the two GCDs of a card.
    pub intra_card: LinkSpec,
    /// Link between cards of a node.
    pub inter_card: LinkSpec,
    /// Link between nodes (per-node NIC bandwidth).
    pub inter_node: LinkSpec,
    /// Total number of nodes available.
    pub num_nodes: usize,
}

impl ClusterSpec {
    /// The Frontier configuration used throughout the paper.
    pub fn frontier() -> Self {
        Self {
            gpu: GpuSpec {
                mem_bytes: 64 * (1 << 30),
                // MI250X: 383 TFLOP/s BF16 per card => 191.5 per GCD.
                peak_bf16_flops: 191.5e12,
                hbm_bw: 1.6e12,
            },
            gpus_per_node: 8,
            gpus_per_card: 2,
            intra_card: LinkSpec { bandwidth: 200e9, latency: 1e-6 },
            inter_card: LinkSpec { bandwidth: 50e9, latency: 2e-6 },
            inter_node: LinkSpec { bandwidth: 100e9, latency: 5e-6 },
            num_nodes: 9408,
        }
    }

    /// Total GPU count.
    pub(crate) fn total_gpus(&self) -> usize {
        self.num_nodes * self.gpus_per_node
    }

    /// Node index of a global rank.
    pub(crate) fn node_of(&self, rank: usize) -> usize {
        rank / self.gpus_per_node
    }

    /// Card index (global) of a rank.
    fn card_of(&self, rank: usize) -> usize {
        rank / self.gpus_per_card
    }

    /// The widest hierarchy level spanned by a group of ranks — this is the
    /// bottleneck link for a collective over the group.
    pub(crate) fn group_level(&self, ranks: &[usize]) -> CommLevel {
        assert!(!ranks.is_empty());
        let node0 = self.node_of(ranks[0]);
        let card0 = self.card_of(ranks[0]);
        let mut level = CommLevel::IntraCard;
        for &r in &ranks[1..] {
            if self.node_of(r) != node0 {
                return CommLevel::InterNode;
            }
            if self.card_of(r) != card0 {
                level = CommLevel::InterCard;
            }
        }
        level
    }

    /// Link description for a hierarchy level.
    pub(crate) fn link(&self, level: CommLevel) -> LinkSpec {
        match level {
            CommLevel::IntraCard => self.intra_card,
            CommLevel::InterCard => self.inter_card,
            CommLevel::InterNode => self.inter_node,
        }
    }

    /// Effective per-GPU bandwidth for a collective over `ranks`: the
    /// bottleneck link's bandwidth, shared by the ranks of this group living
    /// on the same node when crossing node boundaries.
    pub(crate) fn effective_bandwidth(&self, ranks: &[usize]) -> f64 {
        let level = self.group_level(ranks);
        let link = self.link(level);
        if level == CommLevel::InterNode {
            // The node NIC is shared by every group member on that node.
            let mut per_node = std::collections::BTreeMap::new();
            for &r in ranks {
                *per_node.entry(self.node_of(r)).or_insert(0usize) += 1;
            }
            let max_sharers = per_node.values().copied().max().unwrap_or(1) as f64;
            link.bandwidth / max_sharers
        } else {
            link.bandwidth
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_scale_matches_paper() {
        let c = ClusterSpec::frontier();
        assert_eq!(c.total_gpus(), 75_264);
        // The paper's largest run: 4096 nodes = 32,768 GPUs fits.
        assert!(4096 * c.gpus_per_node <= c.total_gpus());
        assert_eq!(c.gpu.mem_bytes, 64 * (1 << 30));
    }

    #[test]
    fn rank_mapping() {
        let c = ClusterSpec::frontier();
        assert_eq!(c.node_of(7), 0);
        assert_eq!(c.node_of(8), 1);
        assert_eq!(c.card_of(1), 0);
        assert_eq!(c.card_of(2), 1);
    }

    #[test]
    fn group_levels() {
        let c = ClusterSpec::frontier();
        assert_eq!(c.group_level(&[0, 1]), CommLevel::IntraCard);
        assert_eq!(c.group_level(&[0, 2]), CommLevel::InterCard);
        assert_eq!(c.group_level(&[0, 5, 7]), CommLevel::InterCard);
        assert_eq!(c.group_level(&[0, 8]), CommLevel::InterNode);
        assert_eq!(c.group_level(&[3]), CommLevel::IntraCard);
    }

    #[test]
    fn bandwidth_hierarchy_ordering() {
        let c = ClusterSpec::frontier();
        assert!(c.intra_card.bandwidth > c.inter_card.bandwidth);
        // Paper: 50 GB/s between cards, 100 GB/s between nodes (NIC), but
        // the NIC is shared by 8 GPUs so per-GPU inter-node < inter-card.
        let inter_node_group: Vec<usize> = (0..16).collect(); // 2 full nodes
        assert!(c.effective_bandwidth(&inter_node_group) < c.inter_card.bandwidth);
    }

    #[test]
    fn effective_bandwidth_sharing() {
        let c = ClusterSpec::frontier();
        // One GPU per node across 4 nodes: full NIC each.
        let sparse: Vec<usize> = (0..4).map(|n| n * 8).collect();
        assert_eq!(c.effective_bandwidth(&sparse), 100e9);
        // 8 GPUs of one node + 1 remote: NIC shared by 8.
        let mut dense: Vec<usize> = (0..8).collect();
        dense.push(8);
        assert_eq!(c.effective_bandwidth(&dense), 100e9 / 8.0);
    }
}
