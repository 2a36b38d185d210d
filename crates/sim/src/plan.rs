//! The orthogonal parallelism plan and its mapping onto the cluster.
//!
//! Rank layout (Fig. 5): global rank `r` decomposes as
//! `r = ((d·T + t)·F + f)·P + p` with `p` the tensor-parallel coordinate
//! (innermost, so TP groups are contiguous ranks inside a node), `f` the
//! FSDP coordinate (spanning the neighbouring nodes of a TILES group), `t`
//! the TILES tile index, and `d` the DDP replica (outermost, across the
//! cluster).

use crate::topology::{ClusterSpec, CommLevel};

/// Degrees of each orthogonal parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelismPlan {
    /// Data-parallel replicas (outermost).
    pub ddp: usize,
    /// TILES sequence-parallel degree (tiles per sample).
    pub tiles: usize,
    /// FSDP sharding degree.
    pub fsdp: usize,
    /// Tensor-parallel degree (innermost).
    pub tensor_parallel: usize,
}

impl ParallelismPlan {
    /// Total GPU count the plan occupies.
    pub fn world_size(&self) -> usize {
        self.ddp * self.tiles * self.fsdp * self.tensor_parallel
    }

    /// Number of samples processed concurrently per step (one per DDP
    /// replica; tiles/FSDP/TP all cooperate on the same sample).
    pub(crate) fn samples_per_step(&self) -> usize {
        self.ddp
    }

    /// Validate against the cluster: world must fit, and TP should not span
    /// nodes (the paper maps tensor parallelism to the in-node fabric).
    pub fn validate(&self, cluster: &ClusterSpec) -> Result<(), String> {
        if self.ddp == 0 || self.tiles == 0 || self.fsdp == 0 || self.tensor_parallel == 0 {
            return Err("all parallelism degrees must be >= 1".into());
        }
        if self.world_size() > cluster.total_gpus() {
            return Err(format!("plan needs {} GPUs, cluster has {}", self.world_size(), cluster.total_gpus()));
        }
        if self.tensor_parallel > cluster.gpus_per_node {
            return Err(format!(
                "tensor parallel degree {} exceeds node size {}",
                self.tensor_parallel, cluster.gpus_per_node
            ));
        }
        Ok(())
    }

    /// Inverse of [`ParallelismPlan::coords`].
    fn rank_of(&self, d: usize, t: usize, f: usize, p: usize) -> usize {
        ((d * self.tiles + t) * self.fsdp + f) * self.tensor_parallel + p
    }

    /// Build the communication groups of every kind.
    pub fn groups(&self) -> RankGroups {
        let mut tp = Vec::new();
        let mut fsdp = Vec::new();
        let mut tiles = Vec::new();
        let mut grad = Vec::new();
        for d in 0..self.ddp {
            for t in 0..self.tiles {
                for f in 0..self.fsdp {
                    tp.push((0..self.tensor_parallel).map(|p| self.rank_of(d, t, f, p)).collect());
                }
                for p in 0..self.tensor_parallel {
                    fsdp.push((0..self.fsdp).map(|f| self.rank_of(d, t, f, p)).collect());
                }
            }
            for f in 0..self.fsdp {
                for p in 0..self.tensor_parallel {
                    tiles.push((0..self.tiles).map(|t| self.rank_of(d, t, f, p)).collect());
                }
            }
        }
        // Gradient averaging: corresponding shards across DDP x TILES.
        for f in 0..self.fsdp {
            for p in 0..self.tensor_parallel {
                let mut g = Vec::with_capacity(self.ddp * self.tiles);
                for d in 0..self.ddp {
                    for t in 0..self.tiles {
                        g.push(self.rank_of(d, t, f, p));
                    }
                }
                grad.push(g);
            }
        }
        RankGroups { tp_groups: tp, fsdp_groups: fsdp, tile_groups: tiles, grad_groups: grad }
    }
}

/// All communication groups induced by a plan.
#[derive(Debug, Clone)]
pub struct RankGroups {
    /// Tensor-parallel groups (frequent activation all-reduces).
    pub tp_groups: Vec<Vec<usize>>,
    /// FSDP groups (per-layer parameter gather / gradient reduce-scatter).
    pub fsdp_groups: Vec<Vec<usize>>,
    /// TILES sequence-parallel groups (halo exchange, output stitching).
    pub tile_groups: Vec<Vec<usize>>,
    /// Gradient-averaging groups across DDP x TILES replicas.
    pub grad_groups: Vec<Vec<usize>>,
}

impl RankGroups {
    /// The hierarchy level each group kind lands on — the Fig. 5 check.
    pub fn placement(&self, cluster: &ClusterSpec) -> PlacementReport {
        let worst = |gs: &[Vec<usize>]| gs.iter().map(|g| cluster.group_level(g)).max().unwrap_or(CommLevel::IntraCard);
        PlacementReport {
            tp_level: worst(&self.tp_groups),
            fsdp_level: worst(&self.fsdp_groups),
            tiles_level: worst(&self.tile_groups),
            grad_level: worst(&self.grad_groups),
        }
    }
}

/// Worst-case communication level per group kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementReport {
    /// Level of tensor-parallel traffic.
    pub tp_level: CommLevel,
    /// Level of FSDP traffic.
    pub fsdp_level: CommLevel,
    /// Level of TILES traffic.
    pub tiles_level: CommLevel,
    /// Level of the gradient all-reduce.
    pub grad_level: CommLevel,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> ParallelismPlan {
        ParallelismPlan { ddp: 2, tiles: 2, fsdp: 2, tensor_parallel: 4 }
    }

    #[test]
    fn world_size_product() {
        assert_eq!(plan().world_size(), 32);
    }

    #[test]
    fn tp_groups_are_contiguous_ranks() {
        let p = plan();
        let g = p.groups();
        assert_eq!(g.tp_groups.len(), 2 * 2 * 2);
        for group in &g.tp_groups {
            assert_eq!(group.len(), 4);
            for w in group.windows(2) {
                assert_eq!(w[1], w[0] + 1, "TP ranks must be adjacent");
            }
        }
    }

    #[test]
    fn groups_partition_world() {
        let p = plan();
        let g = p.groups();
        // Every rank appears in exactly one group of each kind.
        for groups in [&g.tp_groups, &g.fsdp_groups, &g.tile_groups, &g.grad_groups] {
            let mut seen = vec![0usize; p.world_size()];
            for group in groups.iter() {
                for &r in group {
                    seen[r] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "group kind must partition ranks: {seen:?}");
        }
    }

    #[test]
    fn fig5_placement_hierarchy() {
        // TP=8 fills a node; FSDP=2 spans the adjacent node of the TILES
        // group; grad all-reduce spans the cluster.
        let cluster = ClusterSpec::frontier();
        let p = ParallelismPlan { ddp: 4, tiles: 2, fsdp: 2, tensor_parallel: 8 };
        p.validate(&cluster).unwrap();
        let report = p.groups().placement(&cluster);
        assert_eq!(report.tp_level, CommLevel::InterCard, "TP stays inside a node");
        assert_eq!(report.fsdp_level, CommLevel::InterNode, "FSDP spans neighbouring nodes");
        assert_eq!(report.grad_level, CommLevel::InterNode);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let cluster = ClusterSpec::frontier();
        assert!(ParallelismPlan { ddp: 0, tiles: 1, fsdp: 1, tensor_parallel: 1 }.validate(&cluster).is_err());
        assert!(ParallelismPlan { ddp: 1, tiles: 1, fsdp: 1, tensor_parallel: 16 }.validate(&cluster).is_err());
        assert!(ParallelismPlan { ddp: 1_000_000, tiles: 1, fsdp: 1, tensor_parallel: 1 }.validate(&cluster).is_err());
        assert!(ParallelismPlan { ddp: 512, tiles: 16, fsdp: 4, tensor_parallel: 1 }.validate(&cluster).is_ok());
    }

    #[test]
    fn samples_per_step_is_ddp() {
        assert_eq!(plan().samples_per_step(), 2);
    }

    #[test]
    fn grad_groups_span_ddp_and_tiles() {
        let p = plan();
        let g = p.groups();
        assert_eq!(g.grad_groups.len(), p.fsdp * p.tensor_parallel);
        for group in &g.grad_groups {
            assert_eq!(group.len(), p.ddp * p.tiles);
        }
    }
}
