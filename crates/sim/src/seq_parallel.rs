//! Ring/Ulysses-style sequence parallelism — the prior state of the art
//! TILES is compared against (paper Sec. II, "Scaling algorithm solutions";
//! limited to 188K tokens in the paper's reference 22).
//!
//! Sequence parallelism shards the token axis across GPUs but keeps
//! *global* attention: every token still attends to every other token, so
//! each of the `P` ranks must exchange its K/V shards with all other ranks
//! every layer (ring pass), and the attention FLOPs stay quadratic in the
//! full sequence. This module models that cost and memory so the paper's
//! claim — sequence parallelism neither removes the quadratic compute nor
//! scales past ~10^5 tokens — can be checked against TILES quantitatively.

use crate::memory::{largest_fitting, ACT_FACTOR, BF16, OVERHEAD_BYTES, TRAIN_BYTES_PER_PARAM};
use crate::topology::ClusterSpec;
use orbit2_model::ModelConfig;

/// A sequence-parallel training configuration.
#[derive(Debug, Clone, Copy)]
pub struct SeqParallelConfig {
    /// The model; its depth and width size the activations and the K/V.
    pub model: ModelConfig,
    /// Number of ranks the sequence is sharded over.
    pub ranks: usize,
    /// Total model parameters, replicated on every rank (sequence
    /// parallelism does not shard the model). This is the paper's label
    /// for the model's size, `9_500_000` for [`ModelConfig::paper_9_5m`],
    /// not its exact `param_count()`.
    pub params: u64,
}

/// Time of one training step under ring sequence parallelism. No table
/// prints it: the tests read it to back the limiter `repro table3` names
/// for ring SP (quadratic compute) and the paper's point that its ring
/// traffic grows with the rank count.
#[cfg(test)]
struct SeqParallelEstimate {
    /// Per-rank attention + MLP compute time (s).
    compute_s: f64,
    /// Per-layer ring K/V exchange time, summed over layers, fwd+bwd (s).
    ring_comm_s: f64,
    /// Total step time (s).
    step_s: f64,
}

impl SeqParallelConfig {
    /// Estimate the time of one step at global sequence length `seq` on
    /// `cluster`.
    #[cfg(test)]
    fn estimate(&self, seq: u64, cluster: &ClusterSpec) -> SeqParallelEstimate {
        use crate::collective::{collective_time, Collective};
        use crate::roofline::{compute_time, GpuEfficiency};
        assert!(self.ranks >= 1);
        let p = self.ranks as f64;
        let s = seq as f64;
        let d = self.model.embed_dim as f64;
        let l = self.model.layers as f64;
        // Compute: attention is quadratic in the *global* sequence; each
        // rank owns s/P query rows attending to all s keys, plus its MLP
        // share. Training = 3x forward.
        let attn = 4.0 * (s / p) * s * d;
        let mlp = 24.0 * (s / p) * d * d;
        let flops = 3.0 * l * (attn + mlp);
        let compute_s = compute_time(flops, &cluster.gpu, GpuEfficiency::for_model_size(self.params));

        // Ring exchange: every layer, every rank sends/receives the full
        // K/V set in P-1 ring steps => ~2 * s * d * 2 bytes crossing each
        // rank per layer, forward and backward.
        let group: Vec<usize> = (0..self.ranks).collect();
        let kv_bytes = (2.0 * s * d * 2.0) as u64;
        let per_layer = collective_time(Collective::AllGather, kv_bytes, &group, cluster);
        let ring_comm_s = 2.0 * l * per_layer;

        SeqParallelEstimate { compute_s, ring_comm_s, step_s: compute_s + ring_comm_s }
    }

    /// Per-rank memory of one training step at global sequence length
    /// `seq`: the replicated model (weights, gradients and Adam state), the
    /// rank's activation shard, and the *gathered K/V* of the full sequence
    /// (the structural difference from TILES: global attention needs global
    /// keys).
    fn memory_bytes(&self, seq: u64) -> u64 {
        assert!(self.ranks >= 1);
        let p = self.ranks as f64;
        let s = seq as f64;
        let d = self.model.embed_dim as f64;
        let l = self.model.layers as f64;
        let model_bytes = self.params as f64 * TRAIN_BYTES_PER_PARAM;
        let act_bytes = l * (s / p) * d * ACT_FACTOR * BF16;
        let gathered_kv = 2.0 * s * d * BF16;
        (model_bytes + act_bytes + gathered_kv) as u64 + OVERHEAD_BYTES
    }

    /// Largest global sequence that fits per the memory model.
    pub fn max_sequence(&self, cluster: &ClusterSpec) -> u64 {
        largest_fitting(|s| self.memory_bytes(s) <= cluster.gpu.mem_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(ranks: usize) -> SeqParallelConfig {
        // The 9.5M paper configuration.
        SeqParallelConfig { model: ModelConfig::paper_9_5m(), ranks, params: 9_500_000 }
    }

    fn cluster() -> ClusterSpec {
        ClusterSpec::frontier()
    }

    #[test]
    fn max_sequence_sits_in_the_188k_regime() {
        // The paper cites 188K tokens as the sequence-parallel state of the
        // art on Frontier; our model should cap in the same order of
        // magnitude (10^5 - low 10^6), far below TILES' billions.
        let c = cluster();
        let cap = cfg(16).max_sequence(&c);
        assert!(cap > 20_000, "cap {cap} too small");
        assert!(cap < 20_000_000, "cap {cap} should stay far below TILES' billions");
    }

    #[test]
    fn compute_stays_quadratic_despite_more_ranks() {
        // Doubling ranks halves per-rank compute, but doubling the sequence
        // still quadruples attention work: the fundamental non-fix.
        let c = cluster();
        let e1 = cfg(16).estimate(100_000, &c);
        let e2 = cfg(16).estimate(200_000, &c);
        assert!(
            e2.compute_s / e1.compute_s > 3.0,
            "attention must stay quadratic: {} -> {}",
            e1.compute_s,
            e2.compute_s
        );
    }

    #[test]
    fn ring_comm_grows_with_sequence_and_ranks() {
        let c = cluster();
        let small = cfg(8).estimate(50_000, &c).ring_comm_s;
        let longer = cfg(8).estimate(200_000, &c).ring_comm_s;
        assert!(longer > 3.0 * small);
        // Communication overhead fraction grows with rank count at fixed
        // sequence (the paper: "substantial inter-GPU communication
        // overhead ... limits its scalability").
        let few = cfg(4).estimate(100_000, &c);
        let many = cfg(64).estimate(100_000, &c);
        let frac_few = few.ring_comm_s / few.step_s;
        let frac_many = many.ring_comm_s / many.step_s;
        assert!(frac_many > frac_few, "comm fraction must grow: {frac_few} -> {frac_many}");
    }

    #[test]
    fn more_ranks_extend_capacity_sublinearly() {
        // The gathered-KV term is not sharded, so capacity saturates.
        let c = cluster();
        let cap8 = cfg(8).max_sequence(&c);
        let cap128 = cfg(128).max_sequence(&c);
        assert!(cap128 > cap8);
        assert!((cap128 as f64) < cap8 as f64 * 16.0, "capacity must be sublinear in ranks: {cap8} -> {cap128}");
    }

    #[test]
    fn model_replication_ooms_large_models() {
        // 10B params replicated = 160 GB > 64 GB HBM: sequence parallelism
        // cannot even host the large model (needs the orthogonal model
        // parallelisms TILES composes with).
        let c = cluster();
        let big = SeqParallelConfig { model: ModelConfig::paper_10b(), ranks: 64, params: 10_000_000_000 };
        assert_eq!(big.max_sequence(&c), 0);
    }
}
