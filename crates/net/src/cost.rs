//! Analytic α–β cost models for allreduce collectives.
//!
//! The classic latency–bandwidth ("Hockney") estimates, used two ways:
//!
//! * as a sanity anchor for the event engine — the property tests pin
//!   the per-message physical floor (arrival ≥ Σ(α + β·b) along the
//!   route), and the `table9` binary prints these serial-chain
//!   estimates alongside the simulated makespans (the simulation
//!   overlaps tree levels, so it typically lands below the serial
//!   estimate and above the single-message floor);
//! * to extend the paper's "cost of reproducibility" story to the
//!   network: [`CostModel::reproducible_overhead`] prices the exact
//!   (reproducible) allreduce, whose wire format is a long accumulator
//!   per element instead of one `f64`, as a pure bandwidth-term
//!   inflation.
//!
//! `α` is the end-to-end one-way latency between two ranks and `β` the
//! end-to-end inverse bandwidth; extract both from a [`Topology`] with
//! [`CostModel::from_topology`] (worst-case rank pair).

use crate::topology::Topology;

/// End-to-end α–β parameters of a fabric, as seen by one rank pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// One-way zero-byte message latency in nanoseconds.
    pub alpha_ns: f64,
    /// Inverse bandwidth in nanoseconds per byte.
    pub beta_ns_per_byte: f64,
}

impl CostModel {
    /// Extract worst-case end-to-end parameters from a topology: α is
    /// the zero-byte cost of the worst `α + β` route out of rank 0, β
    /// the summed per-hop serialization cost over the same route
    /// (store-and-forward: every hop re-serializes the payload).
    pub fn from_topology(topo: &Topology) -> Self {
        Self::worst_pair(topo, |a, _| a == 0)
    }

    /// Worst-case α–β parameters over the **same-group** rank pairs
    /// (ranks sharing a fabric group, [`Topology::group_of`]): the
    /// intra-node leg a topology-aware placement keeps most traffic
    /// on. α and β are maximized jointly (the `α + β` objective of
    /// [`CostModel::from_topology`]). Zero when no group holds two
    /// ranks.
    pub fn intra_group(topo: &Topology) -> Self {
        Self::worst_pair(topo, |a, b| topo.group_of(a) == topo.group_of(b))
    }

    /// Worst-case α–β parameters over the **cross-group** rank pairs —
    /// the NIC/spine leg only group leaders traverse under a
    /// topology-aware placement. Zero when the fabric has a single
    /// group (nothing ever crosses).
    pub fn inter_group(topo: &Topology) -> Self {
        Self::worst_pair(topo, |a, b| topo.group_of(a) != topo.group_of(b))
    }

    /// Worst `α + β` rank pair among those `keep` admits, over the
    /// precomputed canonical routes. Pairs are visited source-major and
    /// a tie keeps the first pair found.
    fn worst_pair(topo: &Topology, keep: impl Fn(usize, usize) -> bool) -> Self {
        let p = topo.ranks();
        let (mut alpha, mut beta) = (0.0f64, 0.0f64);
        for a in 0..p {
            for b in 0..p {
                if a == b || !keep(a, b) {
                    continue;
                }
                let route = topo.route_hops(a, b);
                let ra: f64 = route.iter().map(|h| h.link.latency_ns).sum();
                let rb: f64 = route.iter().map(|h| h.link.ns_per_byte).sum();
                if ra + rb > alpha + beta {
                    alpha = ra;
                    beta = rb;
                }
            }
        }
        CostModel {
            alpha_ns: alpha,
            beta_ns_per_byte: beta,
        }
    }

    /// Depth of the rank-0-rooted `fanout`-ary reduction tree over `p`
    /// ranks: how many levels separate the deepest leaf from the root.
    ///
    /// # Panics
    ///
    /// Panics when `fanout < 2`.
    pub fn tree_depth(p: usize, fanout: usize) -> usize {
        assert!(fanout >= 2, "tree fanout must be at least 2");
        let mut depth = 0usize;
        let mut reach = 1usize;
        while reach < p {
            reach = reach.saturating_mul(fanout) + 1;
            depth += 1;
        }
        depth
    }

    /// K-ary reduction tree + broadcast: `d = ⌈log_f p⌉` levels up and
    /// down; each level costs one latency plus up to `f` serialized
    /// child payloads at the parent: `2d(α + f·n·β)`.
    pub fn tree_allreduce_ns(&self, p: usize, fanout: usize, bytes: u64) -> f64 {
        if p < 2 {
            assert!(fanout >= 2, "tree fanout must be at least 2");
            return 0.0;
        }
        let depth = Self::tree_depth(p, fanout);
        2.0 * depth as f64
            * (self.alpha_ns + fanout as f64 * bytes as f64 * self.beta_ns_per_byte)
    }

    /// Segmented (pipelined) k-ary tree allreduce: the payload is cut
    /// into `segments` chunks that flow up and down the `d`-level tree
    /// back to back: `(2d + k − 1) · (α + f·n·β/k)`. At `k = 1` this
    /// is exactly [`CostModel::tree_allreduce_ns`].
    ///
    /// # Panics
    ///
    /// Panics when `fanout < 2` or `segments == 0`.
    pub fn segmented_tree_allreduce_ns(
        &self,
        p: usize,
        fanout: usize,
        bytes: u64,
        segments: usize,
    ) -> f64 {
        assert!(segments > 0, "segment count must be positive");
        assert!(fanout >= 2, "tree fanout must be at least 2");
        if segments == 1 {
            // Delegate so the unsegmented estimate stays bit-identical
            // (the pipeline formula is algebraically equal at k = 1
            // but would round differently).
            return self.tree_allreduce_ns(p, fanout, bytes);
        }
        if p < 2 {
            return 0.0;
        }
        let depth = Self::tree_depth(p, fanout) as f64;
        let k = segments as f64;
        let stages = 2.0 * depth + (k - 1.0);
        stages * (self.alpha_ns + fanout as f64 * bytes as f64 * self.beta_ns_per_byte / k)
    }

    /// Topology-aware hierarchical allreduce: a `intra_fanout`-ary
    /// reduce + broadcast inside each fabric group priced by the
    /// `intra` leg, plus an `inter_fanout`-ary allreduce among the
    /// group leaders priced by the `inter` leg — the two phases
    /// pipeline in the event engine, but the serial sum is the same
    /// conservative estimate the oblivious tree model makes:
    /// `2·d_i·(α_i + f_i·n·β_i) + 2·d_x·(α_x + f_x·n·β_x)`.
    ///
    /// # Panics
    ///
    /// Panics when either fanout is below 2.
    pub fn hierarchical_allreduce_ns(
        intra: CostModel,
        inter: CostModel,
        groups: usize,
        group_size: usize,
        intra_fanout: usize,
        inter_fanout: usize,
        bytes: u64,
    ) -> f64 {
        intra.tree_allreduce_ns(group_size, intra_fanout, bytes)
            + inter.tree_allreduce_ns(groups, inter_fanout, bytes)
    }

    /// Double binary tree allreduce: two complementary binary trees
    /// each carry half the payload concurrently, so the makespan is
    /// one binary-tree allreduce at half the bytes:
    /// `2·d·(α + 2·(n/2)·β)`.
    pub fn double_binary_tree_allreduce_ns(&self, p: usize, bytes: u64) -> f64 {
        if p < 2 {
            return 0.0;
        }
        let depth = Self::tree_depth(p, 2) as f64;
        2.0 * depth * (self.alpha_ns + 2.0 * (bytes as f64 / 2.0) * self.beta_ns_per_byte)
    }

    /// Fabric-mapped ring allreduce: the ring visits ranks in fabric
    /// order, so only `groups` of the `p` hops cross the NIC/spine —
    /// the latency term mixes the two legs by hop share while the
    /// bandwidth term stays pinned to the slower leg (every byte still
    /// circulates the whole ring):
    /// `2(p−1)·ᾱ + 2((p−1)/p)·n·max(β_i, β_x)` with
    /// `ᾱ = ((p−G)·α_i + G·α_x)/p`.
    pub fn fabric_ring_allreduce_ns(
        intra: CostModel,
        inter: CostModel,
        p: usize,
        groups: usize,
        bytes: u64,
    ) -> f64 {
        if p < 2 {
            return 0.0;
        }
        let (pf, g) = (p as f64, groups as f64);
        let alpha = ((pf - g) * intra.alpha_ns + g * inter.alpha_ns) / pf;
        let beta = intra.beta_ns_per_byte.max(inter.beta_ns_per_byte);
        2.0 * (pf - 1.0) * alpha + 2.0 * ((pf - 1.0) / pf) * bytes as f64 * beta
    }

    /// Multiplicative bandwidth overhead of shipping `payload_bytes`
    /// of exact-accumulator state per element instead of one `f64`:
    /// the bandwidth term inflates by `payload_bytes / 8`, the latency
    /// term does not.
    ///
    /// Returns the modeled cost ratio (reproducible / plain) for an
    /// allreduce whose plain cost splits into `alpha_part` latency ns
    /// and `beta_part` bandwidth ns.
    pub fn reproducible_overhead(alpha_part: f64, beta_part: f64, payload_bytes: usize) -> f64 {
        let plain = alpha_part + beta_part;
        if plain == 0.0 {
            return 1.0;
        }
        let factor = payload_bytes as f64 / std::mem::size_of::<f64>() as f64;
        (alpha_part + beta_part * factor) / plain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;

    fn model() -> CostModel {
        CostModel {
            alpha_ns: 1000.0,
            beta_ns_per_byte: 0.1,
        }
    }

    /// Oblivious ring allreduce (reduce-scatter + allgather) under `m`:
    /// `2(p−1)α + 2((p−1)/p)·n·β` for `n` payload bytes — the baseline
    /// the fabric-mapped ring model must undercut.
    fn ring_allreduce_ns(m: &CostModel, p: usize, bytes: u64) -> f64 {
        if p < 2 {
            return 0.0;
        }
        let pf = p as f64;
        2.0 * (pf - 1.0) * m.alpha_ns + 2.0 * ((pf - 1.0) / pf) * bytes as f64 * m.beta_ns_per_byte
    }

    #[test]
    fn ring_cost_formula() {
        let c = ring_allreduce_ns(&model(), 4, 4000);
        // 2·3·1000 + 2·(3/4)·4000·0.1 = 6000 + 600
        assert!((c - 6600.0).abs() < 1e-9);
        assert_eq!(ring_allreduce_ns(&model(), 1, 4000), 0.0);
    }

    #[test]
    fn tree_cost_grows_with_depth() {
        let m = model();
        let shallow = m.tree_allreduce_ns(4, 4, 1000);
        let deep = m.tree_allreduce_ns(64, 2, 1000);
        assert!(deep > shallow);
    }

    #[test]
    fn segmented_models_reduce_to_unsegmented_at_one_chunk() {
        let m = model();
        for p in [2usize, 4, 16, 64] {
            let n = 1u64 << 16;
            assert_eq!(
                m.segmented_tree_allreduce_ns(p, 4, n, 1).to_bits(),
                m.tree_allreduce_ns(p, 4, n).to_bits(),
                "p={p}"
            );
        }
    }

    #[test]
    fn segmentation_pays_off_for_bandwidth_bound_payloads() {
        // Large payload, nontrivial latency: pipelining must beat the
        // unsegmented estimate, and an absurd chunk count (latency
        // dominated) must lose again.
        let m = model();
        let n = 64u64 << 20;
        let base = m.segmented_tree_allreduce_ns(64, 4, n, 1);
        let piped = m.segmented_tree_allreduce_ns(64, 4, n, 16);
        assert!(piped < base, "{piped} vs {base}");
        let shredded = m.segmented_tree_allreduce_ns(64, 4, n, 1 << 20);
        assert!(shredded > piped);
    }

    #[test]
    fn from_topology_prefers_the_far_pair() {
        let t = Topology::hierarchical(
            2,
            2,
            LinkSpec::new(100.0, 100.0),
            LinkSpec::new(200.0, 50.0),
            LinkSpec::new(1000.0, 10.0),
        );
        let m = CostModel::from_topology(&t);
        // cross-node route: intra + nic + inter + inter + nic + intra
        assert!((m.alpha_ns - (100.0 + 200.0 + 1000.0 + 1000.0 + 200.0 + 100.0)).abs() < 1e-9);
        assert!(m.beta_ns_per_byte > 0.0);
    }

    fn hier_topo() -> Topology {
        Topology::hierarchical(
            4,
            4,
            LinkSpec::new(100.0, 100.0),
            LinkSpec::new(200.0, 50.0),
            LinkSpec::new(1000.0, 10.0),
        )
    }

    #[test]
    fn group_extractors_split_the_fabric_legs() {
        let t = hier_topo();
        let intra = CostModel::intra_group(&t);
        let inter = CostModel::inter_group(&t);
        // Same-node route: rank → sw → rank, 2 intra links.
        assert!((intra.alpha_ns - 200.0).abs() < 1e-9);
        // Cross-node route: intra + nic + inter + inter + nic + intra.
        assert!((inter.alpha_ns - 2600.0).abs() < 1e-9);
        assert!(inter.beta_ns_per_byte > intra.beta_ns_per_byte);
        // The worst cross pair is also the fabric-wide worst pair.
        assert_eq!(inter, CostModel::from_topology(&t));
        // Flat switch: one group, so nothing ever crosses.
        let flat = Topology::flat_switch(8, LinkSpec::new(100.0, 100.0));
        let none = CostModel::inter_group(&flat);
        assert_eq!(none.alpha_ns, 0.0);
        assert_eq!(none.beta_ns_per_byte, 0.0);
        assert_eq!(CostModel::intra_group(&flat), CostModel::from_topology(&flat));
    }

    #[test]
    fn aware_models_undercut_oblivious_on_hierarchical_fabrics() {
        let t = hier_topo();
        let oblivious = CostModel::from_topology(&t);
        let intra = CostModel::intra_group(&t);
        let inter = CostModel::inter_group(&t);
        let n = 1u64 << 16;
        let hier = CostModel::hierarchical_allreduce_ns(intra, inter, 4, 4, 4, 4, n);
        let tree = oblivious.tree_allreduce_ns(16, 4, n);
        assert!(hier < tree, "hierarchical {hier} vs oblivious tree {tree}");
        let fabric = CostModel::fabric_ring_allreduce_ns(intra, inter, 16, 4, n);
        let ring = ring_allreduce_ns(&oblivious, 16, n);
        assert!(fabric < ring, "fabric ring {fabric} vs oblivious ring {ring}");
    }

    #[test]
    fn double_binary_tree_halves_the_bandwidth_term() {
        let m = model();
        let dbt = m.double_binary_tree_allreduce_ns(16, 1 << 20);
        let single = m.tree_allreduce_ns(16, 2, 1 << 20);
        assert!(dbt < single, "{dbt} vs {single}");
        // Latency-only payloads gain nothing: same depth, same α term.
        let lat_only = CostModel { alpha_ns: 1000.0, beta_ns_per_byte: 0.0 };
        assert_eq!(
            lat_only.double_binary_tree_allreduce_ns(16, 1 << 20),
            lat_only.tree_allreduce_ns(16, 2, 1 << 20)
        );
        assert_eq!(m.double_binary_tree_allreduce_ns(1, 1 << 20), 0.0);
    }

    #[test]
    fn reproducible_overhead_is_bandwidth_only() {
        // pure-latency collective: payload inflation is free
        assert_eq!(CostModel::reproducible_overhead(1000.0, 0.0, 560), 1.0);
        // pure-bandwidth collective: overhead = payload factor
        let r = CostModel::reproducible_overhead(0.0, 1000.0, 80);
        assert!((r - 10.0).abs() < 1e-12);
        // degenerate zero-cost case
        assert_eq!(CostModel::reproducible_overhead(0.0, 0.0, 560), 1.0);
    }
}
