//! Interconnect topology descriptions.
//!
//! A [`Topology`] is an undirected graph of [`NodeKind`] vertices
//! (rank endpoints, NICs, switches) whose edges carry a [`LinkSpec`]
//! — the `α + β·bytes` cost model of the classic LogP/Hockney family.
//! Three builders cover the shapes the paper's future-work section
//! names:
//!
//! * [`Topology::flat_switch`] — every rank one hop from a single
//!   crossbar; the shallowest interesting fabric (depth 1);
//! * [`Topology::fat_tree`] — ranks under edge switches under one core
//!   switch (a folded two-level Clos; depth 2);
//! * [`Topology::hierarchical`] — the cluster reality: ranks share an
//!   intra-node switch, leave through a NIC, and cross a top-of-rack
//!   switch, with distinct intra-node vs inter-node latency and
//!   bandwidth (depth 3).
//!
//! Routes are shortest paths computed by BFS. The three builders above
//! produce tree-shaped fabrics, so their shortest paths are unique;
//! [`Topology::fat_tree_spines`] generalises the fat tree to several
//! core (spine) switches, giving every cross-group rank pair `spines`
//! **equal-cost paths** — the substrate for the engine's seeded
//! ECMP/adaptive routing ([`crate::engine::RouteSelect`]). All timing
//! variation stays owned by the [`engine`](crate::engine): the seeded
//! jitter model, seeded route choice, and seeded background traffic.
//!
//! Construction is two-phase under the hood: the builders add vertices
//! and links, then `finalize` assigns every **directed** link a dense
//! id (`0..`[`Topology::num_links`], the index the engine uses for its
//! busy-state vector) and precomputes every rank-pair route into one
//! shared hop arena. [`Topology::route_hops`] returns a borrowed
//! `&[Hop]` slice from that arena — the allocation-free lookup the
//! event engine rides — while [`Topology::route`] recomputes the same
//! path by on-demand BFS (the reference implementation the property
//! tests diff against the table). Where several equal-cost shortest
//! paths exist, `finalize` enumerates them all:
//! [`Topology::route_count`] reports how many and
//! [`Topology::route_hops_nth`] returns the `k`-th (index 0 is always
//! the canonical BFS route that [`Topology::route_hops`] returns, so
//! fixed routing is unchanged by the enumeration).

/// Cost model for one link: a message of `b` bytes occupies the link
/// for `b · ns_per_byte` (serialization, β) and then lands after
/// `latency_ns` (propagation, α) plus any jitter the engine injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Propagation latency α in nanoseconds.
    pub latency_ns: f64,
    /// Inverse bandwidth β in nanoseconds per byte.
    pub ns_per_byte: f64,
}

impl LinkSpec {
    /// A link with `latency_ns` of latency and `gb_per_s` gigabytes per
    /// second of bandwidth.
    pub fn new(latency_ns: f64, gb_per_s: f64) -> Self {
        assert!(latency_ns >= 0.0 && gb_per_s > 0.0, "invalid link spec");
        LinkSpec {
            latency_ns,
            ns_per_byte: 1.0 / gb_per_s,
        }
    }

    /// Deterministic traversal cost for `bytes` (no jitter, no queuing).
    #[inline]
    pub fn cost_ns(&self, bytes: u64) -> f64 {
        self.latency_ns + self.ns_per_byte * bytes as f64
    }
}

/// What a vertex in the fabric is. Only [`NodeKind::Rank`] vertices
/// source or sink traffic; NICs and switches forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A compute endpoint holding the given MPI-style rank id.
    Rank(usize),
    /// A network interface between a node-local fabric and the
    /// inter-node fabric.
    Nic,
    /// A crossbar switch.
    Switch,
}

/// One hop of a route: the directed link `(from, to)`, its spec, and
/// the link's dense id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// Source vertex index.
    pub from: usize,
    /// Destination vertex index.
    pub to: usize,
    /// Cost model of the traversed link.
    pub link: LinkSpec,
    /// Dense id of the directed link `(from, to)` in
    /// `0..`[`Topology::num_links`] — the index the engine uses for
    /// its link-busy vector (each undirected edge contributes two
    /// directed ids).
    pub link_id: u32,
}

/// An interconnect: vertices, links, and the rank→vertex mapping.
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    nodes: Vec<NodeKind>,
    /// Adjacency: `adj[v]` lists `(neighbour, link spec, directed link id)`.
    adj: Vec<Vec<(usize, LinkSpec, u32)>>,
    /// `rank_vertex[r]` is the vertex index of rank `r`.
    rank_vertex: Vec<usize>,
    /// Number of directed links (two per undirected edge).
    num_links: usize,
    /// `link_ends[link_id]` is the `(from, to)` vertex pair of the
    /// directed link — the reverse of [`Hop::link_id`], used by
    /// observability surfaces (trace lane names, link-stats tables).
    link_ends: Vec<(u32, u32)>,
    /// Shared arena of precomputed route hops; rank-pair routes are
    /// contiguous slices of this vector.
    route_arena: Vec<Hop>,
    /// `(offset, len)` into `route_arena` for the route `from → to`,
    /// stored at `from · ranks + to`.
    route_index: Vec<(u32, u32)>,
    /// Per rank pair (same layout as `route_index`): `u32::MAX` when
    /// the shortest path is unique, else an index into `ecmp_groups`.
    ecmp_index: Vec<u32>,
    /// `(offset, count)` into `ecmp_slots` for a multi-path pair.
    ecmp_groups: Vec<(u32, u32)>,
    /// `(offset, len)` into `route_arena` per equal-cost route; slot 0
    /// of every group is the canonical BFS route.
    ecmp_slots: Vec<(u32, u32)>,
    /// Fabric group of each rank (see [`Topology::group_of`]).
    rank_group: Vec<u32>,
    /// CSR offsets into `group_members`: group `g` owns
    /// `group_members[group_offsets[g] .. group_offsets[g + 1]]`.
    group_offsets: Vec<u32>,
    /// Rank ids, ascending within each group; groups ordered by their
    /// smallest member rank.
    group_members: Vec<usize>,
    /// Per **directed** link id: `true` when both endpoints are
    /// forwarding hardware (switch↔switch, switch↔NIC) — the
    /// NIC/spine crossings a topology-aware placement tries to avoid.
    cross_group: Vec<bool>,
}

impl Topology {
    fn empty(name: impl Into<String>) -> Self {
        Topology {
            name: name.into(),
            nodes: Vec::new(),
            adj: Vec::new(),
            rank_vertex: Vec::new(),
            num_links: 0,
            link_ends: Vec::new(),
            route_arena: Vec::new(),
            route_index: Vec::new(),
            ecmp_index: Vec::new(),
            ecmp_groups: Vec::new(),
            ecmp_slots: Vec::new(),
            rank_group: Vec::new(),
            group_offsets: Vec::new(),
            group_members: Vec::new(),
            cross_group: Vec::new(),
        }
    }

    fn add_node(&mut self, kind: NodeKind) -> usize {
        let id = self.nodes.len();
        self.nodes.push(kind);
        self.adj.push(Vec::new());
        if let NodeKind::Rank(r) = kind {
            assert_eq!(r, self.rank_vertex.len(), "ranks must be added in order");
            self.rank_vertex.push(id);
        }
        id
    }

    fn link(&mut self, a: usize, b: usize, spec: LinkSpec) {
        let id = self.num_links as u32;
        self.num_links += 2;
        self.adj[a].push((b, spec, id));
        self.adj[b].push((a, spec, id + 1));
        self.link_ends.push((a as u32, b as u32));
        self.link_ends.push((b as u32, a as u32));
    }

    /// Precompute the dense route table: one BFS per source rank (the
    /// discovered canonical paths match the on-demand
    /// [`Topology::route`] exactly), with all hops packed into one
    /// arena so [`Topology::route_hops`] is a slice lookup — then
    /// enumerate every *equal-cost* shortest path per rank pair for
    /// the engine's seeded ECMP routing. Called by every builder as
    /// its final step.
    fn finalize(&mut self) {
        let p = self.rank_vertex.len();
        self.route_index = Vec::with_capacity(p * p);
        let mut scratch = Vec::new();
        for from in 0..p {
            let src = self.rank_vertex[from];
            // Full BFS from `src`; prev pointers are identical to the
            // early-exit BFS in `route` (continuing a BFS never rewrites
            // an already-set predecessor).
            let mut prev: Vec<Option<(usize, LinkSpec, u32)>> = vec![None; self.nodes.len()];
            let mut seen = vec![false; self.nodes.len()];
            let mut queue = std::collections::VecDeque::from([src]);
            seen[src] = true;
            while let Some(v) = queue.pop_front() {
                for &(w, spec, id) in &self.adj[v] {
                    if !seen[w] {
                        seen[w] = true;
                        prev[w] = Some((v, spec, id));
                        queue.push_back(w);
                    }
                }
            }
            for to in 0..p {
                let dst = self.rank_vertex[to];
                if dst == src {
                    self.route_index.push((self.route_arena.len() as u32, 0));
                    continue;
                }
                scratch.clear();
                let mut v = dst;
                while let Some((u, spec, id)) = prev[v] {
                    scratch.push(Hop { from: u, to: v, link: spec, link_id: id });
                    v = u;
                }
                assert!(v == src, "no route between ranks {from} and {to}");
                let offset = self.route_arena.len() as u32;
                self.route_arena.extend(scratch.iter().rev());
                self.route_index.push((offset, scratch.len() as u32));
            }
        }
        self.enumerate_equal_cost_routes();
        self.classify_groups();
    }

    /// Classify links and group ranks by physical proximity. A
    /// directed link is *cross-group* when both endpoints are
    /// forwarding hardware (switch↔switch, switch↔NIC, NIC↔switch):
    /// those are the NIC/spine crossings topology-aware placement
    /// tries to keep traffic off. Two ranks share a *fabric group*
    /// when they are connected by links that are **not** cross-group —
    /// flat switch: one group; fat tree: one group per edge switch;
    /// hierarchical: one group per compute node. Groups are numbered
    /// by their smallest member rank.
    fn classify_groups(&mut self) {
        self.cross_group = (0..self.num_links)
            .map(|id| {
                let (a, b) = self.link_ends[id];
                !matches!(self.nodes[a as usize], NodeKind::Rank(_))
                    && !matches!(self.nodes[b as usize], NodeKind::Rank(_))
            })
            .collect();
        // Flood-fill vertex components over non-cross links, then
        // number the rank-bearing components by smallest member rank.
        let mut comp = vec![u32::MAX; self.nodes.len()];
        let mut next = 0u32;
        for start in 0..self.nodes.len() {
            if comp[start] != u32::MAX {
                continue;
            }
            comp[start] = next;
            next += 1;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(v) = queue.pop_front() {
                for &(w, _, id) in &self.adj[v] {
                    if !self.cross_group[id as usize] && comp[w] == u32::MAX {
                        comp[w] = comp[start];
                        queue.push_back(w);
                    }
                }
            }
        }
        let p = self.rank_vertex.len();
        self.rank_group = vec![u32::MAX; p];
        let mut group_of_comp = vec![u32::MAX; next as usize];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for r in 0..p {
            let c = comp[self.rank_vertex[r]] as usize;
            if group_of_comp[c] == u32::MAX {
                group_of_comp[c] = groups.len() as u32;
                groups.push(Vec::new());
            }
            self.rank_group[r] = group_of_comp[c];
            groups[group_of_comp[c] as usize].push(r);
        }
        self.group_offsets = vec![0];
        for members in &groups {
            self.group_members.extend_from_slice(members);
            self.group_offsets.push(self.group_members.len() as u32);
        }
    }

    /// BFS hop distances from vertex `src` to every vertex.
    fn bfs_dist(&self, src: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.nodes.len()];
        dist[src] = 0;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(v) = queue.pop_front() {
            for &(w, _, _) in &self.adj[v] {
                if dist[w] == u32::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Enumerate every shortest path for every rank pair. Pairs with a
    /// unique path (all of flat/hierarchical, and intra-group fat-tree
    /// pairs) stay implicit; multi-path pairs get an `ecmp_groups`
    /// entry whose slot 0 is the canonical BFS route — so
    /// [`Topology::route_hops`] (and any `Fixed`-routing consumer) is
    /// untouched by the enumeration, and the alternates live after it.
    fn enumerate_equal_cost_routes(&mut self) {
        let p = self.rank_vertex.len();
        self.ecmp_index = vec![u32::MAX; p * p];
        let dists: Vec<Vec<u32>> = (0..p).map(|r| self.bfs_dist(self.rank_vertex[r])).collect();
        let mut paths: Vec<Vec<Hop>> = Vec::new();
        let mut prefix: Vec<Hop> = Vec::new();
        for from in 0..p {
            for to in 0..p {
                if from == to {
                    continue;
                }
                let (src, dst) = (self.rank_vertex[from], self.rank_vertex[to]);
                paths.clear();
                prefix.clear();
                dfs_shortest_paths(
                    &self.adj,
                    &dists[from],
                    &dists[to],
                    dists[from][dst],
                    src,
                    dst,
                    &mut prefix,
                    &mut paths,
                );
                if paths.len() <= 1 {
                    continue;
                }
                // Slot 0 is the canonical route already in the arena;
                // every other enumerated path is appended after it.
                let canonical = self.route_index[from * p + to];
                let canonical_ids: Vec<u32> = self.route_arena
                    [canonical.0 as usize..(canonical.0 + canonical.1) as usize]
                    .iter()
                    .map(|h| h.link_id)
                    .collect();
                let group_offset = self.ecmp_slots.len() as u32;
                self.ecmp_slots.push(canonical);
                for path in &paths {
                    if path.iter().map(|h| h.link_id).eq(canonical_ids.iter().copied()) {
                        continue;
                    }
                    let offset = self.route_arena.len() as u32;
                    self.route_arena.extend_from_slice(path);
                    self.ecmp_slots.push((offset, path.len() as u32));
                }
                self.ecmp_index[from * p + to] = self.ecmp_groups.len() as u32;
                self.ecmp_groups
                    .push((group_offset, (self.ecmp_slots.len() as u32) - group_offset));
            }
        }
    }

    /// `p` ranks hanging off one crossbar switch — depth 1.
    ///
    /// # Panics
    ///
    /// Panics when `p == 0`.
    pub fn flat_switch(p: usize, link: LinkSpec) -> Self {
        assert!(p > 0, "flat_switch needs at least one rank");
        let mut t = Topology::empty(format!("flat-switch(p={p})"));
        let sw = t.add_node(NodeKind::Switch);
        for r in 0..p {
            let v = t.add_node(NodeKind::Rank(r));
            t.link(v, sw, link);
        }
        t.finalize();
        t
    }

    /// Two-level folded-Clos fat tree — depth 2: `radix` ranks per edge
    /// switch over `edge` links; edge switches meet at one core switch
    /// over `core` links. A single-spine [`Topology::fat_tree_spines`]
    /// (routes are unique, no ECMP).
    ///
    /// # Panics
    ///
    /// Panics when `p == 0` or `radix < 2`.
    pub fn fat_tree(p: usize, radix: usize, edge: LinkSpec, core: LinkSpec) -> Self {
        Self::fat_tree_spines(p, radix, 1, edge, core)
    }

    /// Two-level folded Clos with `spines` core switches: every edge
    /// switch uplinks to every spine over `core` links, so each
    /// cross-group rank pair has exactly `spines` equal-cost four-hop
    /// paths — the substrate for seeded ECMP routing
    /// ([`crate::engine::RouteSelect::SeededEcmp`]). `spines == 1` is
    /// byte-for-byte the classic [`Topology::fat_tree`] (same name,
    /// same vertex and link-id assignment order).
    ///
    /// # Panics
    ///
    /// Panics when `p == 0`, `radix < 2`, or `spines` is outside
    /// `1..=64`.
    pub fn fat_tree_spines(
        p: usize,
        radix: usize,
        spines: usize,
        edge: LinkSpec,
        core: LinkSpec,
    ) -> Self {
        assert!(p > 0, "fat_tree needs at least one rank");
        assert!(radix >= 2, "fat_tree radix must be at least 2");
        assert!(
            (1..=64).contains(&spines),
            "fat_tree spine count must be in 1..=64"
        );
        let name = if spines == 1 {
            format!("fat-tree(p={p},radix={radix})")
        } else {
            format!("fat-tree(p={p},radix={radix},spines={spines})")
        };
        let mut t = Topology::empty(name);
        let core_sws: Vec<usize> = (0..spines).map(|_| t.add_node(NodeKind::Switch)).collect();
        let groups = p.div_ceil(radix);
        for g in 0..groups {
            let edge_sw = t.add_node(NodeKind::Switch);
            for &core_sw in &core_sws {
                t.link(edge_sw, core_sw, core);
            }
            for r in (g * radix)..(((g + 1) * radix).min(p)) {
                let v = t.add_node(NodeKind::Rank(r));
                t.link(v, edge_sw, edge);
            }
        }
        t.finalize();
        t
    }

    /// Cluster-shaped fabric — depth 3: `nodes` compute nodes of
    /// `ranks_per_node` ranks each. Ranks attach to a node-local switch
    /// over `intra` links; each node switch reaches its NIC over `nic`
    /// links; NICs meet at a top switch over `inter` links.
    ///
    /// Rank ids are node-major: node `n` hosts ranks
    /// `n·ranks_per_node .. (n+1)·ranks_per_node`.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn hierarchical(
        nodes: usize,
        ranks_per_node: usize,
        intra: LinkSpec,
        nic: LinkSpec,
        inter: LinkSpec,
    ) -> Self {
        assert!(nodes > 0 && ranks_per_node > 0, "empty hierarchy");
        let mut t = Topology::empty(format!("hierarchical(nodes={nodes},rpn={ranks_per_node})"));
        let top = t.add_node(NodeKind::Switch);
        for _ in 0..nodes {
            let node_sw = t.add_node(NodeKind::Switch);
            let node_nic = t.add_node(NodeKind::Nic);
            t.link(node_sw, node_nic, nic);
            t.link(node_nic, top, inter);
            for _ in 0..ranks_per_node {
                let r = t.rank_vertex.len();
                let v = t.add_node(NodeKind::Rank(r));
                t.link(v, node_sw, intra);
            }
        }
        t.finalize();
        t
    }

    /// [`Topology::hierarchical`] with **cyclic** rank placement: rank
    /// `r` lives on node `r % nodes` (the round-robin layout an MPI
    /// scheduler produces under `--map-by node`), so consecutive rank
    /// ids sit on *different* nodes. The fabric is identical to the
    /// node-major builder; only the rank→node assignment changes —
    /// which is exactly the situation where a topology-oblivious ring
    /// crosses the NIC on every hop and
    /// [`Topology::fabric_ring_order`] recovers the node-contiguous
    /// order.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn hierarchical_cyclic(
        nodes: usize,
        ranks_per_node: usize,
        intra: LinkSpec,
        nic: LinkSpec,
        inter: LinkSpec,
    ) -> Self {
        assert!(nodes > 0 && ranks_per_node > 0, "empty hierarchy");
        let mut t = Topology::empty(format!(
            "hierarchical-cyclic(nodes={nodes},rpn={ranks_per_node})"
        ));
        let top = t.add_node(NodeKind::Switch);
        let mut node_sws = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let node_sw = t.add_node(NodeKind::Switch);
            let node_nic = t.add_node(NodeKind::Nic);
            t.link(node_sw, node_nic, nic);
            t.link(node_nic, top, inter);
            node_sws.push(node_sw);
        }
        for r in 0..nodes * ranks_per_node {
            let v = t.add_node(NodeKind::Rank(r));
            t.link(v, node_sws[r % nodes], intra);
        }
        t.finalize();
        t
    }

    /// Human-readable topology name (embeds the key parameters).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of fabric groups — sets of ranks that reach each other
    /// without traversing a cross-group (switch/NIC-to-switch/NIC)
    /// link. Flat switch: 1; fat tree: one per edge switch;
    /// hierarchical: one per compute node.
    pub fn num_groups(&self) -> usize {
        self.group_offsets.len() - 1
    }

    /// Fabric group of `rank`. Groups are numbered by smallest member
    /// rank, densely in `0..num_groups()`.
    ///
    /// # Panics
    ///
    /// Panics when `rank` is out of range.
    pub fn group_of(&self, rank: usize) -> usize {
        self.rank_group[rank] as usize
    }

    /// The ranks of fabric group `g`, ascending.
    ///
    /// # Panics
    ///
    /// Panics when `g >= num_groups()`.
    pub fn group_ranks(&self, g: usize) -> &[usize] {
        &self.group_members[self.group_offsets[g] as usize..self.group_offsets[g + 1] as usize]
    }

    /// Whether the directed link is a cross-group crossing: both
    /// endpoints are forwarding hardware (switch/NIC), so any message
    /// on it is leaving one fabric group for another. The engine
    /// tallies foreground traffic over these links as
    /// `nic_hops`/`nic_bytes`.
    ///
    /// # Panics
    ///
    /// Panics when `link_id >= num_links()`.
    #[inline]
    pub fn is_cross_group_link(&self, link_id: usize) -> bool {
        self.cross_group[link_id]
    }

    /// Ring order that walks the physical fabric: ranks enumerated
    /// group by group (groups in smallest-rank order, members
    /// ascending), so consecutive ring neighbours share a fabric group
    /// everywhere except the `num_groups()` unavoidable group-to-group
    /// seams. On the node-major builders (`flat_switch`, `fat_tree*`,
    /// `hierarchical`) this is the identity permutation — rank ids are
    /// already fabric-contiguous; under cyclic placement
    /// ([`Topology::hierarchical_cyclic`]) it recovers the
    /// node-contiguous order a topology-oblivious ring loses.
    pub fn fabric_ring_order(&self) -> Vec<usize> {
        self.group_members.clone()
    }

    /// Number of rank endpoints.
    pub fn ranks(&self) -> usize {
        self.rank_vertex.len()
    }

    /// Kind of vertex `v`.
    pub fn kind(&self, v: usize) -> NodeKind {
        self.nodes[v]
    }

    /// Vertex index of rank `r`.
    pub fn rank_vertex(&self, r: usize) -> usize {
        self.rank_vertex[r]
    }

    /// Number of **directed** links (two per undirected edge). Link
    /// ids in [`Hop::link_id`] are dense in `0..num_links()`, so a
    /// `Vec` of this length indexes any per-link state.
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Smallest strictly-positive link propagation latency (α) in the
    /// fabric, or `None` when there are no links (or every link has
    /// zero latency). The engine's calendar queue sizes its bucket
    /// width from this: α is the natural spacing between causally
    /// related events, so one-α buckets stay shallow without
    /// scattering a burst across thousands of empty slots.
    pub fn min_latency_ns(&self) -> Option<f64> {
        let mut best = f64::INFINITY;
        for row in &self.adj {
            for &(_, spec, _) in row {
                if spec.latency_ns > 0.0 && spec.latency_ns < best {
                    best = spec.latency_ns;
                }
            }
        }
        (best != f64::INFINITY).then_some(best)
    }

    /// The `(from, to)` vertex pair of a directed link — the inverse
    /// of [`Hop::link_id`].
    ///
    /// # Panics
    ///
    /// Panics when `link_id >= num_links()`.
    pub fn link_endpoints(&self, link_id: usize) -> (usize, usize) {
        let (a, b) = self.link_ends[link_id];
        (a as usize, b as usize)
    }

    /// Human-readable label of vertex `v`: `rank3`, `nic12`, `sw7`
    /// (NIC/switch labels use the vertex index, ranks the rank id).
    pub fn node_label(&self, v: usize) -> String {
        match self.nodes[v] {
            NodeKind::Rank(r) => format!("rank{r}"),
            NodeKind::Nic => format!("nic{v}"),
            NodeKind::Switch => format!("sw{v}"),
        }
    }

    /// Human-readable label of a directed link, e.g. `rank3→sw8`.
    /// Used for trace lanes and the `--link-stats` table.
    pub fn link_label(&self, link_id: usize) -> String {
        let (a, b) = self.link_endpoints(link_id);
        format!("{}→{}", self.node_label(a), self.node_label(b))
    }

    /// The precomputed unique shortest path from rank `from` to rank
    /// `to`: a borrowed slice into the shared route arena — no
    /// allocation, no search. Empty when `from == to`. Identical hop
    /// for hop to [`Topology::route`].
    ///
    /// # Panics
    ///
    /// Panics when either rank is out of range.
    #[inline]
    pub fn route_hops(&self, from: usize, to: usize) -> &[Hop] {
        let p = self.rank_vertex.len();
        assert!(from < p && to < p, "rank out of range");
        let (offset, len) = self.route_index[from * p + to];
        &self.route_arena[offset as usize..offset as usize + len as usize]
    }

    /// Number of equal-cost shortest paths between ranks `from` and
    /// `to` — `1` everywhere except cross-group pairs of a multi-spine
    /// [`Topology::fat_tree_spines`] fabric (where it equals the spine
    /// count). Self-pairs report `1` (the empty route).
    ///
    /// # Panics
    ///
    /// Panics when either rank is out of range.
    #[inline]
    pub fn route_count(&self, from: usize, to: usize) -> usize {
        let p = self.rank_vertex.len();
        assert!(from < p && to < p, "rank out of range");
        match self.ecmp_index[from * p + to] {
            u32::MAX => 1,
            g => self.ecmp_groups[g as usize].1 as usize,
        }
    }

    /// The `k`-th equal-cost shortest path from rank `from` to rank
    /// `to` — a borrowed arena slice like [`Topology::route_hops`].
    /// Slot `0` is always the canonical route (`route_hops_nth(f, t,
    /// 0) == route_hops(f, t)`); slots `1..route_count(f, t)` are the
    /// alternates a [`crate::engine::RouteSelect::SeededEcmp`] sender
    /// picks among.
    ///
    /// # Panics
    ///
    /// Panics when either rank is out of range or
    /// `k >= route_count(from, to)`.
    #[inline]
    pub fn route_hops_nth(&self, from: usize, to: usize, k: usize) -> &[Hop] {
        if k == 0 {
            return self.route_hops(from, to);
        }
        let p = self.rank_vertex.len();
        assert!(from < p && to < p, "rank out of range");
        let g = self.ecmp_index[from * p + to];
        assert!(
            g != u32::MAX,
            "route {k} out of range for rank pair ({from}, {to}): path is unique"
        );
        let (group_offset, count) = self.ecmp_groups[g as usize];
        assert!(
            k < count as usize,
            "route {k} out of range for rank pair ({from}, {to}): {count} equal-cost paths"
        );
        let (offset, len) = self.ecmp_slots[group_offset as usize + k];
        &self.route_arena[offset as usize..offset as usize + len as usize]
    }

    /// `(offset, len)` handle of the `k`-th equal-cost route into the
    /// shared route arena — resolve once per message, then read hops
    /// with [`Topology::route_slice`]. `route_slice(route_handle(f, t,
    /// k))` is the same slice `route_hops_nth(f, t, k)` returns; the
    /// handle form just lets the engine skip the rank-pair resolution
    /// on every event of an in-flight message.
    ///
    /// # Panics
    ///
    /// Panics when either rank is out of range or
    /// `k >= route_count(from, to)`.
    #[inline]
    pub fn route_handle(&self, from: usize, to: usize, k: usize) -> (u32, u32) {
        let p = self.rank_vertex.len();
        assert!(from < p && to < p, "rank out of range");
        if k == 0 {
            return self.route_index[from * p + to];
        }
        let g = self.ecmp_index[from * p + to];
        assert!(
            g != u32::MAX,
            "route {k} out of range for rank pair ({from}, {to}): path is unique"
        );
        let (group_offset, count) = self.ecmp_groups[g as usize];
        assert!(
            k < count as usize,
            "route {k} out of range for rank pair ({from}, {to}): {count} equal-cost paths"
        );
        self.ecmp_slots[group_offset as usize + k]
    }

    /// The hops a [`Topology::route_handle`] refers to.
    #[inline]
    pub fn route_slice(&self, (offset, len): (u32, u32)) -> &[Hop] {
        &self.route_arena[offset as usize..offset as usize + len as usize]
    }

    /// Canonical shortest path from rank `from` to rank `to` as a freshly
    /// computed hop list — the on-demand BFS reference implementation
    /// (the property tests diff it against the precomputed
    /// [`Topology::route_hops`] table, which is what the engine uses).
    /// Empty when `from == to`.
    ///
    /// # Panics
    ///
    /// Panics when either rank is out of range or no path exists.
    pub fn route(&self, from: usize, to: usize) -> Vec<Hop> {
        let src = self.rank_vertex[from];
        let dst = self.rank_vertex[to];
        if src == dst {
            return Vec::new();
        }
        // BFS from src; adjacency order is deterministic, so the first
        // path found is exactly the canonical one `finalize` stored
        // (continuing a BFS never rewrites an already-set predecessor).
        let mut prev: Vec<Option<(usize, LinkSpec, u32)>> = vec![None; self.nodes.len()];
        let mut queue = std::collections::VecDeque::from([src]);
        let mut seen = vec![false; self.nodes.len()];
        seen[src] = true;
        'bfs: while let Some(v) = queue.pop_front() {
            for &(w, spec, id) in &self.adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    prev[w] = Some((v, spec, id));
                    if w == dst {
                        break 'bfs;
                    }
                    queue.push_back(w);
                }
            }
        }
        let mut hops = Vec::new();
        let mut v = dst;
        while let Some((u, spec, id)) = prev[v] {
            hops.push(Hop { from: u, to: v, link: spec, link_id: id });
            v = u;
        }
        assert!(v == src, "no route between ranks {from} and {to}");
        hops.reverse();
        hops
    }

    /// Maximum rank-to-rank hop count — the fabric depth measure the
    /// variability tables sweep (flat: 2, fat tree: 4, hierarchical: 6).
    pub fn diameter_hops(&self) -> usize {
        let p = self.ranks();
        if p < 2 {
            return 0;
        }
        // All builders are symmetric enough that rank 0 vs the farthest
        // rank realises the diameter; scan rank 0 against all others.
        (1..p).map(|r| self.route_hops(0, r).len()).max().unwrap_or(0)
    }

    /// Deterministic (jitter-free, contention-free) one-way cost of a
    /// `bytes`-byte message between two ranks.
    pub fn path_cost_ns(&self, from: usize, to: usize, bytes: u64) -> f64 {
        self.route_hops(from, to)
            .iter()
            .map(|h| h.link.cost_ns(bytes))
            .sum()
    }
}

/// Collect every shortest `v → dst` path into `out`, walking the
/// shortest-path DAG forward: a directed edge `(v, w)` lies on some
/// shortest path iff it advances the distance from the source
/// (`d_src[w] == d_src[v] + 1`) and the detour through `w` still totals
/// the shortest length (`d_src[w] + d_dst[w] == total`). The forward
/// walk matters: `adj[v]` carries the `v → w` directed link id, which
/// is the id the engine charges serialization against.
#[allow(clippy::too_many_arguments)]
fn dfs_shortest_paths(
    adj: &[Vec<(usize, LinkSpec, u32)>],
    d_src: &[u32],
    d_dst: &[u32],
    total: u32,
    v: usize,
    dst: usize,
    prefix: &mut Vec<Hop>,
    out: &mut Vec<Vec<Hop>>,
) {
    if v == dst {
        out.push(prefix.clone());
        return;
    }
    for &(w, spec, id) in &adj[v] {
        if d_src[w] == d_src[v] + 1 && d_src[w] + d_dst[w] == total {
            prefix.push(Hop { from: v, to: w, link: spec, link_id: id });
            dfs_shortest_paths(adj, d_src, d_dst, total, w, dst, prefix, out);
            prefix.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> LinkSpec {
        LinkSpec::new(500.0, 10.0)
    }

    #[test]
    fn link_cost_is_alpha_plus_beta_bytes() {
        let l = LinkSpec::new(100.0, 2.0); // 2 GB/s => 0.5 ns/byte
        assert_eq!(l.cost_ns(0), 100.0);
        assert!((l.cost_ns(1000) - 600.0).abs() < 1e-9);
    }

    #[test]
    fn flat_switch_routes_are_two_hops() {
        let t = Topology::flat_switch(8, link());
        assert_eq!(t.ranks(), 8);
        assert_eq!(t.diameter_hops(), 2);
        let r = t.route(3, 5);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].from, t.rank_vertex(3));
        assert_eq!(r[1].to, t.rank_vertex(5));
        assert!(matches!(t.kind(r[0].to), NodeKind::Switch));
    }

    #[test]
    fn fat_tree_depth_and_locality() {
        let t = Topology::fat_tree(16, 4, link(), link());
        assert_eq!(t.ranks(), 16);
        // same edge switch: 2 hops; across the core: 4 hops
        assert_eq!(t.route(0, 1).len(), 2);
        assert_eq!(t.route(0, 5).len(), 4);
        assert_eq!(t.diameter_hops(), 4);
    }

    #[test]
    fn hierarchical_depth_and_rank_layout() {
        let t = Topology::hierarchical(4, 4, link(), link(), link());
        assert_eq!(t.ranks(), 16);
        // same node: rank -> node switch -> rank
        assert_eq!(t.route(0, 3).len(), 2);
        // across nodes: rank -> sw -> nic -> top -> nic -> sw -> rank
        assert_eq!(t.route(0, 4).len(), 6);
        assert_eq!(t.diameter_hops(), 6);
    }

    #[test]
    fn route_to_self_is_empty_and_costs_nothing() {
        let t = Topology::flat_switch(4, link());
        assert!(t.route(2, 2).is_empty());
        assert_eq!(t.path_cost_ns(2, 2, 1 << 20), 0.0);
    }

    #[test]
    fn path_cost_accumulates_per_hop() {
        let t = Topology::flat_switch(4, LinkSpec::new(100.0, 1.0));
        // 2 hops, each 100 + 8 ns for 8 bytes
        assert!((t.path_cost_ns(0, 1, 8) - 216.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_flat_switch_panics() {
        Topology::flat_switch(0, link());
    }

    #[test]
    fn link_ids_are_dense_and_direction_distinct() {
        for t in [
            Topology::flat_switch(5, link()),
            Topology::fat_tree(9, 3, link(), link()),
            Topology::hierarchical(2, 3, link(), link(), link()),
        ] {
            let mut seen = vec![false; t.num_links()];
            for a in 0..t.ranks() {
                for b in 0..t.ranks() {
                    for h in t.route_hops(a, b) {
                        assert!((h.link_id as usize) < t.num_links(), "{}", t.name());
                        seen[h.link_id as usize] = true;
                    }
                }
            }
            // Every directed link that any route uses has a unique id;
            // opposite directions of the same edge never share one.
            let fwd = t.route_hops(0, 1);
            let back = t.route_hops(1, 0);
            assert_ne!(fwd[0].link_id, back[back.len() - 1].link_id);
            assert!(seen.iter().filter(|&&s| s).count() > 0);
        }
    }

    #[test]
    fn precomputed_routes_match_on_demand_bfs() {
        let t = Topology::hierarchical(3, 4, link(), link(), link());
        for a in 0..t.ranks() {
            for b in 0..t.ranks() {
                assert_eq!(t.route(a, b).as_slice(), t.route_hops(a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn single_path_fabrics_report_one_route_everywhere() {
        for t in [
            Topology::flat_switch(6, link()),
            Topology::fat_tree(8, 4, link(), link()),
            Topology::hierarchical(2, 4, link(), link(), link()),
        ] {
            for a in 0..t.ranks() {
                for b in 0..t.ranks() {
                    assert_eq!(t.route_count(a, b), 1, "{} {a}->{b}", t.name());
                    assert_eq!(t.route_hops_nth(a, b, 0), t.route_hops(a, b));
                }
            }
        }
    }

    #[test]
    fn multi_spine_cross_group_pairs_expose_spines_routes() {
        for spines in [2usize, 3, 4] {
            let t = Topology::fat_tree_spines(8, 4, spines, link(), link());
            for a in 0..t.ranks() {
                for b in 0..t.ranks() {
                    let same_group = a / 4 == b / 4;
                    let expect = if a == b || same_group { 1 } else { spines };
                    assert_eq!(t.route_count(a, b), expect, "{} {a}->{b}", t.name());
                }
            }
        }
    }

    #[test]
    fn ecmp_routes_are_well_formed_equal_cost_and_distinct() {
        let t = Topology::fat_tree_spines(8, 4, 4, link(), link());
        for a in 0..t.ranks() {
            for b in 0..t.ranks() {
                let n = t.route_count(a, b);
                let canonical = t.route_hops(a, b);
                assert_eq!(t.route_hops_nth(a, b, 0), canonical);
                let mut signatures = Vec::new();
                for k in 0..n {
                    let hops = t.route_hops_nth(a, b, k);
                    assert_eq!(hops.len(), canonical.len(), "{a}->{b} route {k}");
                    if !hops.is_empty() {
                        assert_eq!(hops[0].from, t.rank_vertex(a));
                        assert_eq!(hops[hops.len() - 1].to, t.rank_vertex(b));
                        for pair in hops.windows(2) {
                            assert_eq!(pair[0].to, pair[1].from, "{a}->{b} route {k}");
                        }
                    }
                    signatures.push(hops.iter().map(|h| h.link_id).collect::<Vec<_>>());
                }
                signatures.sort();
                signatures.dedup();
                assert_eq!(signatures.len(), n, "{a}->{b} routes not distinct");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn route_hops_nth_rejects_out_of_range_slot() {
        let t = Topology::fat_tree_spines(8, 4, 2, link(), link());
        t.route_hops_nth(0, 4, 2);
    }

    #[test]
    fn fabric_groups_follow_the_physical_layout() {
        let flat = Topology::flat_switch(6, link());
        assert_eq!(flat.num_groups(), 1);
        assert_eq!(flat.group_ranks(0), &[0, 1, 2, 3, 4, 5]);

        let ft = Topology::fat_tree(16, 4, link(), link());
        assert_eq!(ft.num_groups(), 4);
        for r in 0..16 {
            assert_eq!(ft.group_of(r), r / 4);
        }
        assert_eq!(ft.group_ranks(2), &[8, 9, 10, 11]);

        let h = Topology::hierarchical(4, 4, link(), link(), link());
        assert_eq!(h.num_groups(), 4);
        for r in 0..16 {
            assert_eq!(h.group_of(r), r / 4);
        }

        let hc = Topology::hierarchical_cyclic(4, 4, link(), link(), link());
        assert_eq!(hc.num_groups(), 4);
        for r in 0..16 {
            assert_eq!(hc.group_of(r), r % 4, "cyclic placement: rank {r}");
        }
        assert_eq!(hc.group_ranks(1), &[1, 5, 9, 13]);
    }

    #[test]
    fn cross_group_links_are_exactly_the_switch_to_switch_hops() {
        // Flat switch: every link touches a rank — nothing crosses.
        let flat = Topology::flat_switch(6, link());
        assert!((0..flat.num_links()).all(|l| !flat.is_cross_group_link(l)));
        // Hierarchical: a same-node route never crosses; a cross-node
        // route crosses on exactly the sw→nic→top→nic→sw middle hops.
        let h = Topology::hierarchical(2, 4, link(), link(), link());
        for h_hop in h.route_hops(0, 3) {
            assert!(!h.is_cross_group_link(h_hop.link_id as usize));
        }
        let cross = h.route_hops(0, 4);
        let crossing: Vec<bool> = cross
            .iter()
            .map(|hop| h.is_cross_group_link(hop.link_id as usize))
            .collect();
        assert_eq!(crossing, [false, true, true, true, true, false]);
        // Fat tree: only the edge↔core uplinks cross.
        let ft = Topology::fat_tree(8, 4, link(), link());
        let crossing: Vec<bool> = ft
            .route_hops(0, 5)
            .iter()
            .map(|hop| ft.is_cross_group_link(hop.link_id as usize))
            .collect();
        assert_eq!(crossing, [false, true, true, false]);
    }

    #[test]
    fn fabric_ring_order_is_identity_on_node_major_builders() {
        for t in [
            Topology::flat_switch(7, link()),
            Topology::fat_tree_spines(16, 4, 3, link(), link()),
            Topology::hierarchical(4, 4, link(), link(), link()),
        ] {
            let order = t.fabric_ring_order();
            assert_eq!(order, (0..t.ranks()).collect::<Vec<_>>(), "{}", t.name());
        }
    }

    #[test]
    fn fabric_ring_order_recovers_node_contiguity_under_cyclic_placement() {
        let t = Topology::hierarchical_cyclic(4, 4, link(), link(), link());
        let order = t.fabric_ring_order();
        assert_eq!(order, vec![0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15]);
        // Around the aware ring, the group changes exactly num_groups
        // times; the oblivious (identity) ring changes on every hop.
        let seams = |order: &[usize]| {
            (0..order.len())
                .filter(|&i| t.group_of(order[i]) != t.group_of(order[(i + 1) % order.len()]))
                .count()
        };
        assert_eq!(seams(&order), t.num_groups());
        let identity: Vec<usize> = (0..t.ranks()).collect();
        assert_eq!(seams(&identity), t.ranks());
    }

    #[test]
    fn cyclic_placement_only_relabels_ranks() {
        // Same fabric, same link count, same diameter as the
        // node-major builder — only the rank→node map differs.
        let a = Topology::hierarchical(3, 4, link(), link(), link());
        let b = Topology::hierarchical_cyclic(3, 4, link(), link(), link());
        assert_eq!(a.nodes.len(), b.nodes.len());
        assert_eq!(a.num_links(), b.num_links());
        assert_eq!(a.diameter_hops(), b.diameter_hops());
        assert_eq!(a.num_groups(), b.num_groups());
        // Cross-node pairs cost the same either way (uniform specs).
        assert_eq!(a.route_hops(0, 4).len(), b.route_hops(0, 1).len());
    }

    #[test]
    fn single_spine_fat_tree_is_bitwise_the_classic_builder() {
        let classic = Topology::fat_tree(9, 3, link(), link());
        let spined = Topology::fat_tree_spines(9, 3, 1, link(), link());
        assert_eq!(classic.name(), spined.name());
        assert_eq!(classic.nodes.len(), spined.nodes.len());
        assert_eq!(classic.num_links(), spined.num_links());
        for a in 0..classic.ranks() {
            assert_eq!(classic.rank_vertex(a), spined.rank_vertex(a));
            for b in 0..classic.ranks() {
                assert_eq!(classic.route_hops(a, b), spined.route_hops(a, b), "{a}->{b}");
            }
        }
    }
}
