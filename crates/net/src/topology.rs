//! Interconnect topology descriptions.
//!
//! A [`Topology`] is an undirected graph of [`NodeKind`] vertices
//! (rank endpoints, NICs, switches) whose edges carry a [`LinkSpec`]
//! — the `α + β·bytes` cost model of the classic LogP/Hockney family.
//! Four builders cover the shapes the paper's future-work section
//! names:
//!
//! * [`Topology::flat_switch`] — every rank one hop from a single
//!   crossbar; the shallowest interesting fabric (depth 1);
//! * [`Topology::fat_tree_spines`] — ranks under edge switches under
//!   one or more core (spine) switches (a folded two-level Clos;
//!   depth 2). With `spines > 1` every cross-group rank pair has
//!   `spines` **equal-cost paths** — the substrate for the engine's
//!   seeded ECMP routing ([`crate::engine::RouteSelect`]);
//! * [`Topology::hierarchical`] — the cluster reality: ranks share an
//!   intra-node switch, leave through a NIC, and cross a top-of-rack
//!   switch, with distinct intra-node vs inter-node latency and
//!   bandwidth (depth 3);
//! * [`Topology::hierarchical_cyclic`] — the same fabric with ranks
//!   placed round-robin across nodes.
//!
//! All timing variation stays owned by the [`engine`](crate::engine)
//! and its [`NetConfig`](crate::engine::NetConfig): seeded jitter,
//! seeded route choice, and seeded background traffic.
//!
//! Construction is two-phase under the hood: the builders add vertices
//! and links, each **directed** link getting a dense id
//! (`0..`[`Topology::num_links`], the index of the engine's per-link
//! state) whose spec is stored once ([`Topology::link_spec`]); then
//! `finalize` enumerates every equal-cost shortest path of every rank
//! pair into one shared arena of link ids, canonical first, so a new
//! fabric gets its routes from its vertices and links alone.
//! [`Topology::route_hops_nth`] returns the `k`-th of a pair's
//! [`Topology::route_count`] routes as a borrowed `&[u32]` slice of
//! directed link ids — the allocation-free lookup the event engine
//! rides; [`Topology::link_endpoints`] names a hop's vertices.
//! [`Topology::route_hops`] is slot 0, the route fixed routing takes
//! and the one [`Topology::route`] recomputes by on-demand BFS (the
//! reference the tests diff the table against).

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

/// An interconnect: vertices, links, and the rank→vertex mapping.
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    nodes: Vec<NodeKind>,
    /// Adjacency: `adj[v]` lists `(neighbour, directed link id)`.
    adj: Vec<Vec<(usize, u32)>>,
    /// `rank_vertex[r]` is the vertex index of rank `r`.
    rank_vertex: Vec<usize>,
    /// `link_ends[link_id]` is the `(from, to)` vertex pair of the
    /// directed link (two per undirected edge), used to name a hop
    /// (trace lane names, link-stats tables, the tests).
    link_ends: Vec<(u32, u32)>,
    /// `link_specs[link_id]` is the directed link's cost model.
    link_specs: Vec<LinkSpec>,
    /// Shared arena of precomputed route hops, each a directed link
    /// id; rank-pair routes are contiguous slices of this vector.
    route_arena: Vec<u32>,
    /// `(offset, len, count)` for the rank pair `from → to`, stored at
    /// `from · ranks + to`: the pair's `count` equal-cost routes sit
    /// back to back in `route_arena` from `offset`, each `len` hops
    /// long, canonical first.
    routes: Vec<(u32, u32, u32)>,
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
            link_ends: Vec::new(),
            link_specs: Vec::new(),
            route_arena: Vec::new(),
            routes: Vec::new(),
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
        let id = self.link_ends.len() as u32;
        self.adj[a].push((b, id));
        self.adj[b].push((a, id + 1));
        self.link_ends.push((a as u32, b as u32));
        self.link_ends.push((b as u32, a as u32));
        self.link_specs.extend([spec, spec]);
    }

    /// Precompute the route table: one BFS per rank gives every
    /// vertex's hop distance to that rank, then one walk per rank pair
    /// appends all of the pair's equal-cost shortest paths to the
    /// shared arena, so every route lookup is a slice of it. Called by
    /// every builder as its final step.
    fn finalize(&mut self) {
        let p = self.rank_vertex.len();
        let dist_to: Vec<Vec<u32>> = self.rank_vertex.iter().map(|&v| self.bfs_dist(v)).collect();
        self.routes = Vec::with_capacity(p * p);
        let mut path = Vec::new();
        for from in 0..p {
            let src = self.rank_vertex[from];
            for (to, dist) in dist_to.iter().enumerate() {
                let len = dist[src];
                assert!(len != u32::MAX, "no route between ranks {from} and {to}");
                let offset = self.route_arena.len() as u32;
                let count =
                    walk_shortest_paths(&self.adj, dist, src, &mut path, &mut self.route_arena);
                self.routes.push((offset, len, count));
            }
        }
        assert!(
            u32::try_from(self.route_arena.len()).is_ok(),
            "route arena exceeds u32 offsets"
        );
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
        self.cross_group = self
            .link_ends
            .iter()
            .map(|&(a, b)| {
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
                for &(w, id) in &self.adj[v] {
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
            for &(w, _) in &self.adj[v] {
                if dist[w] == u32::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
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

    /// Two-level folded Clos (fat tree) — depth 2: `radix` ranks per
    /// edge switch over `edge` links, and every edge switch uplinks to
    /// each of `spines` core switches over `core` links, so each
    /// cross-group rank pair has exactly `spines` equal-cost four-hop
    /// paths — the substrate for seeded ECMP routing
    /// ([`crate::engine::RouteSelect::SeededEcmp`]). With one spine
    /// every route is unique and the name is `fat-tree(p=…,radix=…)`.
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

    /// Number of **directed** links (two per undirected edge). The
    /// link ids a route holds are dense in `0..num_links()`, so a
    /// `Vec` of this length indexes any per-link state.
    pub fn num_links(&self) -> usize {
        self.link_ends.len()
    }

    /// The `(from, to)` vertex pair of a directed link.
    ///
    /// # Panics
    ///
    /// Panics when `link_id >= num_links()`.
    pub fn link_endpoints(&self, link_id: usize) -> (usize, usize) {
        let (a, b) = self.link_ends[link_id];
        (a as usize, b as usize)
    }

    /// Cost model of a directed link (both directions of an edge share
    /// the spec the builder gave it).
    ///
    /// # Panics
    ///
    /// Panics when `link_id >= num_links()`.
    #[inline]
    pub fn link_spec(&self, link_id: usize) -> LinkSpec {
        self.link_specs[link_id]
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

    /// The canonical shortest path from rank `from` to rank `to`
    /// (route slot 0) as its directed link ids in hop order: a
    /// borrowed slice into the shared route arena — no allocation, no
    /// search. Empty when `from == to`. Identical hop for hop to
    /// [`Topology::route`].
    ///
    /// # Panics
    ///
    /// Panics when either rank is out of range.
    #[inline]
    pub fn route_hops(&self, from: usize, to: usize) -> &[u32] {
        self.route_hops_nth(from, to, 0)
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
        self.pair(from, to).2 as usize
    }

    /// The `k`-th equal-cost shortest path from rank `from` to rank
    /// `to` — a borrowed arena slice like [`Topology::route_hops`].
    /// Slot `0` is the canonical route (`route_hops_nth(f, t, 0) ==
    /// route_hops(f, t)`); slots `1..route_count(f, t)` are the
    /// alternates a [`crate::engine::RouteSelect::SeededEcmp`] sender
    /// picks among, in lexicographic order by adjacency index.
    ///
    /// # Panics
    ///
    /// Panics when either rank is out of range or
    /// `k >= route_count(from, to)`.
    #[inline]
    pub fn route_hops_nth(&self, from: usize, to: usize, k: usize) -> &[u32] {
        self.route_slice(self.route_handle(from, to, k))
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
        let (offset, len, count) = self.pair(from, to);
        assert!(
            k < count as usize,
            "route {k} out of range for rank pair ({from}, {to}): {count} equal-cost paths"
        );
        (offset + k as u32 * len, len)
    }

    /// The hops (directed link ids) a [`Topology::route_handle`] refers
    /// to.
    #[inline]
    pub fn route_slice(&self, (offset, len): (u32, u32)) -> &[u32] {
        &self.route_arena[offset as usize..offset as usize + len as usize]
    }

    /// The `(offset, len, count)` table entry of a rank pair.
    #[inline]
    fn pair(&self, from: usize, to: usize) -> (u32, u32, u32) {
        let p = self.rank_vertex.len();
        assert!(from < p && to < p, "rank out of range");
        self.routes[from * p + to]
    }

    /// Canonical shortest path from rank `from` to rank `to` as a freshly
    /// computed list of directed link ids — the on-demand BFS reference
    /// implementation, built independently of the route table (the
    /// tests diff it against [`Topology::route_hops`], which is what
    /// the engine uses). Empty when `from == to`.
    ///
    /// # Panics
    ///
    /// Panics when either rank is out of range or no path exists.
    pub fn route(&self, from: usize, to: usize) -> Vec<u32> {
        let src = self.rank_vertex[from];
        let dst = self.rank_vertex[to];
        if src == dst {
            return Vec::new();
        }
        // BFS from src in adjacency order: each vertex keeps its first
        // discoverer, so the path found is the lexicographically
        // smallest shortest path by adjacency index — the table's slot 0.
        let mut prev: Vec<Option<(usize, u32)>> = vec![None; self.nodes.len()];
        let mut queue = std::collections::VecDeque::from([src]);
        let mut seen = vec![false; self.nodes.len()];
        seen[src] = true;
        'bfs: while let Some(v) = queue.pop_front() {
            for &(w, id) in &self.adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    prev[w] = Some((v, id));
                    if w == dst {
                        break 'bfs;
                    }
                    queue.push_back(w);
                }
            }
        }
        let mut hops = Vec::new();
        let mut v = dst;
        while let Some((u, id)) = prev[v] {
            hops.push(id);
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
}

/// Append to `out` every shortest path from vertex `v` to the vertex
/// that `dist` holds hop distances to, each prefixed by `path`, and
/// return how many. A link lies on a shortest path exactly when it
/// brings the walk one hop closer, and links are taken in adjacency
/// order, so the paths come out in lexicographic order by adjacency
/// index: the first is the path BFS finds, which [`Topology::route`]
/// recomputes. The walk runs forward because `adj[v]` carries the
/// `v → w` directed link id, the id the engine charges serialization
/// against.
fn walk_shortest_paths(
    adj: &[Vec<(usize, u32)>],
    dist: &[u32],
    v: usize,
    path: &mut Vec<u32>,
    out: &mut Vec<u32>,
) -> u32 {
    if dist[v] == 0 {
        out.extend_from_slice(path);
        return 1;
    }
    let mut count = 0;
    for &(w, link_id) in &adj[v] {
        if dist[w] == dist[v] - 1 {
            path.push(link_id);
            count += walk_shortest_paths(adj, dist, w, path, out);
            path.pop();
        }
    }
    count
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
    fn link_specs_follow_the_builders_wiring() {
        let (intra, nic, inter) = (
            LinkSpec::new(100.0, 8.0),
            LinkSpec::new(200.0, 4.0),
            LinkSpec::new(300.0, 2.0),
        );
        let h = Topology::hierarchical(2, 2, intra, nic, inter);
        let specs: Vec<LinkSpec> = h
            .route_hops(0, 2)
            .iter()
            .map(|&l| h.link_spec(l as usize))
            .collect();
        assert_eq!(specs, [intra, nic, inter, inter, nic, intra]);
    }

    #[test]
    fn flat_switch_routes_are_two_hops() {
        let t = Topology::flat_switch(8, link());
        assert_eq!(t.ranks(), 8);
        assert_eq!(t.diameter_hops(), 2);
        let r = t.route(3, 5);
        assert_eq!(r.len(), 2);
        let (first, last) = (
            t.link_endpoints(r[0] as usize),
            t.link_endpoints(r[1] as usize),
        );
        assert_eq!(first.0, t.rank_vertex(3));
        assert_eq!(last.1, t.rank_vertex(5));
        assert!(matches!(t.kind(first.1), NodeKind::Switch));
    }

    #[test]
    fn fat_tree_depth_and_locality() {
        let t = Topology::fat_tree_spines(16, 4, 1, link(), link());
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
        assert!(t.route_hops(2, 2).is_empty());
        assert_eq!(t.route_count(2, 2), 1);
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
            Topology::fat_tree_spines(9, 3, 1, link(), link()),
            Topology::hierarchical(2, 3, link(), link(), link()),
        ] {
            let mut seen = vec![false; t.num_links()];
            for a in 0..t.ranks() {
                for b in 0..t.ranks() {
                    for &l in t.route_hops(a, b) {
                        assert!((l as usize) < t.num_links(), "{}", t.name());
                        seen[l as usize] = true;
                    }
                }
            }
            // Every directed link that any route uses has a unique id;
            // opposite directions of the same edge never share one.
            let fwd = t.route_hops(0, 1);
            let back = t.route_hops(1, 0);
            assert_ne!(fwd[0], back[back.len() - 1]);
            assert!(seen.iter().filter(|&&s| s).count() > 0);
        }
    }

    #[test]
    fn precomputed_routes_match_on_demand_bfs() {
        // Slot 0 of the table is the BFS route on every builder,
        // including the multi-spine fabrics where a pair has several.
        for t in [
            Topology::flat_switch(5, link()),
            Topology::fat_tree_spines(9, 3, 1, link(), link()),
            Topology::fat_tree_spines(16, 4, 4, link(), link()),
            Topology::hierarchical(3, 4, link(), link(), link()),
            Topology::hierarchical_cyclic(3, 4, link(), link(), link()),
        ] {
            for a in 0..t.ranks() {
                for b in 0..t.ranks() {
                    let (bfs, table) = (t.route(a, b), t.route_hops(a, b));
                    assert_eq!(bfs.as_slice(), table, "{} {a}->{b}", t.name());
                }
            }
        }
    }

    #[test]
    fn single_path_fabrics_report_one_route_everywhere() {
        for t in [
            Topology::flat_switch(6, link()),
            Topology::fat_tree_spines(8, 4, 1, link(), link()),
            Topology::hierarchical(2, 4, link(), link(), link()),
        ] {
            for a in 0..t.ranks() {
                for b in 0..t.ranks() {
                    assert_eq!(t.route_count(a, b), 1, "{} {a}->{b}", t.name());
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
                let shortest = t.route(a, b).len();
                let mut signatures = Vec::new();
                for k in 0..n {
                    let hops = t.route_hops_nth(a, b, k);
                    assert_eq!(hops.len(), shortest, "{a}->{b} route {k}");
                    let ends: Vec<_> = hops.iter().map(|&l| t.link_endpoints(l as usize)).collect();
                    if !ends.is_empty() {
                        assert_eq!(ends[0].0, t.rank_vertex(a));
                        assert_eq!(ends[ends.len() - 1].1, t.rank_vertex(b));
                        for pair in ends.windows(2) {
                            assert_eq!(pair[0].1, pair[1].0, "{a}->{b} route {k}");
                        }
                    }
                    signatures.push(hops.to_vec());
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

        let ft = Topology::fat_tree_spines(16, 4, 1, link(), link());
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
        for &l in h.route_hops(0, 3) {
            assert!(!h.is_cross_group_link(l as usize));
        }
        let cross = h.route_hops(0, 4);
        let crossing: Vec<bool> = cross
            .iter()
            .map(|&l| h.is_cross_group_link(l as usize))
            .collect();
        assert_eq!(crossing, [false, true, true, true, true, false]);
        // Fat tree: only the edge↔core uplinks cross.
        let ft = Topology::fat_tree_spines(8, 4, 1, link(), link());
        let crossing: Vec<bool> = ft
            .route_hops(0, 5)
            .iter()
            .map(|&l| ft.is_cross_group_link(l as usize))
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
}
