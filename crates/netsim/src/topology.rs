//! Network connectivity graphs.

use std::collections::VecDeque;

/// An undirected connectivity graph over `num_nodes` nodes (indices `0..n`).
///
/// Node `0` conventionally hosts the TTW host (the LWB/TTW host is just
/// another node of the network). A topology never changes after it is built,
/// so its diameter is measured once, by [`Topology::from_edges`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    num_nodes: usize,
    adjacency: Vec<Vec<usize>>,
    diameter: usize,
}

impl Topology {
    /// Builds a topology from an explicit undirected edge list.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `≥ num_nodes` or is a self-loop.
    pub fn from_edges(num_nodes: usize, edges: &[(usize, usize)]) -> Self {
        let mut adjacency = vec![Vec::new(); num_nodes];
        for &(a, b) in edges {
            assert!(a < num_nodes && b < num_nodes, "edge out of range");
            assert_ne!(a, b, "self-loops are not allowed");
            if !adjacency[a].contains(&b) {
                adjacency[a].push(b);
                adjacency[b].push(a);
            }
        }
        for list in &mut adjacency {
            list.sort_unstable();
        }
        let mut topology = Topology {
            num_nodes,
            adjacency,
            diameter: 0,
        };
        topology.diameter = (0..num_nodes)
            .flat_map(|v| topology.hop_distances(v))
            .filter(|&d| d != usize::MAX)
            .max()
            .unwrap_or(0);
        topology
    }

    /// A line (chain) of `n` nodes: `0 – 1 – … – n−1`. Diameter `n − 1`.
    pub fn line(n: usize) -> Self {
        assert!(n >= 1);
        let edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        Self::from_edges(n, &edges)
    }

    /// A ring of `n ≥ 3` nodes. Diameter `⌊n/2⌋`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least 3 nodes");
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        Self::from_edges(n, &edges)
    }

    /// A star: node 0 in the centre connected to all others. Diameter 2.
    pub fn star(n: usize) -> Self {
        assert!(n >= 2);
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
        Self::from_edges(n, &edges)
    }

    /// A `width × height` grid with 4-neighbour connectivity.
    pub fn grid(width: usize, height: usize) -> Self {
        assert!(width >= 1 && height >= 1);
        let n = width * height;
        let mut edges = Vec::new();
        for y in 0..height {
            for x in 0..width {
                let i = y * width + x;
                if x + 1 < width {
                    edges.push((i, i + 1));
                }
                if y + 1 < height {
                    edges.push((i, i + width));
                }
            }
        }
        Self::from_edges(n, &edges)
    }

    /// A deterministic "multi-hop cluster" topology with a chosen diameter:
    /// `diameter + 1` clusters of `cluster_size` fully-meshed nodes, with the
    /// clusters chained together. Useful to build an `H`-hop network with many
    /// nodes, matching the paper's evaluation parameter `H`.
    pub fn clustered_line(diameter: usize, cluster_size: usize) -> Self {
        assert!(diameter >= 1 && cluster_size >= 1);
        let clusters = diameter + 1;
        let n = clusters * cluster_size;
        let mut edges = Vec::new();
        let node = |c: usize, k: usize| c * cluster_size + k;
        for c in 0..clusters {
            for a in 0..cluster_size {
                for b in (a + 1)..cluster_size {
                    edges.push((node(c, a), node(c, b)));
                }
            }
            if c + 1 < clusters {
                // Every node of cluster c connects to every node of cluster c+1.
                for a in 0..cluster_size {
                    for b in 0..cluster_size {
                        edges.push((node(c, a), node(c + 1, b)));
                    }
                }
            }
        }
        Self::from_edges(n, &edges)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Neighbours of `node`, sorted by index.
    pub fn neighbors(&self, node: usize) -> &[usize] {
        &self.adjacency[node]
    }

    /// Hop distances from `source` to every node (BFS); `usize::MAX` marks
    /// unreachable nodes.
    pub fn hop_distances(&self, source: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.num_nodes];
        let mut queue = VecDeque::new();
        dist[source] = 0;
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            for &w in &self.adjacency[v] {
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Hop distance between two nodes, or `None` if disconnected.
    pub fn hop_distance(&self, a: usize, b: usize) -> Option<usize> {
        let d = self.hop_distances(a)[b];
        (d != usize::MAX).then_some(d)
    }

    /// Network diameter: the largest finite hop distance between any two nodes.
    ///
    /// Returns 0 for a single-node network.
    pub fn diameter(&self) -> usize {
        self.diameter
    }

    /// Returns `true` if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.num_nodes == 0 {
            return true;
        }
        self.hop_distances(0).iter().all(|&d| d != usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The largest finite hop distance, by a breadth-first search from every
    /// node over `neighbors` — the measurement `from_edges` stores.
    fn brute_force_diameter(t: &Topology) -> usize {
        let mut best = 0;
        for source in 0..t.num_nodes() {
            let mut dist: Vec<Option<usize>> = vec![None; t.num_nodes()];
            dist[source] = Some(0);
            let mut queue = VecDeque::from([source]);
            while let Some(v) = queue.pop_front() {
                for &w in t.neighbors(v) {
                    if dist[w].is_none() {
                        let d = dist[v].expect("a queued node has a distance") + 1;
                        best = best.max(d);
                        dist[w] = Some(d);
                        queue.push_back(w);
                    }
                }
            }
        }
        best
    }

    #[test]
    fn stored_diameter_equals_an_all_pairs_search() {
        let mut shapes = Vec::new();
        for n in 1usize..12 {
            shapes.push(Topology::line(n));
            shapes.push(Topology::grid(n, 3));
            if n >= 2 {
                shapes.push(Topology::star(n));
            }
            if n >= 3 {
                shapes.push(Topology::ring(n));
            }
        }
        for h in 1..6 {
            for size in 1..4 {
                shapes.push(Topology::clustered_line(h, size));
            }
        }
        let mut rng = SplitMix64::new(0x746f_706f);
        for _ in 0..200 {
            let n = 1 + (rng.next_u64() % 16) as usize;
            let edges: Vec<(usize, usize)> = (0..rng.next_u64() % 24)
                .map(|_| {
                    let a = (rng.next_u64() % n as u64) as usize;
                    (a, (a + 1 + (rng.next_u64() % n as u64) as usize) % n)
                })
                .filter(|&(a, b)| a != b)
                .collect();
            shapes.push(Topology::from_edges(n, &edges));
        }
        for t in &shapes {
            assert_eq!(t.diameter(), brute_force_diameter(t), "{t:?}");
        }
        assert!(shapes.iter().any(|t| !t.is_connected()));
    }

    #[test]
    fn line_topology_properties() {
        let t = Topology::line(5);
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.diameter(), 4);
        assert!(t.is_connected());
        assert_eq!(t.neighbors(2), &[1, 3]);
        assert_eq!(t.hop_distance(0, 4), Some(4));
    }

    #[test]
    fn ring_diameter_is_half() {
        assert_eq!(Topology::ring(6).diameter(), 3);
        assert_eq!(Topology::ring(7).diameter(), 3);
    }

    #[test]
    fn star_diameter_is_two() {
        let t = Topology::star(8);
        assert_eq!(t.diameter(), 2);
        assert_eq!(t.neighbors(0).len(), 7);
    }

    #[test]
    fn grid_distances() {
        let t = Topology::grid(3, 3);
        assert_eq!(t.num_nodes(), 9);
        assert_eq!(t.diameter(), 4); // opposite corners
        assert_eq!(t.hop_distance(0, 8), Some(4));
        assert_eq!(t.neighbors(0), &[1, 3]);
    }

    #[test]
    fn clustered_line_has_requested_diameter() {
        for h in 1..=6 {
            let t = Topology::clustered_line(h, 3);
            assert_eq!(t.diameter(), h, "H = {h}");
            assert!(t.is_connected());
        }
    }

    #[test]
    fn disconnected_graph_detected() {
        let t = Topology::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!t.is_connected());
        assert_eq!(t.hop_distance(0, 3), None);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        Topology::from_edges(3, &[(1, 1)]);
    }

    /// Exhaustive stand-in for the property-based check (proptest is
    /// unavailable offline): hop distance on a line is |a − b| and symmetric.
    #[test]
    fn line_distance_is_absolute_difference() {
        for n in 2usize..30 {
            let t = Topology::line(n);
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(t.hop_distance(a, b), Some(a.abs_diff(b)));
                    assert_eq!(t.hop_distance(a, b), t.hop_distance(b, a));
                }
            }
        }
    }

    /// Every generated topology family is connected.
    #[test]
    fn families_are_connected() {
        for n in 3usize..20 {
            assert!(Topology::line(n).is_connected());
            assert!(Topology::ring(n).is_connected());
            assert!(Topology::star(n).is_connected());
        }
        for w in 1usize..6 {
            for h in 1usize..6 {
                assert!(Topology::grid(w, h).is_connected());
            }
        }
    }
}
