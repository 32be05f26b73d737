//! Swarm topologies.

use rand::seq::SliceRandom;
use rand::Rng;

/// A swarm graph: node 0 is the seed; every other node is a downloading
/// peer. Edges are directed send relationships.
#[derive(Clone, Debug)]
pub struct Topology {
    neighbors: Vec<Vec<usize>>,
    upload_bps: Vec<f64>,
}

impl Topology {
    /// A random connected swarm of `peers` downloaders behind one seed:
    /// every node picks `degree` random outgoing neighbors (excluding
    /// itself), and a Hamiltonian-ish chain guarantees connectivity from
    /// the seed.
    ///
    /// # Panics
    ///
    /// Panics for `peers == 0` or `degree == 0`.
    pub fn random(
        peers: usize,
        degree: usize,
        seed_upload_bps: f64,
        peer_upload_bps: f64,
        rng: &mut impl Rng,
    ) -> Topology {
        assert!(peers > 0 && degree > 0, "need at least one peer and degree");
        let nodes = peers + 1;
        let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); nodes];

        // Connectivity backbone: a random permutation chain rooted at the
        // seed, so every peer is reachable.
        let mut order: Vec<usize> = (1..nodes).collect();
        order.shuffle(rng);
        let mut prev = 0usize;
        for &node in &order {
            neighbors[prev].push(node);
            prev = node;
        }
        // Random extra edges up to the requested degree.
        for (node, nbrs) in neighbors.iter_mut().enumerate() {
            while nbrs.len() < degree.min(nodes - 1) {
                let candidate = rng.gen_range(0..nodes);
                if candidate != node && !nbrs.contains(&candidate) {
                    nbrs.push(candidate);
                }
            }
        }

        let mut upload_bps = vec![peer_upload_bps; nodes];
        upload_bps[0] = seed_upload_bps;
        Topology { neighbors, upload_bps }
    }

    /// A chain seed → p1 → p2 → … (worst case for store-and-forward,
    /// best showcase for recoding).
    pub fn chain(peers: usize, seed_upload_bps: f64, peer_upload_bps: f64) -> Topology {
        assert!(peers > 0);
        let nodes = peers + 1;
        let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); nodes];
        for (node, nbrs) in neighbors.iter_mut().enumerate().take(nodes - 1) {
            nbrs.push(node + 1);
        }
        let mut upload_bps = vec![peer_upload_bps; nodes];
        upload_bps[0] = seed_upload_bps;
        Topology { neighbors, upload_bps }
    }

    /// Node count including the seed.
    pub fn nodes(&self) -> usize {
        self.neighbors.len()
    }

    /// Outgoing neighbors of a node.
    pub(crate) fn neighbors(&self, node: usize) -> &[usize] {
        &self.neighbors[node]
    }

    /// Upload capacity of a node in bits/second.
    pub(crate) fn upload_bps(&self, node: usize) -> f64 {
        self.upload_bps[node]
    }

    /// Whether every peer is reachable from the seed.
    pub fn is_connected(&self) -> bool {
        let mut seen = vec![false; self.nodes()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(node) = stack.pop() {
            for &next in &self.neighbors[node] {
                if !seen[next] {
                    seen[next] = true;
                    stack.push(next);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn random_topology_is_connected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for peers in [1usize, 5, 20, 50] {
            let t = Topology::random(peers, 3, 10e6, 1e6, &mut rng);
            assert_eq!(t.nodes(), peers + 1);
            assert!(t.is_connected(), "{peers} peers");
        }
    }

    #[test]
    fn chain_is_connected_and_linear() {
        let t = Topology::chain(5, 10e6, 1e6);
        assert!(t.is_connected());
        assert_eq!(t.neighbors(0), &[1]);
        assert_eq!(t.neighbors(3), &[4]);
        assert!(t.neighbors(5).is_empty());
    }

    #[test]
    fn seed_gets_its_own_upload() {
        let t = Topology::chain(2, 42e6, 7e6);
        assert_eq!(t.upload_bps(0), 42e6);
        assert_eq!(t.upload_bps(1), 7e6);
    }

    #[test]
    fn degree_is_respected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let t = Topology::random(10, 4, 1e6, 1e6, &mut rng);
        for node in 0..t.nodes() {
            assert!(t.neighbors(node).len() >= 4.min(t.nodes() - 1) || node == t.nodes() - 1);
        }
    }
}
