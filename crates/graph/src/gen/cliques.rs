//! Clique chains: the workhorse family for E1/E7.
//!
//! A chain of `k` cliques of size `s` joined consecutively has
//! `n = k·s`, `m ≈ k·s²/2`, and diameter `Θ(k)` — so the experiments can
//! sweep the diameter `d` and the density `m/n ≈ s/2` *independently*,
//! which is exactly what Theorem 3's `O(log d + log log_{m/n} n)` bound
//! calls for.

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::rng::Rng;

/// A chain of `k` cliques of size `s`.
///
/// Consecutive cliques are joined by a single edge between "port" vertices,
/// giving diameter `3k - 1 - 2 = 3(k-1)+1` hops in the worst orientation
/// (clique-internal hop, bridge, …). With `s = 1` this degenerates to a
/// path on `k` vertices.
pub fn clique_chain(k: usize, s: usize) -> Graph {
    assert!(k >= 1 && s >= 1);
    let n = k * s;
    let mut b = GraphBuilder::with_capacity(n, k * s * s / 2 + k);
    for c in 0..k {
        let base = (c * s) as u32;
        for u in 0..s as u32 {
            for v in (u + 1)..s as u32 {
                b.add_edge(base + u, base + v);
            }
        }
        if c + 1 < k {
            // Bridge from the last vertex of this clique to the first of
            // the next.
            b.add_edge(base + s as u32 - 1, base + s as u32);
        }
    }
    b.build()
}

/// A path of length `len` where every path vertex is additionally connected
/// to `w` private "hair" vertices that form a clique with it.
///
/// Keeps the diameter at `len + 2` while pushing the density to
/// `m/n ≈ w/2`; unlike [`clique_chain`] the shortest paths run through
/// *low-degree* spine vertices, which stresses the paper's expansion
/// machinery differently (the hairs are the high-degree side).
pub fn hairy_clique_path(len: usize, w: usize, seed: u64) -> Graph {
    assert!(len >= 1);
    let spine = len + 1;
    let n = spine * (1 + w);
    let mut rng = Rng::new(seed ^ 0x6861_6972);
    let mut b = GraphBuilder::with_capacity(n, spine * (w * w / 2 + w + 1));
    for v in 1..spine as u32 {
        b.add_edge(v - 1, v);
    }
    let mut next = spine as u32;
    for sv in 0..spine as u32 {
        let hair_base = next;
        for i in 0..w as u32 {
            // Hair vertices form a clique among themselves and attach to
            // the spine vertex.
            b.add_edge(sv, hair_base + i);
            for j in (i + 1)..w as u32 {
                b.add_edge(hair_base + i, hair_base + j);
            }
            next += 1;
        }
        // A little randomness in which hair anchors where (keeps the
        // family from being perfectly symmetric).
        if w > 1 && rng.coin(0.5) {
            b.add_edge(sv, hair_base + rng.below(w as u64) as u32);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{diameter_exact, num_components};

    #[test]
    fn clique_chain_counts() {
        let g = clique_chain(4, 5);
        assert_eq!(g.n(), 20);
        assert_eq!(g.m(), 4 * 10 + 3);
        assert_eq!(num_components(&g), 1);
    }

    #[test]
    fn clique_chain_diameter_grows_linearly_in_k() {
        let d3 = diameter_exact(&clique_chain(3, 4));
        let d6 = diameter_exact(&clique_chain(6, 4));
        assert!(d6 >= d3 + 5, "d3={d3} d6={d6}");
    }

    #[test]
    fn clique_chain_degenerates_to_path() {
        let g = clique_chain(7, 1);
        assert_eq!(g.m(), 6);
        assert_eq!(diameter_exact(&g), 6);
    }

    #[test]
    fn hairy_path_diameter_independent_of_width() {
        let d_thin = diameter_exact(&hairy_clique_path(10, 2, 1));
        let d_fat = diameter_exact(&hairy_clique_path(10, 8, 1));
        assert!((10..=13).contains(&d_thin));
        assert!((d_fat as i64 - d_thin as i64).abs() <= 1);
    }

    #[test]
    fn hairy_path_density_scales_with_hair_count() {
        let g2 = hairy_clique_path(10, 2, 1);
        let g8 = hairy_clique_path(10, 8, 1);
        assert!(g8.density() > 2.0 * g2.density());
        assert_eq!(num_components(&g8), 1);
    }
}
