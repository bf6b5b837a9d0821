//! MAXLINK (§3.1/§D.1): every vertex re-hooks onto the highest-level
//! parent in its closed neighbourhood, twice per invocation.
//!
//! Implementation follows §3.3: every edge-holder (arc processor or table
//! cell) writes the neighbour's parent into a level-indexed candidate array
//! of the target vertex (ARBITRARY win per level cell), then each vertex
//! picks the highest occupied level in one charged step (the paper finds
//! it in O(1) with `log³ n` processors doing pairwise comparisons; the
//! scan over `L_max + 1 = O(log log n)` cells is charged 1 and shows up in
//! the `max_ops_per_proc` audit).
//!
//! Live-work scheduling: the invocation operates on the caller's compacted
//! live index — arc/table candidate writes and the selection scan iterate
//! the live arcs / live table cells / live vertices only, so an invocation
//! costs O(live), not O(n + m).
//!
//! **Generation-stamped candidates.** Candidate cells are allocated *per
//! invocation* at `live_verts × (L_max + 1)` — each live vertex's row is
//! its position in the live vertex list (`vert_slot`) — and each cell
//! carries a generation stamp: a cell is occupied in the selection scan
//! iff its stamp equals the current iteration's generation. The stamp
//! check substitutes for a NULL sentinel, so neither an O(n) array nor a
//! per-iteration clear step exists; stale cells (earlier iterations, or
//! rows recycled from an earlier invocation's allocation) fail the stamp
//! check instead of being overwritten with NULL. Writers whose target is
//! not in the live vertex list skip (`NO_SLOT`): no selection scan would
//! read that cell.
//!
//! Under resolution rules that depend only on the processor id
//! (PRIORITY-MIN/MAX) the committed winners do not depend on where the
//! cells live, so the parents are pinned exactly against the retired
//! clear-based schedule (`n × (L_max + 1)` array, NULL clear per
//! iteration) in `priority_policies_reproduce_the_clear_based_parents`.
//!
//! Tie handling: the update fires only when the best candidate's level
//! *strictly* exceeds the current parent's — preferring the incumbent
//! among equal-level candidates is a legal ARBITRARY choice and keeps the
//! break condition's "no parent changed" test from flapping between tied
//! parents. (An explicit self-candidate write would land exactly at the
//! incumbent's level and can never be read by the strict scan, so none is
//! issued or charged.)
//!
//! Invariant preserved (Lemma 3.2/D.4): a new parent always has level
//! strictly above the old parent's (hence above the vertex's), so parent
//! chains strictly increase in level and no cycle can form.

use crate::state::CcState;
use pram_kit::ops::Flag;
use pram_sim::{Handle, Pram, NULL};

/// "Not live" marker in the `vert_slot` map — the one sentinel shared by
/// every live index (see [`crate::live`]).
pub(crate) use crate::live::NO_SLOT;

/// Shared context for a MAXLINK invocation.
pub(crate) struct MaxlinkCtx<'a> {
    /// Candidate array: `live_verts.len() × (lmax + 1)` cells, row = slot
    /// in `live_verts`.
    pub cand: Handle,
    /// Generation stamps, same shape as `cand`.
    pub cstamp: Handle,
    /// vertex → row in `cand` (`NO_SLOT` for vertices not in `live_verts`).
    pub vert_slot: &'a [u32],
    /// Level array.
    pub level: Handle,
    /// Max level (array stride is `max_level + 1`).
    pub lmax: usize,
    /// Compacted live-arc index (non-loop arcs).
    pub live_arcs: &'a [u32],
    /// Endpoints of live arcs and live table edges — the only vertices
    /// that can receive a candidate this invocation.
    pub live_verts: &'a [u32],
    /// Live persistent-table edge index: one entry per live cell, `(x, cell)`.
    pub table_cells: &'a [(u32, u32)],
    /// Per-vertex persistent table offsets (NULL = none).
    pub eoff: Handle,
    /// The table heap.
    pub heap: Handle,
}

/// One MAXLINK iteration; raises `changed` if any parent moved. `gen` is
/// the iteration's generation stamp (≥ 1).
pub(crate) fn maxlink_iter(
    pram: &mut Pram,
    st: &CcState,
    mx: &MaxlinkCtx,
    changed: &Flag,
    gen: u64,
) {
    let stride = mx.lmax + 1;
    let (cand, cstamp, level, eoff, heap) = (mx.cand, mx.cstamp, mx.level, mx.eoff, mx.heap);
    let slot = mx.vert_slot;
    let parent = st.parent;
    let (eu, ev) = (st.eu, st.ev);
    let lv = mx.live_verts;

    // A candidate write: `pb` proposed for `target` at `pb`'s level. The
    // target maps through the slot map (a `NO_SLOT` miss has no row any
    // selection scan reads) and the cell is stamped; all stampers write
    // the same `gen`, so any ARBITRARY winner leaves the cell occupied.
    let propose = move |ctx: &mut pram_sim::Ctx, target: u64, pb: u64, lpb: usize| {
        let row = match slot[target as usize] {
            NO_SLOT => return,
            s => s as usize,
        };
        ctx.write(cand, row * stride + lpb, pb);
        ctx.write(cstamp, row * stride + lpb, gen);
    };

    // Arc candidates: for live arc (a, b), b's parent is a candidate for a.
    pram.step_over(mx.live_arcs, move |_, &ai, ctx| {
        let i = ai as usize;
        let a = ctx.read(eu, i);
        let b = ctx.read(ev, i);
        if a == b {
            return;
        }
        let pb = ctx.read(parent, b as usize);
        let lpb = ctx.read(level, pb as usize) as usize;
        propose(ctx, a, pb, lpb);
    });

    // Table-edge candidates, both directions per live cell.
    pram.step_over(mx.table_cells, move |_, &(x, c), ctx| {
        let off = ctx.read(eoff, x as usize);
        if off == NULL {
            return;
        }
        let w = ctx.read(heap, off as usize + c as usize);
        if w == NULL || w == x as u64 {
            return;
        }
        let pw = ctx.read(parent, w as usize);
        let lpw = ctx.read(level, pw as usize) as usize;
        propose(ctx, x as u64, pw, lpw);
        let px = ctx.read(parent, x as usize);
        let lpx = ctx.read(level, px as usize) as usize;
        propose(ctx, w, px, lpx);
    });

    // Selection: highest occupied level wins; update on strict improvement
    // over the current parent's level. Charged one step (see module docs);
    // the scan is up to L_max+1 stamp reads plus one value read, visible
    // in the audit counter. The processor index *is* the vertex's row.
    pram.step_over(lv, |p, &v, ctx| {
        let row = p as usize;
        let pv = ctx.read(parent, v as usize);
        let lp = ctx.read(level, pv as usize) as usize;
        for l in (lp + 1..stride).rev() {
            if ctx.read(cstamp, row * stride + l) == gen {
                let u = ctx.read(cand, row * stride + l);
                ctx.write(parent, v as usize, u);
                changed.raise(ctx);
                return;
            }
        }
    });
}

/// Full MAXLINK: `iters` iterations (the paper uses 2). Generations count
/// up from 1 — the caller's per-invocation stamp array starts zeroed, so
/// generation 0 can never look occupied.
pub(crate) fn maxlink(pram: &mut Pram, st: &CcState, mx: &MaxlinkCtx, changed: &Flag, iters: u32) {
    for it in 0..iters {
        maxlink_iter(pram, st, mx, changed, it as u64 + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::gen;
    use pram_sim::WritePolicy;

    /// A machine with `g` loaded and hand-set levels.
    fn setup_graph(
        policy: WritePolicy,
        g: &cc_graph::Graph,
        levels: &[u64],
    ) -> (Pram, CcState, Handle) {
        let mut pram = Pram::new(policy);
        let st = CcState::init(&mut pram, g);
        let level = pram.alloc(levels.len());
        for (v, &l) in levels.iter().enumerate() {
            pram.set(level, v, l);
        }
        (pram, st, level)
    }

    /// A path graph with hand-set levels.
    fn setup(levels: &[u64]) -> (Pram, CcState, Handle) {
        setup_graph(
            WritePolicy::ArbitrarySeeded(5),
            &gen::path(levels.len()),
            levels,
        )
    }

    /// One MAXLINK invocation of `iters` iterations over the given live
    /// arcs and vertices, with a fresh candidate/stamp allocation (as the
    /// driver makes per invocation). Returns whether any parent moved.
    fn invoke(
        pram: &mut Pram,
        st: &CcState,
        level: Handle,
        live_arcs: &[u32],
        live_verts: &[u32],
        iters: u32,
    ) -> bool {
        let lmax = 8;
        let sz = (live_verts.len() * (lmax + 1)).max(1);
        let (cand, cstamp) = (pram.alloc(sz), pram.alloc(sz));
        let mut vert_slot = vec![NO_SLOT; st.n];
        for (i, &v) in live_verts.iter().enumerate() {
            vert_slot[v as usize] = i as u32;
        }
        let eoff = pram.alloc_filled(st.n, NULL);
        let heap = pram.alloc_filled(1, NULL);
        let changed = Flag::new(pram);
        let mx = MaxlinkCtx {
            cand,
            cstamp,
            vert_slot: &vert_slot,
            level,
            lmax,
            live_arcs,
            live_verts,
            table_cells: &[],
            eoff,
            heap,
        };
        maxlink(pram, st, &mx, &changed, iters);
        let r = changed.read(pram);
        changed.free(pram);
        for h in [cand, cstamp, eoff, heap] {
            pram.free(h);
        }
        r
    }

    /// One single-iteration invocation over every arc and vertex.
    fn run_iter(pram: &mut Pram, st: &CcState, level: Handle) -> bool {
        let live_arcs: Vec<u32> = (0..st.arcs as u32).collect();
        let live_verts: Vec<u32> = (0..st.n as u32).collect();
        invoke(pram, st, level, &live_arcs, &live_verts, 1)
    }

    #[test]
    fn hooks_toward_highest_level_neighbor_parent() {
        // Path 0-1-2; levels: 1, 1, 3. Vertices 0: neighbors {1}: parent 1
        // level 1 — no move. Vertex 1: neighbor 2 has parent 2 at level 3 >
        // own parent's level 1 → hook onto 2.
        let (mut pram, st, level) = setup(&[1, 1, 3]);
        assert!(run_iter(&mut pram, &st, level));
        let p = pram.read_vec(st.parent);
        assert_eq!(p, vec![0, 2, 2]);
    }

    #[test]
    fn no_change_on_equal_levels() {
        let (mut pram, st, level) = setup(&[2, 2, 2, 2]);
        assert!(!run_iter(&mut pram, &st, level));
        assert_eq!(pram.read_vec(st.parent), vec![0, 1, 2, 3]);
    }

    #[test]
    fn two_iterations_reach_distance_two() {
        // Path 0-1-2 with level(2)=5: after one iteration 1 hooks on 2;
        // after the second, 0 sees neighbor 1 whose parent is 2 (level 5)
        // and hooks onto 2 as well — the "distance 2" effect MAXLINK
        // exists for (Lemma 3.7 applied twice).
        let (mut pram, st, level) = setup(&[1, 1, 5]);
        run_iter(&mut pram, &st, level);
        run_iter(&mut pram, &st, level);
        let p = pram.read_vec(st.parent);
        assert_eq!(p, vec![2, 2, 2]);
    }

    #[test]
    fn restricting_to_live_arcs_matches_full_iteration() {
        // Arcs past the live prefix are loops after an ALTER; feeding only
        // the live prefix must give the same hooks as feeding everything
        // (loops contribute no candidates either way).
        let (mut pram, st, level) = setup(&[1, 1, 4, 1]);
        // Make arcs of vertex 3 loops by hand.
        let eu = pram.read_vec(st.eu);
        let ev = pram.read_vec(st.ev);
        let mut live: Vec<u32> = Vec::new();
        for i in 0..st.arcs {
            if eu[i] != ev[i] && eu[i] != 3 && ev[i] != 3 {
                live.push(i as u32);
            } else {
                pram.set(st.eu, i, 0);
                pram.set(st.ev, i, 0);
            }
        }
        invoke(&mut pram, &st, level, &live, &[0, 1, 2], 1);
        let p = pram.read_vec(st.parent);
        assert_eq!(p, vec![0, 2, 2, 3]);
    }

    #[test]
    fn levels_strictly_increase_along_new_chains() {
        // Random levels on a grid; after MAXLINK, every non-root's parent
        // has strictly higher level (Lemma 3.2 / D.4).
        let g = gen::grid(5, 5);
        let levels: Vec<u64> = (0..g.n() as u64).map(|v| (v * 7 + 3) % 5).collect();
        let (mut pram, st, level) = setup_graph(WritePolicy::ArbitrarySeeded(9), &g, &levels);
        run_iter(&mut pram, &st, level);
        run_iter(&mut pram, &st, level);
        let p = pram.read_vec(st.parent);
        let l = pram.read_vec(level);
        crate::verify::forest_heights(&p).expect("cycle created by MAXLINK");
        for v in 0..st.n {
            if p[v] != v as u64 {
                assert!(
                    l[p[v] as usize] > l[v],
                    "non-root {v} level {} parent {} level {}",
                    l[v],
                    p[v],
                    l[p[v] as usize]
                );
            }
        }
    }

    /// Run a full MAXLINK invocation on a `gnm` graph and return the
    /// parents.
    fn run_mode(policy: WritePolicy, levels: &[u64], live_verts: &[u32], iters: u32) -> Vec<u64> {
        let g = gen::gnm(levels.len(), levels.len() * 3, 7);
        let (mut pram, st, level) = setup_graph(policy, &g, levels);
        let live_arcs: Vec<u32> = (0..st.arcs as u32).collect();
        invoke(&mut pram, &st, level, &live_arcs, live_verts, iters);
        pram.read_vec(st.parent)
    }

    /// Parent digests of the retired clear-based schedule (`n × (L_max+1)`
    /// candidate array, NULL clear per iteration), per `n`:
    /// `[PriorityMin × 1 iter, PriorityMin × 2, PriorityMax × 1, PriorityMax × 2]`.
    const CLEAR_BASED_PARENT_DIGESTS: [(usize, [u64; 4]); 4] = [
        (
            8,
            [
                0xd549_0900_ecc8_fae9,
                0xd549_0900_ecc8_fae9,
                0x7cc0_6db5_c59c_8bf7,
                0x7cc0_6db5_c59c_8bf7,
            ],
        ),
        (
            23,
            [
                0x95cd_eee5_e4ef_a78e,
                0xbf5a_785c_fc68_8aea,
                0xf3d8_661a_7f01_6623,
                0x69cd_34c9_f797_55a0,
            ],
        ),
        (
            57,
            [
                0x0db6_d61c_8020_9036,
                0xdab4_18b9_c158_84a4,
                0xbc08_7e2e_8ba3_cfbb,
                0x159a_fad6_8381_45ec,
            ],
        ),
        (
            96,
            [
                0x349b_6b8e_d6ee_eee3,
                0xa626_c8ff_b46c_8db6,
                0xea74_add6_6463_8d4c,
                0xdf6d_23b2_b530_eb43,
            ],
        ),
    ];

    #[test]
    fn priority_policies_reproduce_the_clear_based_parents() {
        // Identical writer sets per logical candidate cell + address-
        // independent write resolution ⇒ identical committed winners ⇒
        // identical parents, bit for bit, whatever the cell layout.
        for (n, want) in CLEAR_BASED_PARENT_DIGESTS {
            let levels: Vec<u64> = (0..n as u64).map(|v| (v * 13 + 5) % 6).collect();
            let live_verts: Vec<u32> = (0..n as u32).collect();
            let mut got = Vec::new();
            for policy in [WritePolicy::PriorityMin, WritePolicy::PriorityMax] {
                for iters in [1u32, 2] {
                    got.push(crate::digest(&run_mode(
                        policy,
                        &levels,
                        &live_verts,
                        iters,
                    )));
                }
            }
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn targets_outside_live_verts_are_skipped() {
        // A target missing from the slot map must be skipped — no panic,
        // no hook.
        let levels = vec![1, 1, 4, 1, 1, 1, 1, 1];
        let live_verts: Vec<u32> = vec![0, 1, 2]; // rest are NO_SLOT
        let p = run_mode(WritePolicy::PriorityMin, &levels, &live_verts, 2);
        for (v, &pv) in p.iter().enumerate().skip(3) {
            assert_eq!(pv, v as u64, "non-live vertex {v} moved");
        }
    }

    #[test]
    fn stale_generations_are_invisible() {
        // Two iterations share one allocation; iteration 2's selection must
        // not resurrect iteration 1's candidates. Checked through the
        // result: after a full 2-iteration run the parents obey Lemma 3.2
        // (strictly increasing levels), which a stale-candidate
        // resurrection (hooking onto a since-relabeled parent at a now-wrong
        // level) would violate with high probability across seeds.
        for seed in 0..20u64 {
            let n = 40;
            let levels: Vec<u64> = (0..n as u64).map(|v| (v * 7 + seed) % 5).collect();
            let live_verts: Vec<u32> = (0..n as u32).collect();
            let p = run_mode(WritePolicy::ArbitrarySeeded(seed), &levels, &live_verts, 2);
            crate::verify::forest_heights(&p).expect("cycle created by stamped MAXLINK");
        }
    }
}
