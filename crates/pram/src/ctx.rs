//! Per-processor step context: the only way simulated processors touch
//! shared memory.
//!
//! A [`Ctx`] is handed to the step closure for every simulated processor.
//! Reads go straight to the frozen pre-step memory image; writes are
//! buffered (sharded by address granule, see `mem::granule_part`, so the
//! commit phase can run in parallel on disjoint address sets, each shard
//! on whole pages) and committed by the machine when the step ends.
//!
//! Write records carry no precomputed priority: the seeded-arbitrary
//! policies derive the winner from `(seed, addr, value)` at commit time
//! and the processor-priority policies from the record's processor id, so
//! a buffered write is 8 bytes under a value-resolved policy (see
//! `NarrowRec` in this module) and 16 under a processor-priority one.

use crate::mem::{granule_part, narrow_encode, CellsRef, Handle, NARROW_ESC};
use crate::splitmix64;

/// One buffered write (full-width record, processor-priority policies).
#[derive(Clone, Copy, Debug)]
pub(crate) struct WriteRec {
    pub(crate) addr: u32,
    /// The writing processor id (resolution input for the
    /// processor-priority policies; ignored otherwise). Steps are capped
    /// at 2^32 processors, see `Pram::step_charged`.
    pub(crate) aux: u32,
    pub(crate) val: u64,
}

/// One buffered write in narrow-cell encoding: 8 bytes. `val` is the
/// narrow encoding of the written value; a [`NARROW_ESC`] value means the
/// actual 64-bit value is the next unconsumed entry of the shard's `wide`
/// side list (records are committed strictly in push order per shard, so
/// a single cursor recovers the pairing).
#[derive(Clone, Copy, Debug)]
pub(crate) struct NarrowRec {
    pub(crate) addr: u32,
    pub(crate) val: u32,
}

/// One shard's buffered writes.
pub(crate) enum ShardBuf {
    /// Full-width records (the `Priority*` policies, which resolve by
    /// processor id and so must carry it).
    Wide(Vec<WriteRec>),
    /// Narrow records + escape side list (every policy that resolves from
    /// the value, i.e. everything but `Priority*`).
    Narrow {
        recs: Vec<NarrowRec>,
        wide: Vec<u64>,
    },
}

impl ShardBuf {
    pub(crate) fn clear(&mut self) {
        match self {
            ShardBuf::Wide(v) => v.clear(),
            ShardBuf::Narrow { recs, wide } => {
                recs.clear();
                wide.clear();
            }
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            ShardBuf::Wide(v) => v.is_empty(),
            ShardBuf::Narrow { recs, wide } => recs.is_empty() && wide.is_empty(),
        }
    }
}

/// Record layout a machine's steps buffer writes in (fixed per machine:
/// chosen from the policy at construction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RecLayout {
    Wide,
    Narrow,
}

impl RecLayout {
    pub(crate) fn empty_shard(self) -> ShardBuf {
        match self {
            RecLayout::Wide => ShardBuf::Wide(Vec::new()),
            RecLayout::Narrow => ShardBuf::Narrow {
                recs: Vec::new(),
                wide: Vec::new(),
            },
        }
    }
}

/// The write buffers produced by one chunk of a step's processors.
pub(crate) struct CtxOut {
    pub(crate) shards: Vec<ShardBuf>,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    pub(crate) max_ops: u32,
}

/// Execution context of a simulated processor within one synchronous step.
///
/// All memory operations are counted; the per-processor operation count is
/// audited so that "each processor does O(1) work per step" is a measured
/// property, not an assumption (see `Stats::max_ops_per_proc`).
pub struct Ctx<'a> {
    mem: CellsRef<'a>,
    shard_mask: u32,
    shards: Vec<ShardBuf>,
    step_seed: u64,
    proc: u64,
    ops_this_proc: u32,
    max_ops: u32,
    reads: u64,
    writes: u64,
}

impl<'a> Ctx<'a> {
    /// Fresh-buffer constructor (tests; the machine recycles via
    /// [`Ctx::new_in`]).
    #[cfg(test)]
    pub(crate) fn new(
        mem: CellsRef<'a>,
        layout: RecLayout,
        shard_count: u32,
        step_seed: u64,
    ) -> Self {
        Self::new_in(
            mem,
            shard_count,
            step_seed,
            (0..shard_count).map(|_| layout.empty_shard()).collect(),
        )
    }

    /// A context over `mem` reusing
    /// `shards` buffers recycled from an earlier step (must be empty,
    /// `shard_count` of them, in the machine's record layout; their
    /// capacity is the point — steady-state steps allocate nothing).
    pub(crate) fn new_in(
        mem: CellsRef<'a>,
        shard_count: u32,
        step_seed: u64,
        shards: Vec<ShardBuf>,
    ) -> Self {
        debug_assert!(shard_count.is_power_of_two());
        debug_assert_eq!(shards.len(), shard_count as usize);
        debug_assert!(shards.iter().all(ShardBuf::is_empty));
        Ctx {
            mem,
            shard_mask: shard_count - 1,
            shards,
            step_seed,
            proc: 0,
            ops_this_proc: 0,
            max_ops: 0,
            reads: 0,
            writes: 0,
        }
    }

    #[inline]
    pub(crate) fn begin_proc(&mut self, p: u64) {
        self.proc = p;
        self.ops_this_proc = 0;
    }

    #[inline]
    pub(crate) fn end_proc(&mut self) {
        self.max_ops = self.max_ops.max(self.ops_this_proc);
    }

    pub(crate) fn finish(self) -> CtxOut {
        CtxOut {
            shards: self.shards,
            reads: self.reads,
            writes: self.writes,
            max_ops: self.max_ops,
        }
    }

    /// The id of the processor currently executing.
    #[inline]
    pub fn proc(&self) -> u64 {
        self.proc
    }

    /// Read cell `i` of block `h` (sees the pre-step memory image).
    #[inline]
    pub fn read(&mut self, h: Handle, i: usize) -> u64 {
        self.reads += 1;
        self.ops_this_proc += 1;
        self.mem.get(h.addr(i) as usize)
    }

    /// Write `val` into cell `i` of block `h` (committed at end of step;
    /// concurrent writes resolved by the machine's [`crate::WritePolicy`]).
    #[inline]
    pub fn write(&mut self, h: Handle, i: usize, val: u64) {
        self.writes += 1;
        self.ops_this_proc += 1;
        let addr = h.addr(i);
        match &mut self.shards[granule_part(addr, self.shard_mask)] {
            ShardBuf::Wide(recs) => recs.push(WriteRec {
                addr,
                aux: self.proc as u32,
                val,
            }),
            ShardBuf::Narrow { recs, wide } => match narrow_encode(val) {
                Some(x) => recs.push(NarrowRec { addr, val: x }),
                None => {
                    recs.push(NarrowRec {
                        addr,
                        val: NARROW_ESC,
                    });
                    wide.push(val);
                }
            },
        }
    }

    /// Read cell `i` of a generation-stamped block: the stored value if
    /// its stamp is fresh, else `stale`. Charged as the 1–2 real reads it
    /// performs (stamp probe, then value on a hit).
    #[inline]
    pub fn read_stamped(&mut self, s: crate::machine::Stamped, i: usize, stale: u64) -> u64 {
        if self.read(s.stamps, i) == s.gen {
            self.read(s.values, i)
        } else {
            stale
        }
    }

    /// Write `val` into cell `i` of a generation-stamped block: the value
    /// write plus the stamp write (2 charged writes, committed in this
    /// step). Concurrent writers to the cell are resolved per the machine
    /// policy on the value cell; the stamp cell receives the same
    /// generation from every writer, so it is conflict-free in value.
    #[inline]
    pub fn write_stamped(&mut self, s: crate::machine::Stamped, i: usize, val: u64) {
        self.write(s.values, i, val);
        self.write(s.stamps, i, s.gen);
    }

    /// A deterministic per-step, per-processor pseudo-random word.
    ///
    /// `tag` distinguishes multiple draws by the same processor in one step.
    /// The stream depends on (machine seed, step number, processor, tag), so
    /// runs are reproducible while different seeds give independent-looking
    /// randomness. This models the private random bits PRAM processors are
    /// assumed to hold.
    #[inline]
    pub fn rand(&mut self, tag: u64) -> u64 {
        self.ops_this_proc += 1;
        splitmix64(
            self.step_seed
                ^ self.proc.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ tag.wrapping_mul(0xD134_2543_DE82_EF95),
        )
    }

    /// A deterministic Bernoulli draw: true with probability ≈ `p`.
    #[inline]
    pub fn coin(&mut self, tag: u64, p: f64) -> bool {
        let x = self.rand(tag);
        // Map to [0, 1) with 53 bits of precision.
        let u = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Record `k` units of local computation for the O(1)-discipline audit
    /// without touching memory (e.g. comparing two already-read words).
    #[inline]
    pub fn charge_local(&mut self, k: u32) {
        self.ops_this_proc += k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::WideTable;

    #[test]
    fn writes_are_sharded_by_address() {
        // Four shards over three granule cycles: two writes per granule,
        // at its first and last cell.
        let (shards, granule) = (4usize, 1usize << 10);
        let len = 3 * shards * granule;
        let (cells, wide) = (vec![0u32; len], WideTable::new());
        let mem = CellsRef {
            cells: &cells,
            wide: &wide,
        };
        let mut ctx = Ctx::new(mem, RecLayout::Wide, shards as u32, 0);
        ctx.begin_proc(1);
        let h = Handle {
            base: 0,
            len: len as u32,
        };
        for g in 0..len / granule {
            ctx.write(h, g * granule, 0);
            ctx.write(h, (g + 1) * granule - 1, 0);
        }
        ctx.end_proc();
        let out = ctx.finish();
        assert_eq!(out.writes, 2 * (len / granule) as u64);
        for (s, shard) in out.shards.iter().enumerate() {
            let ShardBuf::Wide(recs) = shard else {
                panic!("expected wide layout")
            };
            // Both cells of a granule land together, and granule g goes to
            // shard g mod 4: every shard gets one granule per cycle.
            let granules: Vec<usize> = recs.iter().map(|r| r.addr as usize / granule).collect();
            let want: Vec<usize> = (0..3).flat_map(|cycle| [cycle * shards + s; 2]).collect();
            assert_eq!(granules, want, "shard {s}");
            assert!(recs.iter().all(|r| r.aux == 1));
        }
        assert_eq!(out.max_ops, 2 * (len / granule) as u32);
    }

    #[test]
    fn narrow_layout_escapes_oversized_values() {
        let (cells, wide) = (vec![0u32; 8], WideTable::new());
        let mem = CellsRef {
            cells: &cells,
            wide: &wide,
        };
        let mut ctx = Ctx::new(mem, RecLayout::Narrow, 1, 0);
        ctx.begin_proc(0);
        let h = Handle { base: 0, len: 8 };
        ctx.write(h, 0, 5);
        ctx.write(h, 1, crate::NULL);
        ctx.write(h, 2, 1 << 40);
        ctx.end_proc();
        let out = ctx.finish();
        let ShardBuf::Narrow { recs, wide } = &out.shards[0] else {
            panic!("expected narrow layout")
        };
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].val, 5);
        assert_eq!(recs[1].val, u32::MAX);
        assert_eq!(recs[2].val, NARROW_ESC);
        assert_eq!(wide.as_slice(), &[1u64 << 40]);
    }

    #[test]
    fn rand_depends_on_proc_and_tag() {
        let (cells, wide) = (vec![0u32; 1], WideTable::new());
        let mem = CellsRef {
            cells: &cells,
            wide: &wide,
        };
        let mut ctx = Ctx::new(mem, RecLayout::Narrow, 1, 7);
        ctx.begin_proc(0);
        let a = ctx.rand(0);
        let b = ctx.rand(1);
        ctx.begin_proc(1);
        let c = ctx.rand(0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Same (seed, proc, tag) => same value.
        ctx.begin_proc(0);
        assert_eq!(a, ctx.rand(0));
    }

    #[test]
    fn coin_matches_probability_roughly() {
        let (cells, wide) = (vec![0u32; 1], WideTable::new());
        let mem = CellsRef {
            cells: &cells,
            wide: &wide,
        };
        let mut ctx = Ctx::new(mem, RecLayout::Narrow, 1, 99);
        let mut hits = 0;
        let trials = 20_000;
        for p in 0..trials {
            ctx.begin_proc(p);
            if ctx.coin(0, 0.25) {
                hits += 1;
            }
        }
        let frac = hits as f64 / trials as f64;
        assert!((0.22..0.28).contains(&frac), "fraction {frac}");
    }
}
