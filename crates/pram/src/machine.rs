//! The PRAM machine: synchronous step execution and commit.

use std::sync::{Arc, Mutex};

use rayon::prelude::*;

use crate::ctx::{Ctx, CtxOut, RecLayout, ShardBuf};
use crate::mem::{narrow_encode, Arena, Handle, MemView, WideTable};
use crate::mem::{NARROW_ESC, NARROW_NULL, NULL};
use crate::resolve::{hashed_prio, CombineOp, Resolution, WritePolicy};
use crate::splitmix64;
use crate::stats::Stats;
use crate::PramError;

/// Base processor count below which a step always runs on the calling
/// thread. The actual cutover scales with the pool size (see
/// [`par_threshold`]). Purely a host-side performance knob — simulated
/// semantics are identical.
const PAR_THRESHOLD_BASE: usize = 4096;

/// Processor count above which a step is split across the rayon pool.
///
/// With one pool thread the parallel path is pure overhead (chunk
/// bookkeeping without concurrency), so it is disabled outright; with more
/// threads the cutover grows with the pool so that each worker gets enough
/// processors per chunk to amortize the dispatch.
fn par_threshold(threads: usize) -> usize {
    if threads <= 1 {
        usize::MAX
    } else {
        PAR_THRESHOLD_BASE.max(1024 * threads)
    }
}

/// A simulated CRCW PRAM.
///
/// See the crate docs for the model. Host code (the "controller") drives the
/// machine by allocating memory, running synchronous [`Pram::step`]s, and
/// inspecting memory between steps; only steps are charged simulated time.
pub struct Pram {
    mem: Arena,
    policy: WritePolicy,
    resolution: Resolution,
    layout: RecLayout,
    stats: Stats,
    step_id: u32,
    seed: u64,
    shard_count: u32,
    par_threshold: usize,
    /// Recycled per-`Ctx` shard buffer sets (emptied, capacity kept), so
    /// steady-state steps allocate no write buffers at all. A `Mutex`
    /// because pool workers draw from it inside `run_procs`.
    spare_bufs: Mutex<Vec<Vec<ShardBuf>>>,
    /// Optional observability sink: arena occupancy gauges and
    /// [`Pram::reset_for_run`] events are recorded here when attached.
    obs: Option<Arc<logdiam_obs::Registry>>,
}

impl Pram {
    /// Create a machine with the given write-resolution policy.
    ///
    /// Cells are 4 bytes; any `u64` still round-trips through the escape
    /// table (see [`crate::mem`]), so the stored width never shows in a
    /// program's results.
    pub fn new(policy: WritePolicy) -> Self {
        let threads = rayon::current_num_threads();
        // Commit shards partition addresses by page granule
        // (`mem::granule_part`), so each shard's loop stays on its own
        // pages even on one thread, and across threads the shards commit
        // in parallel. Scale them with the pool (a few per thread so the
        // commit and the processor chunks of a large step stay balanced),
        // bounded to keep per-Ctx overhead small.
        let shard_count = (threads.next_power_of_two() as u32 * 4).clamp(8, 256);
        let seed = match policy {
            WritePolicy::ArbitrarySeeded(s) | WritePolicy::CrewChecked(s) => s,
            _ => 0x5EED_0BAD_CAFE_F00D,
        };
        let layout = if policy.needs_prio_sidecar() {
            RecLayout::Wide
        } else {
            RecLayout::Narrow
        };
        Pram {
            mem: Arena::new(policy.needs_prio_sidecar()),
            policy,
            resolution: policy.resolution(),
            layout,
            stats: Stats {
                host_threads: threads as u64,
                ..Stats::default()
            },
            step_id: 0,
            seed,
            shard_count,
            par_threshold: par_threshold(threads),
            spare_bufs: Mutex::new(Vec::new()),
            obs: None,
        }
    }

    /// The machine's write-resolution policy.
    pub fn policy(&self) -> WritePolicy {
        self.policy
    }

    /// Resource accounting so far (space fields refreshed on read).
    pub fn stats(&self) -> Stats {
        let mut s = self.stats;
        s.live_words = self.mem.live_words() as u64;
        s.peak_words = self.mem.peak_words() as u64;
        s
    }

    /// Actual heap bytes behind the arena's per-word arrays (cells,
    /// stamps, and the priority sidecar if the policy needs one) — the
    /// measured bytes-per-word footprint: ≤ 8·words for non-priority
    /// policies, ≤ 16·words with the priority sidecar.
    pub fn arena_backing_bytes(&self) -> usize {
        self.mem.backing_bytes()
    }

    /// Attach an observability registry: records the `sim_*` stats gauges
    /// now and on every [`Pram::reset_for_run`] (which also emits a
    /// `run_reset` event). See `docs/obs-schema.md`.
    pub fn set_obs_registry(&mut self, registry: Arc<logdiam_obs::Registry>) {
        self.stats().record_into(&registry, "sim");
        self.obs = Some(registry);
    }

    /// Reset time/work/traffic counters (space high-water and the recorded
    /// host thread count are kept).
    pub fn reset_stats(&mut self) {
        self.stats = Stats {
            host_threads: self.stats.host_threads,
            ..Stats::default()
        };
    }

    /// Reset the machine for a fresh driver run while keeping every
    /// backing buffer: cell/stamp/priority capacity, size-class free-list
    /// vectors, and the recycled per-step write buffers all survive, so a
    /// bench rep re-grows into already-mapped memory instead of paying
    /// page faults again.
    ///
    /// After the reset the machine is observationally identical to a
    /// newly constructed one — same allocation addresses, same step ids,
    /// and therefore (for the seeded policies) bit-identical write
    /// resolution. With an attached registry ([`Pram::set_obs_registry`])
    /// this emits a `run_reset` event carrying the finished run's
    /// occupancy and refreshes the `sim_*` gauges.
    pub fn reset_for_run(&mut self) {
        let live = self.mem.live_words() as u64;
        let peak = self.mem.peak_words() as u64;
        let backing = self.mem.backing_bytes() as u64;
        self.mem.reset_keep_capacity();
        self.step_id = 0;
        self.reset_stats();
        if let Some(reg) = &self.obs {
            reg.event(
                logdiam_obs::Event::new("run_reset")
                    .with("live_words", live)
                    .with("peak_words", peak)
                    .with("backing_bytes", backing),
            );
            self.stats().record_into(reg, "sim");
        }
    }

    /// Record a pure model charge of `steps` time units on `nprocs`
    /// processors without executing anything.
    ///
    /// Used by primitives that run extra bookkeeping steps at charge 0 and
    /// then account the cost the paper proves for them (e.g. approximate
    /// compaction's O(1)-time `n log n`-processor mode, Lemma D.2). Unlike
    /// executed steps, charges have no processor-count cap.
    pub fn charge(&mut self, nprocs: usize, steps: u64) {
        self.stats.record_step(nprocs as u64, steps);
    }

    // ----------------------------------------------------------------- memory

    /// Allocate a block of `len` words filled with `fill`.
    pub fn alloc_filled(&mut self, len: usize, fill: u64) -> Handle {
        self.mem.alloc(len, fill)
    }

    /// Allocate a zero-filled block of `len` words.
    pub fn alloc(&mut self, len: usize) -> Handle {
        self.mem.alloc(len, 0)
    }

    /// Fallible allocation: like [`Pram::alloc`] but surfaces arena
    /// exhaustion (the 2^32-word address-space cap) as a typed error
    /// instead of panicking.
    pub fn try_alloc(&mut self, len: usize) -> Result<Handle, PramError> {
        self.mem.try_alloc(len, 0)
    }

    /// Return a block to the arena (it may be reused by later allocations).
    pub fn free(&mut self, h: Handle) {
        self.mem.dealloc(h);
    }

    /// Host read of one cell (not charged as simulated time).
    #[inline]
    pub fn get(&self, h: Handle, i: usize) -> u64 {
        self.mem.load(h.addr(i) as usize)
    }

    /// Host write of one cell (setup only; not charged).
    #[inline]
    pub fn set(&mut self, h: Handle, i: usize, v: u64) {
        self.mem.store(h.addr(i) as usize, v);
    }

    /// Host view of a whole block (narrow cells decode transparently).
    pub fn view(&self, h: Handle) -> MemView<'_> {
        MemView::new(self.mem.cells_ref(), h.base as usize, h.len as usize)
    }

    /// Copy a block out (host side).
    pub fn read_vec(&self, h: Handle) -> Vec<u64> {
        self.view(h).to_vec()
    }

    /// Host bulk fill (setup only; not charged). For a charged parallel
    /// fill use [`Pram::fill_step`].
    pub fn host_fill(&mut self, h: Handle, v: u64) {
        self.mem.fill_words(h.base as usize, h.len as usize, v);
    }

    /// Host bulk fill of `len` cells starting at cell `start` (setup only;
    /// not charged). The block-heap allocators use this instead of
    /// per-cell [`Pram::set`] loops so clearing a table costs a memset,
    /// not a call per word.
    pub fn host_fill_range(&mut self, h: Handle, start: usize, len: usize, v: u64) {
        assert!(start + len <= h.len(), "host_fill_range out of bounds");
        self.mem.fill_words(h.addr(start) as usize, len, v);
    }

    /// Allocate a generation-stamped block of `len` cells, logically
    /// filled with a caller-chosen stale sentinel (see [`Stamped`]).
    ///
    /// The stamp cells start at 0 and the generation at 1, so nothing is
    /// ever spuriously fresh. Both blocks are plain arena memory — two
    /// words per logical cell.
    pub fn alloc_stamped(&mut self, len: usize) -> Stamped {
        Stamped {
            values: self.mem.alloc(len, 0),
            stamps: self.mem.alloc(len, 0),
            gen: 1,
        }
    }

    /// Host-side *stamped* bulk fill: logically reset every cell of `s` to
    /// its stale sentinel by advancing the generation — O(1) host work and
    /// zero simulated time, where [`Pram::host_fill`]/[`Pram::host_fill_range`]
    /// memset O(len) words. This is what lets per-phase flag arrays sized
    /// at `n` be "cleared" each phase without any O(n) pass, host or
    /// simulated (the MAXLINK candidate stamps of `logdiam-cc` follow the
    /// same discipline).
    pub fn host_stamped_fill(&mut self, s: &mut Stamped) {
        s.gen = s.gen.checked_add(1).expect("stamp generation overflow");
    }

    /// Host read of one stamped cell: the written value if fresh this
    /// generation, else `stale` (not charged, like [`Pram::get`]).
    #[inline]
    pub fn get_stamped(&self, s: Stamped, i: usize, stale: u64) -> u64 {
        if self.get(s.stamps, i) == s.gen {
            self.get(s.values, i)
        } else {
            stale
        }
    }

    /// Return a stamped block's value and stamp blocks to the arena.
    pub fn free_stamped(&mut self, s: Stamped) {
        self.mem.dealloc(s.values);
        self.mem.dealloc(s.stamps);
    }

    /// Host copy of `src` into the front of `dst` (`src.len() ≤ dst.len()`).
    /// Setup/bookkeeping only — callers that model a PRAM copy must charge a
    /// step themselves.
    pub fn host_copy(&mut self, src: Handle, dst: Handle) {
        assert!(src.len() <= dst.len(), "host_copy: dst too small");
        self.mem
            .copy_words(src.base as usize, dst.base as usize, src.len as usize);
    }

    /// Charged parallel fill: one step with `h.len()` processors.
    pub fn fill_step(&mut self, h: Handle, v: u64) {
        self.step(h.len(), move |p, ctx| {
            ctx.write(h, p as usize, v);
        });
    }

    // ------------------------------------------------------------------ steps

    /// Execute one synchronous parallel step with `nprocs` processors.
    ///
    /// Each processor `p ∈ [0, nprocs)` runs `f(p, ctx)`; reads see the
    /// pre-step memory, writes are resolved per the machine policy and
    /// committed at the end. Charged as 1 unit of simulated time.
    pub fn step<F>(&mut self, nprocs: usize, f: F)
    where
        F: Fn(u64, &mut Ctx) + Send + Sync,
    {
        self.step_charged(nprocs, 1, f)
    }

    /// Execute one synchronous parallel step with one processor per element
    /// of a *compacted index slice* — the entry point live-work schedulers
    /// use so that per-step cost (both charged and host wall-clock) scales
    /// with the surviving work items, not with the full arrays the items
    /// index into, while staying on the same (possibly chunked-parallel)
    /// dispatch path as [`Pram::step`].
    ///
    /// Processor `p ∈ [0, items.len())` runs `f(p, &items[p], ctx)`. Note
    /// that `p` — the position in the compacted slice, not the item value —
    /// is the processor id seen by write resolution and [`Ctx::rand`]; a
    /// deterministic host-built slice therefore yields runs that are
    /// reproducible and thread-count invariant exactly like plain steps.
    ///
    /// # Example
    ///
    /// ```
    /// use pram_sim::{Pram, WritePolicy};
    ///
    /// let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
    /// let out = pram.alloc(10);
    /// // One processor per *live* item — the step charges 3 processors,
    /// // not the 10 cells the items index into.
    /// let live: Vec<usize> = vec![2, 5, 7];
    /// pram.step_over(&live, |_p, &i, ctx| ctx.write(out, i, 1));
    /// assert_eq!(pram.read_vec(out).iter().sum::<u64>(), 3);
    /// assert_eq!(pram.stats().max_procs, 3);
    /// ```
    pub fn step_over<T, F>(&mut self, items: &[T], f: F)
    where
        T: Sync,
        F: Fn(u64, &T, &mut Ctx) + Send + Sync,
    {
        self.step(items.len(), move |p, ctx| f(p, &items[p as usize], ctx));
    }

    /// Like [`Pram::step`] but charged `charge` units of simulated time.
    ///
    /// Used where the paper proves an O(1)- or O(k)-time bound that relies
    /// on processor slack the simulator does not spend host time emulating
    /// (e.g. Lemma D.2's O(1)-time approximate compaction; see
    /// ARCHITECTURE.md, "The charge / live-work accounting model"). The
    /// per-processor op audit still reports the real op count.
    ///
    /// An *executed* step is capped at 2^32 processors (write records
    /// carry the processor id as `u32` for priority resolution; executing
    /// more closures than that is infeasible anyway). Model larger
    /// processor counts with [`Pram::charge`].
    pub fn step_charged<F>(&mut self, nprocs: usize, charge: u64, f: F)
    where
        F: Fn(u64, &mut Ctx) + Send + Sync,
    {
        self.stats.record_step(nprocs as u64, charge);
        if nprocs == 0 {
            return;
        }
        self.step_id += 1;
        let outs = self.run_procs(nprocs, &f);
        self.commit(&outs);
        self.retire(outs);
    }

    /// Execute one synchronous COMBINING CRCW step: concurrent writes to a
    /// cell leave `op` applied over *all written values* in the cell.
    pub fn step_combine<F>(&mut self, nprocs: usize, op: CombineOp, f: F)
    where
        F: Fn(u64, &mut Ctx) + Send + Sync,
    {
        self.stats.record_step(nprocs as u64, 1);
        if nprocs == 0 {
            return;
        }
        self.step_id += 1;
        let outs = self.run_procs(nprocs, &f);
        self.commit_combine(&outs, op);
        self.retire(outs);
    }

    fn run_procs<F>(&mut self, nprocs: usize, f: &F) -> Vec<CtxOut>
    where
        F: Fn(u64, &mut Ctx) + Send + Sync,
    {
        assert!(
            nprocs <= u32::MAX as usize,
            "executed steps are capped at 2^32 processors (see Pram::step_charged)"
        );
        let mem_ref = self.mem.cells_ref();
        let layout = self.layout;
        let shard_count = self.shard_count;
        let step_seed = splitmix64(self.seed ^ (self.step_id as u64) << 17);
        let spare_bufs = &self.spare_bufs;
        // Per-chunk contexts draw their shard buffers from the recycle
        // pool (filled back by `retire`) so capacity carries across steps.
        let fresh_ctx = || {
            let bufs = spare_bufs
                .lock()
                .unwrap()
                .pop()
                .unwrap_or_else(|| (0..shard_count).map(|_| layout.empty_shard()).collect());
            Ctx::new_in(mem_ref, shard_count, step_seed, bufs)
        };

        if nprocs < self.par_threshold {
            vec![run_chunk(fresh_ctx(), 0, nprocs as u64, f)]
        } else {
            // One contiguous range of processors per shard-count chunk,
            // each run by a plain loop on one context, and collected in
            // range order so every shard sees its records in processor
            // order.
            let (n, chunks) = (nprocs as u64, shard_count as u64);
            (0..chunks)
                .into_par_iter()
                .with_min_len(1)
                .map(|c| run_chunk(fresh_ctx(), n * c / chunks, n * (c + 1) / chunks, f))
                .collect()
        }
    }

    /// Post-commit bookkeeping, one pass over the step's outputs: merge the
    /// per-chunk counters into [`Stats`] and recycle the (emptied) shard
    /// buffers for the next step.
    fn retire(&mut self, outs: Vec<CtxOut>) {
        let mut spare = self.spare_bufs.lock().unwrap();
        for out in outs {
            self.stats.reads += out.reads;
            self.stats.writes += out.writes;
            self.stats.max_ops_per_proc = self.stats.max_ops_per_proc.max(out.max_ops as u64);
            let mut bufs = out.shards;
            for shard in &mut bufs {
                shard.clear();
            }
            spare.push(bufs);
        }
    }

    /// Run `f` over every commit shard and sum its results. A step that
    /// wrote at least `par_threshold` records sends the shards to the pool
    /// one apiece (`with_min_len(1)`: the shim's default 512-item floor
    /// would keep a handful of shards on the caller); smaller steps commit
    /// on the caller. Shards partition addresses, and each applies its
    /// records in processor order either way, so the committed image is
    /// the same at any pool size.
    fn over_shards<F>(&self, outs: &[CtxOut], f: F) -> u64
    where
        F: Fn(usize) -> u64 + Send + Sync + Clone,
    {
        let shards = 0..self.shard_count as usize;
        let writes: u64 = outs.iter().map(|o| o.writes).sum();
        if writes >= self.par_threshold as u64 {
            shards.into_par_iter().with_min_len(1).map(f).sum()
        } else {
            shards.map(f).sum()
        }
    }

    fn commit(&mut self, outs: &[CtxOut]) {
        let step = self.step_id;
        let res = self.resolution;
        let count_conflicts = self.policy.counts_conflicts();
        let (cells, stamp, prio) = self.mem.commit_ptrs();
        let mem = ShardedMem {
            cells,
            stamp,
            prio,
            wide: &self.mem.wide,
        };
        let conflicts = self.over_shards(outs, |s| {
            let mut conflicts = 0;
            // SAFETY (applies to every commit_one below): writes are
            // sharded by `granule_part(addr, shards - 1)`, so each address
            // is touched by exactly one shard iteration; the parallel
            // iterations access disjoint cells.
            for out in outs {
                match &out.shards[s] {
                    ShardBuf::Wide(recs) => {
                        for rec in recs {
                            if unsafe { mem.commit_one(step, rec.addr, rec.aux, rec.val, res) } {
                                conflicts += 1;
                            }
                        }
                    }
                    ShardBuf::Narrow { recs, wide } => {
                        let mut cur = 0usize;
                        for rec in recs {
                            let val = narrow_rec_val(rec.val, wide, &mut cur);
                            if unsafe { mem.commit_one(step, rec.addr, 0, val, res) } {
                                conflicts += 1;
                            }
                        }
                    }
                }
            }
            conflicts
        });
        if count_conflicts {
            self.stats.write_conflicts += conflicts;
        }
    }

    fn commit_combine(&mut self, outs: &[CtxOut], op: CombineOp) {
        let step = self.step_id;
        let (cells, stamp, prio) = self.mem.commit_ptrs();
        let mem = ShardedMem {
            cells,
            stamp,
            prio,
            wide: &self.mem.wide,
        };
        self.over_shards(outs, |s| {
            for out in outs {
                // SAFETY: as in `commit` — shards partition addresses.
                match &out.shards[s] {
                    ShardBuf::Wide(recs) => {
                        for rec in recs {
                            unsafe { mem.combine_one(step, rec.addr, rec.val, op) };
                        }
                    }
                    ShardBuf::Narrow { recs, wide } => {
                        let mut cur = 0usize;
                        for rec in recs {
                            let val = narrow_rec_val(rec.val, wide, &mut cur);
                            unsafe { mem.combine_one(step, rec.addr, val, op) };
                        }
                    }
                }
            }
            0
        });
    }
}

/// Run processors `lo..hi` of a step on `ctx`, in order, and hand back its
/// buffers and counters. A plain loop keeps the context in place; a
/// `fold` would move it through every processor.
fn run_chunk<F>(mut ctx: Ctx, lo: u64, hi: u64, f: &F) -> CtxOut
where
    F: Fn(u64, &mut Ctx),
{
    for p in lo..hi {
        ctx.begin_proc(p);
        f(p, &mut ctx);
        ctx.end_proc();
    }
    ctx.finish()
}

/// Decode one narrow record's value, consuming the shard's escape list in
/// push order (see `NarrowRec`).
#[inline]
fn narrow_rec_val(enc: u32, wide: &[u64], cur: &mut usize) -> u64 {
    match enc {
        NARROW_ESC => {
            let v = wide[*cur];
            *cur += 1;
            v
        }
        NARROW_NULL => NULL,
        x => x as u64,
    }
}

/// A generation-stamped block: `len` logical cells backed by a value
/// block and a parallel stamp block plus a current generation.
///
/// A cell is *fresh* when its stamp equals the current generation; stale
/// cells read as a caller-chosen sentinel. Advancing the generation
/// ([`Pram::host_stamped_fill`]) is therefore a logical O(1) re-fill of
/// the whole block — the replacement for per-phase O(len) memsets on
/// arrays indexed by full-range vertex ids whose live subset is much
/// smaller. Writes pay 2 simulated writes (value + stamp, same step) and
/// reads up to 2 simulated reads; concurrent writers are resolved per
/// cell by the machine policy exactly as for plain cells (every writer
/// stores the same stamp, so the stamp cell is conflict-free in value).
///
/// The struct is `Copy` — step closures capture the generation *at step
/// construction*, which is the intended snapshot semantics.
#[derive(Clone, Copy, Debug)]
pub struct Stamped {
    /// Value cells.
    pub values: Handle,
    /// Stamp cells (same length as `values`).
    pub stamps: Handle,
    /// Current generation (stamps equal to this are fresh); counts from 1
    /// so zeroed stamp blocks start fully stale.
    pub gen: u64,
}

/// Raw-pointer view of the arena used by the sharded parallel commit.
///
/// Methods take `&self` so that commit closures capture the whole struct
/// (keeping the `Sync` reasoning in one place) rather than the raw-pointer
/// fields individually.
struct ShardedMem<'a> {
    cells: *mut u32,
    stamp: *mut u32,
    /// Null unless the policy needs the processor-priority sidecar.
    prio: *mut u64,
    wide: &'a WideTable,
}

impl ShardedMem<'_> {
    /// Decode the committed value at `a`.
    ///
    /// # Safety
    /// `a` in bounds; no concurrent access to the cell (see commit).
    #[inline]
    unsafe fn load(&self, a: usize) -> u64 {
        match unsafe { *self.cells.add(a) } {
            NARROW_NULL => NULL,
            NARROW_ESC => self.wide.get(a as u32),
            x => x as u64,
        }
    }

    /// Store `v` at `a` (narrow-encoded, escaping if it does not fit).
    ///
    /// # Safety
    /// As for [`ShardedMem::load`].
    #[inline]
    unsafe fn store(&self, a: usize, v: u64) {
        match narrow_encode(v) {
            Some(x) => unsafe { *self.cells.add(a) = x },
            None => {
                self.wide.set(a as u32, v);
                unsafe { *self.cells.add(a) = NARROW_ESC };
            }
        }
    }

    /// Apply one buffered write under the machine's resolution rule.
    /// Returns true when the cell had already been written in this step
    /// (a CREW conflict).
    ///
    /// # Safety
    /// Caller must guarantee `addr` is in bounds and no other thread is
    /// concurrently accessing that cell (the sharded commit partitions
    /// addresses across threads).
    unsafe fn commit_one(
        &self,
        step: u32,
        addr: u32,
        proc: u32,
        val: u64,
        res: Resolution,
    ) -> bool {
        let a = addr as usize;
        unsafe {
            if *self.stamp.add(a) != step {
                *self.stamp.add(a) = step;
                if matches!(res, Resolution::ProcMin | Resolution::ProcMax) {
                    *self.prio.add(a) = proc as u64;
                }
                self.store(a, val);
                false
            } else {
                match res {
                    Resolution::Racy => self.store(a, val),
                    Resolution::Hashed(seed) => {
                        let cur = self.load(a);
                        let (pn, pc) = (hashed_prio(seed, addr, val), hashed_prio(seed, addr, cur));
                        if pn > pc || (pn == pc && val > cur) {
                            self.store(a, val);
                        }
                    }
                    Resolution::ProcMin => {
                        let incumbent = *self.prio.add(a);
                        let p = proc as u64;
                        if p < incumbent || (p == incumbent && val > self.load(a)) {
                            *self.prio.add(a) = p;
                            self.store(a, val);
                        }
                    }
                    Resolution::ProcMax => {
                        let incumbent = *self.prio.add(a);
                        let p = proc as u64;
                        if p > incumbent || (p == incumbent && val > self.load(a)) {
                            *self.prio.add(a) = p;
                            self.store(a, val);
                        }
                    }
                }
                true
            }
        }
    }

    /// Apply one buffered write under a combining operator.
    ///
    /// # Safety
    /// As for [`ShardedMem::commit_one`].
    unsafe fn combine_one(&self, step: u32, addr: u32, val: u64, op: CombineOp) {
        let a = addr as usize;
        unsafe {
            if *self.stamp.add(a) != step {
                *self.stamp.add(a) = step;
                self.store(a, val);
            } else {
                let cur = self.load(a);
                self.store(a, op.apply(cur, val));
            }
        }
    }
}

// SAFETY: the commit loops partition addresses by shard (`granule_part`), so
// no two threads access the same cell; the wide table is internally
// mutex-striped.
unsafe impl Sync for ShardedMem<'_> {}
unsafe impl Send for ShardedMem<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NULL;

    #[test]
    fn reads_see_pre_step_memory() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let xs = pram.alloc_filled(4, 5);
        // Every processor increments its left neighbour's cell; since reads
        // see the old image, the result is old[left]+1 everywhere, not a
        // cascade.
        pram.step(4, |p, ctx| {
            let i = p as usize;
            let left = (i + 3) % 4;
            let v = ctx.read(xs, left);
            ctx.write(xs, i, v + 1);
        });
        assert_eq!(pram.read_vec(xs), vec![6, 6, 6, 6]);
    }

    #[test]
    fn seeded_arbitrary_is_reproducible() {
        let run = |seed| {
            let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
            let xs = pram.alloc_filled(1, NULL);
            pram.step(10_000, |p, ctx| {
                ctx.write(xs, 0, p);
            });
            pram.get(xs, 0)
        };
        assert_eq!(run(7), run(7));
        // Different seeds should (almost surely) pick different winners.
        let distinct = (0..16).map(run).collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn priority_policies_pick_extremes() {
        for (policy, expect) in [
            (WritePolicy::PriorityMin, 0u64),
            (WritePolicy::PriorityMax, 9_999),
        ] {
            let mut pram = Pram::new(policy);
            let xs = pram.alloc(1);
            pram.step(10_000, |p, ctx| {
                ctx.write(xs, 0, p);
            });
            assert_eq!(pram.get(xs, 0), expect);
        }
    }

    #[test]
    fn racy_policy_commits_some_writer() {
        let mut pram = Pram::new(WritePolicy::Racy);
        let xs = pram.alloc_filled(1, NULL);
        pram.step(50_000, |p, ctx| {
            ctx.write(xs, 0, p);
        });
        assert!(pram.get(xs, 0) < 50_000);
    }

    #[test]
    fn combine_sum_counts_writers() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(3));
        let c = pram.alloc_filled(1, 99);
        pram.step_combine(12_345, CombineOp::Sum, |_, ctx| {
            ctx.write(c, 0, 1);
        });
        // Previous content (99) does not participate.
        assert_eq!(pram.get(c, 0), 12_345);
    }

    #[test]
    fn combine_min_max_or() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(3));
        let c = pram.alloc_filled(3, 0);
        pram.step_combine(100, CombineOp::Min, |p, ctx| {
            ctx.write(c, 0, 1000 - p);
        });
        pram.step_combine(100, CombineOp::Max, |p, ctx| {
            ctx.write(c, 1, p);
        });
        pram.step_combine(64, CombineOp::Or, |p, ctx| {
            ctx.write(c, 2, 1 << (p % 8));
        });
        assert_eq!(pram.get(c, 0), 901);
        assert_eq!(pram.get(c, 1), 99);
        assert_eq!(pram.get(c, 2), 0xFF);
    }

    #[test]
    fn stats_account_time_work_and_space() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let xs = pram.alloc(1000);
        pram.step(1000, |p, ctx| {
            ctx.write(xs, p as usize, p);
        });
        pram.step_charged(10, 3, |p, ctx| {
            let _ = ctx.read(xs, p as usize);
        });
        let s = pram.stats();
        assert_eq!(s.steps, 4);
        assert_eq!(s.step_calls, 2);
        assert_eq!(s.work, 1000 + 30);
        assert_eq!(s.max_procs, 1000);
        assert_eq!(s.writes, 1000);
        assert_eq!(s.reads, 10);
        assert_eq!(s.peak_words, 1024); // size-class rounding
        pram.free(xs);
        assert_eq!(pram.stats().live_words, 0);
        assert_eq!(pram.stats().peak_words, 1024);
    }

    #[test]
    fn fill_step_is_charged() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let xs = pram.alloc_filled(8, 0);
        pram.fill_step(xs, 42);
        assert_eq!(pram.read_vec(xs), vec![42; 8]);
        assert_eq!(pram.stats().steps, 1);
    }

    #[test]
    fn stamped_fill_is_a_logical_refill() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(2));
        let mut s = pram.alloc_stamped(8);
        // Fresh allocation: everything stale.
        for i in 0..8 {
            assert_eq!(pram.get_stamped(s, i, NULL), NULL);
        }
        pram.step(4, move |p, ctx| {
            ctx.write_stamped(s, p as usize, 100 + p);
        });
        assert_eq!(pram.get_stamped(s, 2, NULL), 102);
        assert_eq!(pram.get_stamped(s, 7, NULL), NULL);
        // Reads through a step context honour staleness too.
        let probe = pram.alloc(8);
        pram.step(8, move |p, ctx| {
            let v = ctx.read_stamped(s, p as usize, 7777);
            ctx.write(probe, p as usize, v);
        });
        assert_eq!(pram.get(probe, 1), 101);
        assert_eq!(pram.get(probe, 5), 7777);
        // O(1) refill: old values become invisible without any pass.
        pram.host_stamped_fill(&mut s);
        for i in 0..8 {
            assert_eq!(pram.get_stamped(s, i, NULL), NULL);
        }
        // Rewrite after the refill is visible again.
        pram.step(1, move |_, ctx| ctx.write_stamped(s, 3, 9));
        assert_eq!(pram.get_stamped(s, 3, NULL), 9);
        pram.free_stamped(s);
        assert_eq!(pram.stats().live_words, 8);
    }

    #[test]
    fn large_parallel_step_matches_sequential_semantics() {
        // Same program under the parallel path (big nprocs) and a
        // semantically equivalent host-side loop.
        let n = 100_000usize;
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(11));
        let xs = pram.alloc(n);
        let ys = pram.alloc(n);
        pram.step(n, |p, ctx| {
            ctx.write(xs, p as usize, p * 2);
        });
        pram.step(n, |p, ctx| {
            let v = ctx.read(xs, p as usize);
            ctx.write(ys, (p as usize + 1) % n, v + 1);
        });
        let ys = pram.read_vec(ys);
        for p in 0..n {
            assert_eq!(ys[(p + 1) % n], (p as u64) * 2 + 1);
        }
    }

    #[test]
    fn step_over_runs_one_proc_per_item_and_charges_item_count() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(3));
        let xs = pram.alloc_filled(16, 0);
        // A compacted index set touching a sparse subset of cells.
        let idx: Vec<u32> = vec![1, 5, 11];
        pram.step_over(&idx, |p, &i, ctx| {
            ctx.write(xs, i as usize, 100 + p);
        });
        let v = pram.read_vec(xs);
        assert_eq!(v[1], 100);
        assert_eq!(v[5], 101);
        assert_eq!(v[11], 102);
        assert_eq!(v[0], 0);
        let s = pram.stats();
        // Charged at the live-item count, not the full array length.
        assert_eq!(s.steps, 1);
        assert_eq!(s.work, 3);
        assert_eq!(s.max_procs, 3);
    }

    #[test]
    fn step_over_empty_slice_is_free() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(3));
        let empty: Vec<u32> = Vec::new();
        pram.step_over(&empty, |_, &_i, _ctx| unreachable!());
        assert_eq!(pram.stats().work, 0);
    }

    #[test]
    fn step_over_matches_step_semantics_on_large_slices() {
        // Above the parallel threshold the chunked pool path must produce
        // the same committed image as an equivalent plain step.
        let n = 50_000usize;
        let run = |over: bool| {
            let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(9));
            let xs = pram.alloc(n);
            if over {
                let idx: Vec<u32> = (0..n as u32).collect();
                pram.step_over(&idx, |p, &i, ctx| {
                    ctx.write(xs, i as usize, p * 3);
                });
            } else {
                pram.step(n, |p, ctx| {
                    ctx.write(xs, p as usize, p * 3);
                });
            }
            pram.read_vec(xs)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn max_ops_audit_reports_heaviest_processor() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let xs = pram.alloc(64);
        pram.step(8, |p, ctx| {
            for i in 0..=p as usize {
                let _ = ctx.read(xs, i);
            }
        });
        assert_eq!(pram.stats().max_ops_per_proc, 8);
    }

    #[test]
    fn crew_checker_counts_conflicts() {
        let mut pram = Pram::new(WritePolicy::CrewChecked(5));
        let xs = pram.alloc(4);
        // Exclusive writes: no conflicts.
        pram.step(4, |p, ctx| ctx.write(xs, p as usize, p));
        assert_eq!(pram.stats().write_conflicts, 0);
        // 10 writers to one cell: 9 conflicting writes.
        pram.step(10, |_, ctx| ctx.write(xs, 0, 7));
        assert_eq!(pram.stats().write_conflicts, 9);
        // Output is still a legal ARBITRARY result.
        assert_eq!(pram.get(xs, 0), 7);
    }

    #[test]
    fn crew_checked_matches_seeded_arbitrary_outcome() {
        let run = |policy| {
            let mut pram = Pram::new(policy);
            let xs = pram.alloc_filled(8, 0);
            pram.step(1000, |p, ctx| ctx.write(xs, (p % 8) as usize, p));
            pram.read_vec(xs)
        };
        assert_eq!(
            run(WritePolicy::ArbitrarySeeded(42)),
            run(WritePolicy::CrewChecked(42))
        );
    }

    const POLICIES: [WritePolicy; 5] = [
        WritePolicy::ArbitrarySeeded(29),
        WritePolicy::Racy,
        WritePolicy::CrewChecked(29),
        WritePolicy::PriorityMin,
        WritePolicy::PriorityMax,
    ];

    /// A program whose steps commit on the pool at any pool size from 2
    /// to 16 threads (16 Ki writes against a `par_threshold` of at most
    /// 16 Ki): 16 writers per cell over 1024 cells spaced 64 apart, so the
    /// written cells span 64 granules and every shard (at most 64 of them
    /// up to 16 threads) holds conflicting records, a fifth of the values
    /// escaping narrow cells; then a combining step of the same size.
    /// Racy and PRIORITY resolve by processor order, so a record applied
    /// out of processor order changes the image. Returns the conflict
    /// count and the digest of the final image.
    fn pool_commit_program(policy: WritePolicy) -> (u64, u64) {
        let (cells, spacing, nprocs) = (1024usize, 64usize, 16 * 1024usize);
        let mut pram = Pram::new(policy);
        let xs = pram.alloc_filled(cells * spacing, (1 << 36) + 5);
        let value = |p: u64| {
            if p.is_multiple_of(5) {
                (1u64 << 40) + p
            } else {
                p
            }
        };
        pram.step(nprocs, |p, ctx| {
            ctx.write(xs, (p as usize * 7) % cells * spacing, value(p));
        });
        let sums = pram.alloc(cells * spacing);
        pram.step_combine(nprocs, CombineOp::Sum, |p, ctx| {
            ctx.write(sums, p as usize % cells * spacing, value(p));
        });
        let mut image = pram.read_vec(xs);
        image.extend(pram.read_vec(sums));
        (pram.stats().write_conflicts, digest(&image))
    }

    /// Processors in a step on the pool at 4 threads: `par_threshold(4)`
    /// plus 7, which does not split evenly into that pool's 16 chunks.
    const UNEVEN_NPROCS: usize = 4096 + 7;

    /// One combining step on [`UNEVEN_NPROCS`] processors: each writes its
    /// id to its own cell and adds 1 to a shared counter after them.
    /// Returns the image, the charged writes and `max_ops_per_proc`.
    fn uneven_chunks_program() -> (Vec<u64>, u64, u64) {
        let n = UNEVEN_NPROCS;
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(3));
        let xs = pram.alloc_filled(n + 1, 0);
        pram.step_combine(n, CombineOp::Sum, |p, ctx| {
            ctx.write(xs, p as usize, p);
            ctx.write(xs, n, 1);
        });
        let stats = pram.stats();
        (pram.read_vec(xs), stats.writes, stats.max_ops_per_proc)
    }

    /// Child half of `pool_commit_matches_one_thread` and
    /// `uneven_chunks_match_one_thread`: prints each program's result for
    /// the parent to compare.
    #[test]
    #[ignore = "run as a child process by the *_match_one_thread tests"]
    fn pool_commit_probe() {
        for policy in POLICIES {
            let (conflicts, image) = pool_commit_program(policy);
            println!("pool-commit-probe {policy:?} {conflicts} {image:#x}");
        }
        let (image, writes, max_ops) = uneven_chunks_program();
        println!(
            "uneven-chunks-probe {:#x} {writes} {max_ops}",
            digest(&image)
        );
    }

    /// The probe lines starting with `prefix` that `pool_commit_probe`
    /// prints under `RAYON_NUM_THREADS=threads`.
    fn probe_lines(prefix: &str, threads: &str) -> Vec<String> {
        let exe = std::env::current_exe().expect("test binary path");
        let out = std::process::Command::new(&exe)
            .args([
                "--exact",
                "machine::tests::pool_commit_probe",
                "--ignored",
                "--nocapture",
                "--test-threads=1",
            ])
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("spawn the probe");
        let text = String::from_utf8_lossy(&out.stdout);
        // libtest may print the test name on the same line first.
        let lines: Vec<String> = text
            .lines()
            .filter_map(|l| l.find(prefix).map(|i| l[i..].to_string()))
            .collect();
        assert!(
            !lines.is_empty(),
            "no {prefix} at {threads} threads: {text}"
        );
        lines
    }

    #[test]
    fn pool_commit_matches_one_thread() {
        let want: Vec<String> = POLICIES
            .iter()
            .map(|&policy| {
                let (conflicts, image) = pool_commit_program(policy);
                // 16 writers per cell: all but the first of each conflict,
                // counted by the CREW checker only.
                let counted = matches!(policy, WritePolicy::CrewChecked(_));
                assert_eq!(conflicts, if counted { 15 * 1024 } else { 0 });
                format!("pool-commit-probe {policy:?} {conflicts} {image:#x}")
            })
            .collect();
        for threads in ["1", "4"] {
            assert_eq!(
                probe_lines("pool-commit-probe ", threads),
                want,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn uneven_chunks_match_one_thread() {
        assert_ne!(UNEVEN_NPROCS % 16, 0);
        assert!(UNEVEN_NPROCS >= par_threshold(4));
        let (image, writes, max_ops) = uneven_chunks_program();
        let n = UNEVEN_NPROCS as u64;
        let want: Vec<u64> = (0..n).chain([n]).collect();
        assert_eq!(image, want);
        assert_eq!((writes, max_ops), (2 * n, 2));
        let line = format!(
            "uneven-chunks-probe {:#x} {writes} {max_ops}",
            digest(&image)
        );
        for threads in ["1", "4"] {
            assert_eq!(
                probe_lines("uneven-chunks-probe ", threads),
                std::slice::from_ref(&line),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn arena_reuse_after_free_bounds_peak() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        for _ in 0..100 {
            let h = pram.alloc(1 << 10);
            pram.free(h);
        }
        assert_eq!(pram.stats().peak_words, 1 << 10);
    }

    /// A mixed program touching every representability class (small
    /// values, NULL, >32-bit values, combining steps, stamped blocks),
    /// used by the pinned-image and replay tests below.
    fn mixed_program(pram: &mut Pram) -> Vec<u64> {
        let n = 4096usize;
        let xs = pram.alloc_filled(n, NULL);
        let ys = pram.alloc(n);
        pram.step(4 * n, |p, ctx| {
            let i = (p as usize * 7) % n;
            let v = if p.is_multiple_of(97) {
                (1u64 << 40) + p // escapes narrow cells
            } else {
                p
            };
            ctx.write(xs, i, v);
        });
        pram.step(n, |p, ctx| {
            let i = p as usize;
            let v = ctx.read(xs, i);
            ctx.write(ys, i, if v == NULL { 0 } else { v.rotate_left(9) });
        });
        pram.step_combine(2 * n, CombineOp::Sum, |p, ctx| {
            ctx.write(ys, (p as usize) % 17, 1);
        });
        let mut s = pram.alloc_stamped(n);
        pram.step(n / 2, move |p, ctx| {
            ctx.write_stamped(s, p as usize * 2, p + (1 << 33));
        });
        let mut out = pram.read_vec(xs);
        out.extend(pram.read_vec(ys));
        for i in 0..n {
            out.push(pram.get_stamped(s, i, NULL));
        }
        pram.host_stamped_fill(&mut s);
        out.push(pram.get_stamped(s, 0, 7));
        pram.free_stamped(s);
        pram.free(xs);
        pram.free(ys);
        out
    }

    /// Order-sensitive digest of a memory image.
    fn digest(words: &[u64]) -> u64 {
        words
            .iter()
            .fold(words.len() as u64, |h, &w| crate::splitmix64(h ^ w))
    }

    /// `mixed_program`'s image on the retired full-width (8-byte cell)
    /// machine, one digest per policy. Narrow cells with escapes must
    /// reproduce it exactly: the cell encoding is never visible to a
    /// program. (Racy is deterministic here — within a shard the commit
    /// applies writes in processor order whatever the pool size.)
    const MIXED_PROGRAM_DIGESTS: [(WritePolicy, u64); 5] = [
        (WritePolicy::ArbitrarySeeded(42), 0xe7a8_7ee0_f92e_c892),
        (WritePolicy::Racy, 0x84dd_9d69_d391_8cd3),
        (WritePolicy::CrewChecked(11), 0x840d_972a_59c2_a58b),
        (WritePolicy::PriorityMin, 0x9afb_9590_0a23_f9e8),
        (WritePolicy::PriorityMax, 0x84dd_9d69_d391_8cd3),
    ];

    #[test]
    fn mixed_program_reproduces_the_full_width_image_under_every_policy() {
        for (policy, want) in MIXED_PROGRAM_DIGESTS {
            let mut pram = Pram::new(policy);
            let out = mixed_program(&mut pram);
            assert_eq!(out.len(), 3 * 4096 + 1);
            assert_eq!(digest(&out), want, "{policy:?}");
        }
    }

    #[test]
    fn reset_for_run_replays_bit_identically_without_regrowth() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(77));
        let first = mixed_program(&mut pram);
        let stats_first = pram.stats();
        let backing = pram.arena_backing_bytes();
        pram.reset_for_run();
        assert_eq!(pram.stats().live_words, 0);
        assert_eq!(pram.stats().peak_words, 0);
        // Backing capacity survives the reset — that is the point.
        assert_eq!(pram.arena_backing_bytes(), backing);
        let second = mixed_program(&mut pram);
        assert_eq!(first, second);
        let stats_second = pram.stats();
        assert_eq!(stats_first, stats_second);
        // And no new backing was mapped on the replay.
        assert_eq!(pram.arena_backing_bytes(), backing);
    }

    #[test]
    fn footprint_is_at_most_8_bytes_per_word_default_16_priority() {
        // Cells (4) + stamp (4), and no prio sidecar, for non-priority
        // policies.
        let words = 1usize << 18;
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let _ = pram.alloc(words);
        let per_word = pram.arena_backing_bytes() as f64 / pram.stats().live_words as f64;
        assert!(per_word <= 8.0, "bytes/word = {per_word}");

        // Priority policies pay for the sidecar (4 + 4 + 8).
        let mut pram = Pram::new(WritePolicy::PriorityMax);
        let _ = pram.alloc(words);
        let per_word = pram.arena_backing_bytes() as f64 / pram.stats().live_words as f64;
        assert!(
            per_word > 8.0 && per_word <= 16.0,
            "prio bytes/word = {per_word}"
        );
    }

    #[test]
    fn try_alloc_surfaces_exhaustion() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        assert!(pram.try_alloc(64).is_ok());
        // The real 2^32 cap cannot be hit in a unit test without 32 GiB;
        // the boundary itself is pinned in `mem::tests` with a narrowed
        // cap. Here: the error type is part of the public API.
        let r: Result<Handle, PramError> = pram.try_alloc(1 << 20);
        assert!(r.is_ok());
    }

    #[test]
    fn run_reset_event_and_gauges_reach_the_registry() {
        let reg = Arc::new(logdiam_obs::Registry::new());
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(5));
        pram.set_obs_registry(reg.clone());
        let h = pram.alloc(100);
        pram.fill_step(h, 3);
        pram.reset_for_run();
        let snap = reg.snapshot();
        assert_eq!(snap.gauges["sim_live_words"], 0);
        assert_eq!(snap.gauges["sim_peak_words"], 0);
        let events = reg.drain_events();
        let reset = events
            .iter()
            .find(|e| e.name == "run_reset")
            .expect("run_reset event");
        assert_eq!(
            reset.field("peak_words"),
            Some(&logdiam_obs::Value::U64(112))
        );
        assert_eq!(
            reset.field("live_words"),
            Some(&logdiam_obs::Value::U64(112))
        );
    }
}
