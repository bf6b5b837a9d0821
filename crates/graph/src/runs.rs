//! Streaming edge-run storage and k-way parallel run merge.
//!
//! The pre-PR-8 construction path materialized every pushed edge in one
//! unsorted `Vec<(u32, u32)>`, then sorted and deduplicated it in place —
//! a transient 2× footprint (unsorted list + CSR) that was the binding
//! memory constraint at n ≥ 1e7. This module replaces that with a
//! *streaming* discipline:
//!
//! * [`EdgeRunStore`] accepts edges one at a time (canonicalizing to
//!   `(min, max)` and dropping self-loops on the way in) into a bounded
//!   buffer. Whenever the buffer reaches the run capacity it is *sealed*:
//!   sorted, deduplicated, and shrunk — so the store only ever holds
//!   sorted duplicate-free runs plus one bounded open buffer.
//! * [`merge_sorted_runs`] turns the sealed runs into the single sorted
//!   duplicate-free canonical edge list by a k-way merge. The key space is
//!   partitioned into contiguous chunks (splitters sampled from the
//!   largest run, sub-ranges located by binary search in every run) and
//!   the chunks merge independently on the rayon pool. Because equal keys
//!   always land in the same chunk, streamwise dedup inside a chunk is
//!   exact, and because the output — the sorted set union of the runs —
//!   is independent of chunk boundaries and thread count, the result is
//!   deterministic at any `RAYON_NUM_THREADS`.
//!
//! Peak bytes during a build are therefore ≈ (sealed runs, which total at
//! most the deduplicated pushed edges) + (the merged list being written),
//! instead of (full unsorted push list) + (sorted copy). The run capacity
//! is a host-memory knob only — it never changes the resulting graph.
//!
//! **Out-of-core mode** (PR 10): with spill enabled
//! ([`RUN_SPILL_ENV`] or [`EdgeRunStore::set_spill_dir`]), sealed runs are
//! written to disk as fixed-width 8-byte little-endian records in
//! *unlinked* temp files (the fd keeps the data alive; nothing is left
//! behind on any exit path), and the final merge streams them back through
//! bounded read buffers. Peak build memory then drops to ≈ (one open run
//! buffer) + (merge read buffers) + (the merged list being written) —
//! the sealed-run mass moves to disk. The merge output is the sorted set
//! union either way, so spilling is bit-identical to in-memory building,
//! at any thread count.

use rayon::prelude::*;
use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default run capacity (edges per sealed run): 2^21 edges = 16 MiB per
/// run buffer. Large enough that sort/seal overhead is negligible, small
/// enough that the open buffer never dominates the peak.
pub const DEFAULT_RUN_EDGES: usize = 1 << 21;

/// Environment variable overriding [`DEFAULT_RUN_EDGES`] (min 1). A host
/// memory/perf knob for `bench_report` sweeps; the built graph is
/// identical for every value.
pub const RUN_EDGES_ENV: &str = "LOGDIAM_RUN_EDGES";

/// Below this many total edges a chunked parallel merge is pure overhead;
/// merge sequentially instead.
const MIN_PARALLEL_MERGE: usize = 1 << 15;

/// The run capacity currently in effect (env override or default).
pub fn run_capacity() -> usize {
    std::env::var(RUN_EDGES_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|v| v.max(1))
        .unwrap_or(DEFAULT_RUN_EDGES)
}

/// Environment variable enabling run spill: unset, empty, or `0` = off;
/// `1` = spill to the system temp dir; anything else = spill to that
/// directory. A host-memory knob only — the built graph is identical.
pub const RUN_SPILL_ENV: &str = "LOGDIAM_RUN_SPILL";

/// Edge pairs per file-read buffer while merging spilled runs: 2^14 pairs
/// = 128 KiB per cursor, large enough to amortize syscalls, small enough
/// that even dozens of concurrent cursors stay in cache-level memory.
const FILE_BUF_PAIRS: usize = 1 << 14;

/// The spill directory currently requested by [`RUN_SPILL_ENV`] (`None` =
/// spill off).
pub fn spill_dir_from_env() -> Option<PathBuf> {
    match std::env::var(RUN_SPILL_ENV) {
        Err(_) => None,
        Ok(v) if v.is_empty() || v == "0" => None,
        Ok(v) if v == "1" => Some(std::env::temp_dir()),
        Ok(v) => Some(PathBuf::from(v)),
    }
}

/// Process-wide spill traffic counters (monotonic), so a driver can delta
/// around a build it doesn't own the store of: `(runs spilled, bytes
/// written)`.
static SPILLED_RUNS: AtomicU64 = AtomicU64::new(0);
static SPILL_BYTES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide spill counters: `(runs, bytes)` written
/// to spill files since process start.
pub fn spill_counters() -> (u64, u64) {
    (
        SPILLED_RUNS.load(Ordering::Relaxed),
        SPILL_BYTES.load(Ordering::Relaxed),
    )
}

/// A sealed run spilled to disk: `len` sorted duplicate-free edges as
/// 8-byte LE `(u, v)` records in an *unlinked* file (deleted from the
/// directory the moment it is written — the open fd is the only thing
/// keeping the bytes, so every exit path cleans up).
struct FileRun {
    file: File,
    len: usize,
}

impl FileRun {
    /// Spill `edges` into a fresh unlinked file under `dir`.
    fn write(edges: &[(u32, u32)], dir: &Path) -> FileRun {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("spill dir {} unusable: {e}", dir.display()));
        let name = format!(
            "logdiam-run-{}-{}.spill",
            std::process::id(),
            NEXT_ID.fetch_add(1, Ordering::Relaxed)
        );
        let path = dir.join(name);
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("spill file {} create failed: {e}", path.display()));
        // Unlink immediately: the handle keeps the run readable, and the
        // kernel reclaims the space whenever the store (or process) dies.
        std::fs::remove_file(&path)
            .unwrap_or_else(|e| panic!("spill file {} unlink failed: {e}", path.display()));
        let mut w = std::io::BufWriter::with_capacity(1 << 20, &file);
        for &(u, v) in edges {
            w.write_all(&u.to_le_bytes()).expect("spill write failed");
            w.write_all(&v.to_le_bytes()).expect("spill write failed");
        }
        w.flush().expect("spill flush failed");
        drop(w);
        SPILLED_RUNS.fetch_add(1, Ordering::Relaxed);
        SPILL_BYTES.fetch_add(edges.len() as u64 * 8, Ordering::Relaxed);
        FileRun {
            file,
            len: edges.len(),
        }
    }

    /// Random-access read of record `i` (used by splitter binary search —
    /// O(log len) such reads per splitter, negligible next to streaming).
    fn get(&self, i: usize) -> (u32, u32) {
        debug_assert!(i < self.len);
        let mut rec = [0u8; 8];
        self.file
            .read_exact_at(&mut rec, i as u64 * 8)
            .expect("spill read failed");
        (
            u32::from_le_bytes(rec[0..4].try_into().unwrap()),
            u32::from_le_bytes(rec[4..8].try_into().unwrap()),
        )
    }

    /// Bulk read of records `[start, end)` into `out` (appended).
    fn read_range_into(&self, start: usize, end: usize, out: &mut Vec<(u32, u32)>) {
        debug_assert!(start <= end && end <= self.len);
        let n = end - start;
        let mut bytes = vec![0u8; n * 8];
        self.file
            .read_exact_at(&mut bytes, start as u64 * 8)
            .expect("spill read failed");
        out.reserve(n);
        for rec in bytes.chunks_exact(8) {
            out.push((
                u32::from_le_bytes(rec[0..4].try_into().unwrap()),
                u32::from_le_bytes(rec[4..8].try_into().unwrap()),
            ));
        }
    }

    fn to_vec(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        self.read_range_into(0, self.len, &mut out);
        out
    }
}

impl std::fmt::Debug for FileRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileRun").field("len", &self.len).finish()
    }
}

/// One sealed (sorted, duplicate-free) run, in memory or spilled.
#[derive(Debug)]
enum SealedRun {
    Mem(Vec<(u32, u32)>),
    File(FileRun),
}

impl SealedRun {
    fn len(&self) -> usize {
        match self {
            SealedRun::Mem(v) => v.len(),
            SealedRun::File(f) => f.len,
        }
    }

    /// Record `i` (random access; cheap for memory, one pread for files).
    fn get(&self, i: usize) -> (u32, u32) {
        match self {
            SealedRun::Mem(v) => v[i],
            SealedRun::File(f) => f.get(i),
        }
    }

    /// First index whose record is ≥ `key` (the `partition_point` of the
    /// run under `< key`), by binary search over [`SealedRun::get`].
    fn lower_bound(&self, key: (u32, u32)) -> usize {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.get(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Bounded-buffer store of canonicalized edges as sorted deduplicated
/// runs. See the module docs for the memory discipline.
#[derive(Debug)]
pub struct EdgeRunStore {
    /// Range bound for pushed endpoints (`None` = unbounded, track max).
    bound: Option<u32>,
    /// Largest endpoint seen (unbounded mode; `None` until the first push).
    max_id: Option<u32>,
    /// Edges per sealed run.
    run_capacity: usize,
    /// Spill directory (`None` = sealed runs stay in memory).
    spill: Option<PathBuf>,
    /// The open (unsorted) buffer.
    buf: Vec<(u32, u32)>,
    /// Sealed runs: each sorted and duplicate-free.
    runs: Vec<SealedRun>,
    /// Loop-surviving pushes (pre-dedup), for `raw_edge_count` semantics.
    pushed: usize,
    /// Bytes this store has written to spill files.
    spill_bytes: u64,
}

impl Clone for EdgeRunStore {
    /// Cloning a store with spilled runs reads them back into memory (the
    /// clone path is host bookkeeping on small stores; big out-of-core
    /// builds never clone mid-stream).
    fn clone(&self) -> Self {
        EdgeRunStore {
            bound: self.bound,
            max_id: self.max_id,
            run_capacity: self.run_capacity,
            spill: self.spill.clone(),
            buf: self.buf.clone(),
            runs: self
                .runs
                .iter()
                .map(|r| match r {
                    SealedRun::Mem(v) => SealedRun::Mem(v.clone()),
                    SealedRun::File(f) => SealedRun::Mem(f.to_vec()),
                })
                .collect(),
            pushed: self.pushed,
            spill_bytes: self.spill_bytes,
        }
    }
}

impl EdgeRunStore {
    /// Store for edges on vertices `0..n` (out-of-range pushes panic),
    /// with the ambient run capacity ([`run_capacity`]) and the ambient
    /// spill setting ([`RUN_SPILL_ENV`]).
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "vertex count too large");
        Self::with_run_capacity(Some(n as u32), run_capacity())
    }

    /// Store with no upper vertex bound: the needed vertex count is
    /// discovered from the stream (see [`EdgeRunStore::max_id`]). Used by
    /// the text loader, where ids precede any `# nodes:` knowledge.
    pub fn unbounded() -> Self {
        Self::with_run_capacity(None, run_capacity())
    }

    /// Explicit run capacity (tests and sweeps; `cap ≥ 1`). Spill follows
    /// [`RUN_SPILL_ENV`]; override with [`EdgeRunStore::set_spill_dir`].
    pub fn with_run_capacity(bound: Option<u32>, cap: usize) -> Self {
        let cap = cap.max(1);
        EdgeRunStore {
            bound,
            max_id: None,
            run_capacity: cap,
            spill: spill_dir_from_env(),
            buf: Vec::new(),
            runs: Vec::new(),
            pushed: 0,
            spill_bytes: 0,
        }
    }

    /// Set (or clear) the spill directory programmatically, overriding
    /// the [`RUN_SPILL_ENV`] default. Affects runs sealed *after* the
    /// call; already-sealed runs keep their representation (mixing is
    /// fine — the merge handles both).
    pub fn set_spill_dir(&mut self, dir: Option<PathBuf>) {
        self.spill = dir;
    }

    /// Sealed runs currently spilled to disk.
    pub fn spilled_runs(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| matches!(r, SealedRun::File(_)))
            .count()
    }

    /// Bytes this store has written to spill files (monotonic).
    pub fn spill_bytes(&self) -> u64 {
        self.spill_bytes
    }

    /// Push one undirected edge: self-loops are dropped, endpoints
    /// canonicalized to `(min, max)`. O(1) amortized; seals a run when
    /// the open buffer fills.
    #[inline]
    pub fn push(&mut self, u: u32, v: u32) {
        if let Some(b) = self.bound {
            assert!(u < b && v < b, "edge ({u},{v}) out of range");
        } else {
            let hi = u.max(v);
            self.max_id = Some(self.max_id.map_or(hi, |m| m.max(hi)));
        }
        if u == v {
            return;
        }
        self.pushed += 1;
        if self.buf.capacity() == 0 {
            // First edge: size the buffer lazily so empty stores stay free.
            self.buf.reserve(self.run_capacity.min(1 << 10));
        }
        self.buf.push((u.min(v), u.max(v)));
        if self.buf.len() >= self.run_capacity {
            self.seal();
        }
    }

    /// Loop-surviving pushes so far (duplicates included).
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// Largest endpoint pushed in unbounded mode (`None` when bounded or
    /// no edges yet).
    pub fn max_id(&self) -> Option<u32> {
        self.max_id
    }

    /// Sort + dedup the open buffer into a sealed run (spilled to disk
    /// when a spill directory is set — the buffer is then reused for the
    /// next run instead of being given away).
    fn seal(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.buf.sort_unstable();
        self.buf.dedup();
        match &self.spill {
            Some(dir) => {
                let fr = FileRun::write(&self.buf, dir);
                self.spill_bytes += fr.len as u64 * 8;
                self.runs.push(SealedRun::File(fr));
                self.buf.clear();
            }
            None => {
                let mut run = std::mem::take(&mut self.buf);
                run.shrink_to_fit();
                self.runs.push(SealedRun::Mem(run));
            }
        }
    }

    /// Finish: merge all runs into the sorted duplicate-free canonical
    /// edge list.
    pub fn into_sorted_edges(mut self) -> Vec<(u32, u32)> {
        self.seal();
        if self.runs.len() == 1 {
            return match self.runs.pop().unwrap() {
                SealedRun::Mem(v) => v,
                SealedRun::File(f) => f.to_vec(),
            };
        }
        if self.runs.iter().all(|r| matches!(r, SealedRun::Mem(_))) {
            // Pure in-memory path, unchanged from PR 8.
            let slices: Vec<&[(u32, u32)]> = self
                .runs
                .iter()
                .map(|r| match r {
                    SealedRun::Mem(v) => v.as_slice(),
                    SealedRun::File(_) => unreachable!(),
                })
                .collect();
            return merge_sorted_runs(&slices);
        }
        merge_sealed_runs(&self.runs)
    }
}

/// Merge sorted duplicate-free edge runs into one sorted duplicate-free
/// list (the set union), deduplicating across runs streamwise.
///
/// Deterministic for any thread count and any partition of the input into
/// runs: the output is a pure function of the union. The merge partitions
/// the *key space* (not the runs), so each chunk of the output is produced
/// by exactly one task; equal keys cannot straddle a chunk boundary, which
/// is what makes per-chunk dedup exact. With at most `4 · threads` chunks,
/// below the pool's 512-item chunk floor, the chunk loop runs on the
/// caller; one pool task per chunk (`with_min_len(1)`) was faster but
/// raised the peak RSS of a 4e6-vertex build by 7 %.
pub fn merge_sorted_runs(runs: &[&[(u32, u32)]]) -> Vec<(u32, u32)> {
    let live: Vec<&[(u32, u32)]> = runs.iter().copied().filter(|r| !r.is_empty()).collect();
    match live.len() {
        0 => return Vec::new(),
        1 => return live[0].to_vec(),
        _ => {}
    }
    let total: usize = live.iter().map(|r| r.len()).sum();
    let nthreads = rayon::current_num_threads();
    if nthreads <= 1 || total < MIN_PARALLEL_MERGE {
        return merge_range(&live);
    }

    // Sample chunk splitters from the largest run (it holds ≥ total/k of
    // the mass, so its quantiles balance the chunks well enough).
    let nchunks = (nthreads * 4).min(total / (MIN_PARALLEL_MERGE / 4)).max(1);
    let largest = live.iter().max_by_key(|r| r.len()).unwrap();
    let mut splitters: Vec<(u32, u32)> = (1..nchunks)
        .map(|c| largest[c * largest.len() / nchunks])
        .collect();
    splitters.dedup();

    // cuts[r] = the nchunks+1 boundaries of run r (binary-searched once
    // per splitter), so chunk c of run r is r[cuts[r][c]..cuts[r][c+1]].
    let cuts: Vec<Vec<usize>> = live
        .iter()
        .map(|r| {
            let mut c = Vec::with_capacity(splitters.len() + 2);
            c.push(0);
            for s in &splitters {
                c.push(r.partition_point(|e| e < s));
            }
            c.push(r.len());
            c
        })
        .collect();
    let nchunks = splitters.len() + 1;

    let parts: Vec<Vec<(u32, u32)>> = (0..nchunks)
        .into_par_iter()
        .map(|c| {
            let subs: Vec<&[(u32, u32)]> = live
                .iter()
                .zip(&cuts)
                .map(|(r, cut)| &r[cut[c]..cut[c + 1]])
                .filter(|s| !s.is_empty())
                .collect();
            merge_range(&subs)
        })
        .collect();
    let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    for p in parts {
        out.extend_from_slice(&p);
    }
    out
}

/// Merge sealed runs of any representation (memory and/or spilled) into
/// the sorted duplicate-free set union — the out-of-core counterpart of
/// [`merge_sorted_runs`], sharing its key-space partitioning scheme so
/// the output is bit-identical to what the in-memory merge produces for
/// the same union, at any thread count. File runs are streamed through
/// bounded buffers ([`FILE_BUF_PAIRS`] pairs per cursor); per-record
/// random access happens only in the O(k · log) splitter search.
fn merge_sealed_runs(runs: &[SealedRun]) -> Vec<(u32, u32)> {
    let live: Vec<&SealedRun> = runs.iter().filter(|r| r.len() > 0).collect();
    match live.len() {
        0 => return Vec::new(),
        1 => {
            return match live[0] {
                SealedRun::Mem(v) => v.clone(),
                SealedRun::File(f) => f.to_vec(),
            }
        }
        _ => {}
    }
    let total: usize = live.iter().map(|r| r.len()).sum();
    let nthreads = rayon::current_num_threads();
    if nthreads <= 1 || total < MIN_PARALLEL_MERGE {
        let cursors = live.iter().map(|r| RunCursor::new(r, 0, r.len())).collect();
        return merge_cursors(cursors, total);
    }

    // Same splitter scheme as merge_sorted_runs: quantiles of the largest
    // run partition the key space; every run is cut at each splitter.
    let nchunks = (nthreads * 4).min(total / (MIN_PARALLEL_MERGE / 4)).max(1);
    let largest = live.iter().max_by_key(|r| r.len()).unwrap();
    let mut splitters: Vec<(u32, u32)> = (1..nchunks)
        .map(|c| largest.get(c * largest.len() / nchunks))
        .collect();
    splitters.dedup();
    let cuts: Vec<Vec<usize>> = live
        .iter()
        .map(|r| {
            let mut c = Vec::with_capacity(splitters.len() + 2);
            c.push(0);
            for &s in &splitters {
                c.push(r.lower_bound(s));
            }
            c.push(r.len());
            c
        })
        .collect();
    let nchunks = splitters.len() + 1;

    let parts: Vec<Vec<(u32, u32)>> = (0..nchunks)
        .into_par_iter()
        .map(|c| {
            let mut size = 0usize;
            let cursors: Vec<RunCursor> = live
                .iter()
                .zip(&cuts)
                .filter(|(_, cut)| cut[c] < cut[c + 1])
                .map(|(r, cut)| {
                    size += cut[c + 1] - cut[c];
                    RunCursor::new(r, cut[c], cut[c + 1])
                })
                .collect();
            merge_cursors(cursors, size)
        })
        .collect();
    let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    for p in parts {
        out.extend_from_slice(&p);
    }
    out
}

/// Streaming cursor over a `[start, end)` range of a sealed run: memory
/// ranges borrow the slice, file ranges refill a bounded buffer.
struct RunCursor<'a> {
    run: &'a SealedRun,
    /// Next absolute index to buffer from (file runs).
    next: usize,
    end: usize,
    /// Buffered window (file runs; memory runs use the slice directly).
    buf: Vec<(u32, u32)>,
    /// Position within `buf` / within the memory slice.
    pos: usize,
}

impl<'a> RunCursor<'a> {
    fn new(run: &'a SealedRun, start: usize, end: usize) -> Self {
        let mut c = RunCursor {
            run,
            next: start,
            end,
            buf: Vec::new(),
            pos: start,
        };
        if let SealedRun::File(_) = run {
            c.pos = 0;
            c.refill();
        }
        c
    }

    fn refill(&mut self) {
        if let SealedRun::File(f) = self.run {
            self.buf.clear();
            self.pos = 0;
            let upto = self.end.min(self.next + FILE_BUF_PAIRS);
            if self.next < upto {
                f.read_range_into(self.next, upto, &mut self.buf);
                self.next = upto;
            }
        }
    }

    /// The current head edge, or `None` when the range is exhausted.
    fn head(&self) -> Option<(u32, u32)> {
        match self.run {
            SealedRun::Mem(v) => (self.pos < self.end).then(|| v[self.pos]),
            SealedRun::File(_) => self.buf.get(self.pos).copied(),
        }
    }

    fn advance(&mut self) {
        self.pos += 1;
        if let SealedRun::File(_) = self.run {
            if self.pos >= self.buf.len() && self.next < self.end {
                self.refill();
            }
        }
    }
}

/// K-way tournament over cursors with streamwise dedup — the same merge
/// order (heap keyed on head edge, ties by cursor index) as
/// [`merge_range`], so the output is the identical sorted set union.
fn merge_cursors(mut cursors: Vec<RunCursor>, size_hint: usize) -> Vec<(u32, u32)> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut out = Vec::with_capacity(size_hint);
    let mut heap: BinaryHeap<Reverse<((u32, u32), usize)>> = cursors
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.head().map(|e| Reverse((e, i))))
        .collect();
    while let Some(Reverse((e, i))) = heap.pop() {
        if out.last() != Some(&e) {
            out.push(e);
        }
        cursors[i].advance();
        if let Some(next) = cursors[i].head() {
            heap.push(Reverse((next, i)));
        }
    }
    out
}

/// Sequential k-way merge with dedup via a tournament over run heads
/// (binary heap keyed on the head edge, ties broken by run index so the
/// pop order is deterministic).
fn merge_range(subs: &[&[(u32, u32)]]) -> Vec<(u32, u32)> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    match subs.len() {
        0 => return Vec::new(),
        1 => return subs[0].to_vec(),
        2 => return merge2(subs[0], subs[1]),
        _ => {}
    }
    let mut out = Vec::with_capacity(subs.iter().map(|s| s.len()).sum());
    let mut heap: BinaryHeap<Reverse<((u32, u32), usize)>> = subs
        .iter()
        .enumerate()
        .map(|(i, s)| Reverse((s[0], i)))
        .collect();
    let mut cursor = vec![0usize; subs.len()];
    while let Some(Reverse((e, i))) = heap.pop() {
        if out.last() != Some(&e) {
            out.push(e);
        }
        cursor[i] += 1;
        if cursor[i] < subs[i].len() {
            heap.push(Reverse((subs[i][cursor[i]], i)));
        }
    }
    out
}

/// Two-way sorted merge with dedup (the common fan-in: an incremental
/// fold merges one base list with one fresh list).
fn merge2(a: &[(u32, u32)], b: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let e = match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                let e = a[i];
                i += 1;
                e
            }
            std::cmp::Ordering::Greater => {
                let e = b[j];
                j += 1;
                e
            }
            std::cmp::Ordering::Equal => {
                let e = a[i];
                i += 1;
                j += 1;
                e
            }
        };
        out.push(e);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn reference(mut edges: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        edges.retain(|&(u, v)| u != v);
        for e in edges.iter_mut() {
            *e = (e.0.min(e.1), e.0.max(e.1));
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    fn random_stream(n: u32, m: usize, seed: u64, loops: bool) -> Vec<(u32, u32)> {
        let mut rng = Rng::new(seed);
        (0..m)
            .map(|_| {
                let u = (rng.next_u64() % n as u64) as u32;
                let v = if loops && rng.next_u64().is_multiple_of(4) {
                    u
                } else {
                    (rng.next_u64() % n as u64) as u32
                };
                (u, v)
            })
            .collect()
    }

    #[test]
    fn store_matches_sort_dedup_for_every_run_size() {
        let stream = random_stream(97, 4000, 42, true);
        let want = reference(stream.clone());
        for cap in [1, 7, 64, 1024, stream.len(), stream.len() * 2] {
            let mut store = EdgeRunStore::with_run_capacity(Some(97), cap);
            for &(u, v) in &stream {
                store.push(u, v);
            }
            assert_eq!(store.into_sorted_edges(), want, "run capacity {cap}");
        }
    }

    #[test]
    fn duplicate_heavy_stream_collapses() {
        let mut store = EdgeRunStore::with_run_capacity(Some(8), 3);
        for _ in 0..100 {
            store.push(1, 2);
            store.push(2, 1);
            store.push(5, 5);
        }
        assert_eq!(store.pushed(), 200); // loops dropped pre-count
        assert_eq!(store.into_sorted_edges(), vec![(1, 2)]);
    }

    #[test]
    fn unbounded_mode_tracks_max_id() {
        let mut store = EdgeRunStore::unbounded();
        assert_eq!(store.max_id(), None);
        store.push(3, 9);
        store.push(7, 7); // loop still counts for max_id
        assert_eq!(store.max_id(), Some(9));
        assert_eq!(store.into_sorted_edges(), vec![(3, 9)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bounded_mode_checks_range() {
        let mut store = EdgeRunStore::with_run_capacity(Some(4), 8);
        store.push(0, 4);
    }

    #[test]
    fn merge_handles_empty_and_singleton_runs() {
        assert_eq!(merge_sorted_runs(&[]), vec![]);
        assert_eq!(merge_sorted_runs(&[&[], &[]]), vec![]);
        let a = [(0u32, 1u32), (2, 3)];
        assert_eq!(merge_sorted_runs(&[&a, &[]]), a.to_vec());
    }

    #[test]
    fn merge_many_overlapping_runs() {
        // 5 runs with heavy overlap, exercising the heap path.
        let runs: Vec<Vec<(u32, u32)>> = (0..5u32)
            .map(|r| (0..50u32).map(|i| (i + r, i + r + 1)).collect())
            .collect();
        let slices: Vec<&[(u32, u32)]> = runs.iter().map(|r| r.as_slice()).collect();
        let got = merge_sorted_runs(&slices);
        let want = reference(runs.concat());
        assert_eq!(got, want);
    }

    #[test]
    fn large_merge_exercises_parallel_chunking() {
        // Total above MIN_PARALLEL_MERGE so the chunked path runs when the
        // pool has threads; the result must match the sequential reference
        // either way.
        let stream = random_stream(5000, 3 * MIN_PARALLEL_MERGE, 7, false);
        let want = reference(stream.clone());
        let mut store = EdgeRunStore::with_run_capacity(Some(5000), MIN_PARALLEL_MERGE / 2);
        for &(u, v) in &stream {
            store.push(u, v);
        }
        assert_eq!(store.into_sorted_edges(), want);
    }
}
