//! Inputs made from the seed, the stream → CSR build the program is
//! given them through, and the checks every output goes through: a
//! sequential union–find written here (independent of the code under
//! test) and an O(n) dense-array partition comparison.

use crate::measure::{guarded, median, mib, Ledger, Memory, Trace};
use cc_graph::{gen, EdgeRunStore, Graph, Rng};
use std::time::Instant;

/// A generated input: the distinct undirected edges on `0..n` (sorted,
/// canonical `u < v`) and the edge stream the program is fed.
pub struct Input {
    pub n: usize,
    pub edges: Vec<(u32, u32)>,
    pub stream: Vec<(u32, u32)>,
}

/// `gnm(n/2, 2n) ∪ path(n/4) ∪ star(n/4)`: random density, a long path
/// and a giant star in one graph.
pub fn mixture(n: usize, seed: u64) -> Graph {
    gen::union_all(&[
        gen::gnm(n / 2, 2 * n, seed ^ 1),
        gen::path(n / 4),
        gen::star(n / 4),
    ])
}

/// The edges of `g` in generator (sorted) order: a clean stream.
pub fn clean(g: &Graph) -> Input {
    Input {
        n: g.n(),
        edges: g.edges().to_vec(),
        stream: g.edges().to_vec(),
    }
}

/// A dirty stream over the edges of `g`: each edge in a random
/// orientation, a quarter of them repeated reversed, `n/64` self-loops,
/// all shuffled.
pub fn dirty(g: &Graph, seed: u64) -> Input {
    Input {
        n: g.n(),
        edges: g.edges().to_vec(),
        stream: dirty_stream(g.n(), g.edges(), seed),
    }
}

pub fn dirty_stream(n: usize, edges: &[(u32, u32)], seed: u64) -> Vec<(u32, u32)> {
    let mut rng = Rng::new(seed ^ 0xD1_27);
    let mut s = Vec::with_capacity(edges.len() + edges.len() / 4 + n / 64 + 1);
    for &(u, v) in edges {
        let (a, b) = if rng.coin(0.5) { (u, v) } else { (v, u) };
        s.push((a, b));
        if rng.coin(0.25) {
            s.push((b, a));
        }
    }
    for _ in 0..n / 64 {
        let v = rng.below(n as u64) as u32;
        s.push((v, v));
    }
    rng.shuffle(&mut s);
    s
}

/// Stream → CSR through the `cc-graph` layer: push every edge into an
/// [`EdgeRunStore`], merge the sorted runs, fill the CSR. Returns the
/// graph and the store's loop-free push count.
pub fn build(n: usize, stream: &[(u32, u32)], tr: &mut Trace) -> (Graph, usize) {
    let s = tr.begin("cc-graph.push");
    let mut store = EdgeRunStore::new(n);
    for &(u, v) in stream {
        store.push(u, v);
    }
    let pushed = store.pushed();
    tr.end(s);
    let s = tr.begin("cc-graph.merge");
    let edges = store.into_sorted_edges();
    tr.end(s);
    let s = tr.begin("cc-graph.csr");
    let g = Graph::from_canonical_edges(n as u32, edges);
    tr.end(s);
    (g, pushed)
}

/// The built graph must hold exactly the generated distinct edges.
pub fn check_graph(g: &Graph, want: &[(u32, u32)]) -> Result<(), String> {
    if g.edges() == want {
        Ok(())
    } else {
        Err(format!(
            "stream -> CSR: built {} edges, expected {} distinct",
            g.m(),
            want.len()
        ))
    }
}

/// Seconds of set-up a burst repeats for, at least one set-up.
const BURST_SECS: f64 = 0.5;
/// After the first burst, set-up takes at most this share of the run.
const SETUP_SHARE: f64 = 0.25;

/// The set-up, timed in bursts. A burst repeats stream → CSR, checked
/// against the generated edge set, then the workload's own set-up step
/// `then(rep, graph, tr)`, checked by `check`, for [`BURST_SECS`]. Each
/// repetition is one operation; neither check is timed. One `setup_s`
/// sample is a burst's mean time per set-up; `setup_s` is their median.
/// The batch workloads run a burst before the first measured operation
/// and, while [`Setup::due`], before later ones: the build's speed
/// drifts with the host's memory speed over seconds to minutes, and
/// bursts spread over the run sample the host over the same stretch as
/// the operations do.
pub struct Setup {
    t0: Instant,
    spent: f64,
    reps: usize,
    bursts: Vec<f64>,
    peaks: Vec<f64>,
    keep: f64,
    csr_mb: f64,
}

impl Setup {
    pub fn new() -> Self {
        Setup {
            t0: Instant::now(),
            spent: 0.0,
            reps: 0,
            bursts: Vec::new(),
            peaks: Vec::new(),
            keep: 0.0,
            csr_mb: 0.0,
        }
    }

    /// Whether a burst is due: the first always, a later one while
    /// set-up has had less than [`SETUP_SHARE`] of the run so far.
    pub fn due(&self) -> bool {
        self.reps == 0 || self.spent < SETUP_SHARE * self.t0.elapsed().as_secs_f64()
    }

    /// One burst; returns its last repetition's result, `None` if that
    /// repetition failed (each result is dropped before the next build).
    #[allow(clippy::too_many_arguments)]
    pub fn burst<T>(
        &mut self,
        inp: &Input,
        led: &mut Ledger,
        mem: &mut Memory,
        tr: &mut Trace,
        verify_ms: &mut Vec<f64>,
        mut then: impl FnMut(usize, Graph, &mut Trace) -> Result<T, String>,
        check: impl Fn(&T) -> Result<(), String>,
    ) -> Option<T> {
        let mut last: Option<T> = None;
        let (mut secs, mut tries, mut ok) = (0.0, 0, 0);
        let start = Instant::now();
        while tries == 0 || start.elapsed().as_secs_f64() < BURST_SECS {
            last = None;
            let rep = self.reps;
            self.reps += 1;
            tries += 1;
            let kib = mem.phase_start();
            let t = Instant::now();
            let built = guarded("stream -> CSR", || build(inp.n, &inp.stream, tr));
            let build_secs = t.elapsed().as_secs_f64();
            let tv = Instant::now();
            let built = built.and_then(|(g, p)| check_graph(&g, &inp.edges).map(|_| (g, p)));
            let mut verify = tv.elapsed().as_secs_f64();
            let made = built.and_then(|(g, p)| {
                self.keep = g.m() as f64 / p.max(1) as f64;
                self.csr_mb = mib(g.heap_bytes());
                let t = Instant::now();
                let made = then(rep, g, tr);
                Ok((made?, build_secs + t.elapsed().as_secs_f64()))
            });
            self.peaks.push(mem.phase_peak_mb(kib));
            let tv = Instant::now();
            let made = made.and_then(|(x, secs)| check(&x).map(|_| (x, secs)));
            verify += tv.elapsed().as_secs_f64();
            verify_ms.push(verify * 1e3);
            match made {
                Ok((x, s)) => {
                    secs += s;
                    ok += 1;
                    last = Some(x);
                    led.op(Ok(()));
                }
                Err(e) => led.op(Err(e)),
            }
        }
        if ok > 0 {
            self.spent += secs;
            self.bursts.push(secs / f64::from(ok));
            eprintln!(
                "perfbench: set-up burst {}: {ok} set-ups, {:.4} s each",
                self.bursts.len(),
                secs / f64::from(ok)
            );
        }
        last
    }

    /// Records `setup_s` and the `cc-graph` layer.
    pub fn record(&self, led: &mut Ledger, tr: &Trace) {
        if !self.bursts.is_empty() {
            led.set("setup_s", median(&self.bursts));
        }
        led.set("cc-graph.push_ms", tr.median_ms("cc-graph.push"));
        led.set("cc-graph.merge_ms", tr.median_ms("cc-graph.merge"));
        led.set("cc-graph.csr_ms", tr.median_ms("cc-graph.csr"));
        led.set("cc-graph.keep_ratio", self.keep);
        // Later builds reuse memory the earlier ones freed: the first
        // shows the build's real growth.
        led.set(
            "cc-graph.build_peak_mb",
            self.peaks.iter().copied().fold(0.0, f64::max),
        );
        led.set("cc-graph.csr_mb", self.csr_mb);
    }
}

/// Sequential union–find with path halving: the ground truth.
#[derive(Clone)]
pub struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    pub fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
        }
    }

    pub fn find(&mut self, mut v: u32) -> u32 {
        while self.parent[v as usize] != v {
            let gp = self.parent[self.parent[v as usize] as usize];
            self.parent[v as usize] = gp;
            v = gp;
        }
        v
    }

    pub fn union(&mut self, u: u32, v: u32) {
        let (a, b) = (self.find(u), self.find(v));
        if a != b {
            self.parent[a.max(b) as usize] = a.min(b);
        }
    }

    /// Component root of every vertex.
    pub fn labels(&mut self) -> Vec<u32> {
        (0..self.parent.len() as u32)
            .map(|v| self.find(v))
            .collect()
    }
}

/// Ground-truth labels of the graph on `0..n` with these edges.
pub fn truth(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut d = Dsu::new(n);
    for &(u, v) in edges {
        d.union(u, v);
    }
    d.labels()
}

/// Whether `got` and `want` induce the same partition of `0..n`, in
/// O(n) with two dense arrays: labels are vertex ids, so every label
/// must be `< n`, and the label-to-label map must be a bijection.
pub fn same_partition(what: &str, got: &[u32], want: &[u32]) -> Result<(), String> {
    let n = want.len();
    if got.len() != n {
        return Err(format!("{what}: {} labels for {n} vertices", got.len()));
    }
    const NONE: u32 = u32::MAX;
    let mut fwd = vec![NONE; n];
    let mut back = vec![NONE; n];
    for v in 0..n {
        let (a, b) = (got[v], want[v]);
        if a as usize >= n {
            return Err(format!("{what}: label {a} of vertex {v} is not < n = {n}"));
        }
        if fwd[a as usize] == NONE && back[b as usize] == NONE {
            fwd[a as usize] = b;
            back[b as usize] = a;
        } else if fwd[a as usize] != b || back[b as usize] != a {
            return Err(format!("{what}: wrong component for vertex {v}"));
        }
    }
    Ok(())
}

/// FNV-1a over the labels: compares labelings across processes.
pub fn fingerprint(labels: &[u32]) -> u64 {
    labels.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
        (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Zipf(s) over `0..n` through a seeded rank → vertex shuffle, so
/// popularity does not follow the generators' vertex numbering.
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        Rng::new(seed ^ 0x21BF).shuffle(&mut perm);
        Zipf { cdf, perm }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let x = rng.f64() * self.cdf[self.cdf.len() - 1];
        let rank = self
            .cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1);
        self.perm[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_check_accepts_relabelings_and_rejects_merges() {
        let want = [0, 0, 2, 2, 4];
        assert!(same_partition("t", &[1, 1, 3, 3, 0], &want).is_ok());
        assert!(same_partition("t", &[1, 1, 1, 1, 0], &want).is_err());
        assert!(same_partition("t", &[0, 1, 2, 2, 4], &want).is_err());
        assert!(same_partition("t", &[0, 0, 2, 2, 9], &want).is_err());
        assert!(same_partition("t", &[0, 0, 2], &want).is_err());
    }

    #[test]
    fn dirty_stream_builds_the_clean_graph() {
        let g = mixture(4_000, 7);
        let inp = dirty(&g, 7);
        assert!(inp.stream.len() > g.m());
        let (built, pushed) = build(inp.n, &inp.stream, &mut Trace::new(false));
        assert_eq!(built.edges(), g.edges());
        assert!(pushed >= g.m());
        assert_eq!(truth(inp.n, &inp.edges).len(), g.n());
    }
}
