//! `svc-durable`: durable service traffic. One closed-loop client on
//! `ConnectivityService`, in cycles: create a service on the base graph,
//! write a fixed set of edges once in batches waited on until their
//! durable ack, with queries beside them, then a clean shutdown and a timed
//! `open()`. Every cycle runs the same script, so the service folds the
//! same sequence of graphs whatever the throughput.

use crate::input::{self, same_partition, Dsu, Input, Setup, Zipf};
use crate::measure::{guarded, median, Histogram, Ledger, Memory, Trace};
use cc_graph::{Graph, Rng};
use logdiam_svc::obs::MetricsSnapshot;
use logdiam_svc::{ConnectivityService, SvcParams};
use std::path::{Path, PathBuf};
use std::time::Instant;

const N: usize = 200_000;
const BATCH: usize = 128;
/// Write batches per traffic cycle: 2^16 edges, sixteen folds.
const CYCLE_BATCHES: usize = 512;
const READ_FRAC: f64 = 0.9;
const QUERY_SPAN_EVERY: u64 = 64;
/// Set-up bursts, all before the traffic. Bursts between cycles made
/// `rss_peak_mb` vary from 64 to 90 MB across runs, and this set-up,
/// bound by `create`'s fsyncs, does not drift with the host's memory
/// speed the way the batch workloads' builds do.
const SETUP_BURSTS: usize = 5;

/// Services run in a directory of the working tree, removed at the end.
fn service_root(seed: u64) -> PathBuf {
    Path::new(".perfbench").join(format!("svc-{}-{seed}", std::process::id()))
}

/// Mean of a service histogram, in ms (0 when it recorded nothing).
fn mean_ms(m: &MetricsSnapshot, name: &str) -> f64 {
    m.histograms.get(name).map_or(0.0, |h| h.mean() / 1e6)
}

fn counter(m: &MetricsSnapshot, name: &str) -> f64 {
    m.counters.get(name).copied().unwrap_or(0) as f64
}

/// Labels and epoch of a service against the ground truth.
fn check_service(
    what: &str,
    svc: &ConnectivityService,
    want: &[u32],
    epoch: u64,
) -> Result<(), String> {
    let snap = svc.latest();
    if snap.epoch() != epoch {
        return Err(format!(
            "{what}: at epoch {}, expected {epoch}",
            snap.epoch()
        ));
    }
    same_partition(what, snap.labels(), want)
}

pub fn run(seed: u64, seconds: f64, traced: bool, led: &mut Ledger) {
    // Latencies go to histograms allocated before anything else, so the
    // benchmark's own memory does not grow with the operations a run
    // completes.
    let (mut query_ns, mut commit_ns) = (Histogram::new(), Histogram::new());
    let mut mem = Memory::new();
    let mut tr = Trace::new(traced);
    let mut verify_ms = Vec::new();
    let params = SvcParams::default();

    // Half the mixture's edges, as a dirty stream, seed the service; the
    // first CYCLE_BATCHES * BATCH of the other half (shuffled) are the
    // writes.
    let g = input::mixture(N, seed);
    let mut edges = g.edges().to_vec();
    drop(g);
    Rng::new(seed ^ 0x5417).shuffle(&mut edges);
    let mut held: Vec<(u32, u32)> = edges.split_off(edges.len() / 2);
    held.truncate(CYCLE_BATCHES * BATCH);
    edges.sort_unstable();
    let inp = Input {
        n: N,
        stream: input::dirty_stream(N, &edges, seed),
        edges,
    };
    let mut base_dsu = Dsu::new(N);
    for &(u, v) in &inp.edges {
        base_dsu.union(u, v);
    }
    let base_labels = base_dsu.labels();

    // Set-up: stream → CSR, then `create`.
    let root = service_root(seed);
    let _ = std::fs::remove_dir_all(&root);
    let mut setup = Setup::new();
    let mut create = |rep: usize, g0: Graph, tr: &mut Trace| {
        if rep > 0 {
            let _ = std::fs::remove_dir_all(root.join(format!("setup-{}", rep - 1)));
        }
        let s = tr.begin("logdiam-svc.create");
        let dir = root.join(format!("setup-{rep}"));
        let svc = guarded("create", || ConnectivityService::create(&dir, g0, params));
        tr.end(s);
        svc?.map_err(|e| format!("create: {e}"))
    };
    let check_created = |svc: &ConnectivityService| check_service("create", svc, &base_labels, 0);
    for _ in 0..SETUP_BURSTS {
        let created = setup.burst(
            &inp,
            led,
            &mut mem,
            &mut tr,
            &mut verify_ms,
            &mut create,
            check_created,
        );
        drop(created);
    }
    let _ = std::fs::remove_dir_all(&root);
    let base = Graph::from_canonical_edges(N as u32, inp.edges.clone());

    // Traffic: one closed-loop client, in cycles until `seconds` have
    // gone (at least one). Between two writes the client queries while
    // a READ_FRAC coin comes up heads. A traced run alternates untraced
    // and traced stretches between commits, so the tracing overhead is
    // measured within one process.
    let zipf = Zipf::new(N, 1.0, seed);
    let mut pending = Vec::with_capacity(BATCH);
    let (mut plain_op_ns, mut traced_op_ns) = (Vec::new(), Vec::new());
    let (mut recompute_ms, mut recover_s) = (Vec::new(), Vec::new());
    let mut obs = MetricsSnapshot::default();
    let (mut swaps, mut stale, mut replayed) = (0.0, 0.0, 0.0);
    let (mut commits_total, mut traffic_secs, mut cycles) = (0u64, 0.0, 0u32);
    tr.set_on(false);
    let start = Instant::now();
    while cycles == 0 || start.elapsed().as_secs_f64() < seconds {
        cycles += 1;
        let dir = root.join(format!("cycle-{cycles}"));
        let svc = match guarded("create", || {
            ConnectivityService::create(&dir, base.clone(), params)
        }) {
            Ok(Ok(svc)) => svc,
            Ok(Err(e)) => {
                led.op(Err(format!("create: {e}")));
                continue;
            }
            Err(e) => {
                led.op(Err(e));
                continue;
            }
        };
        let mut dsu = base_dsu.clone();
        let mut rng = Rng::new(seed ^ 0x0B5);
        let mut commits = 0u64;
        let mut stretch = (Instant::now(), 0u64);
        let t_cycle = Instant::now();
        for (i, &e) in held.iter().enumerate() {
            while rng.coin(READ_FRAC) {
                stretch.1 += 1;
                let (u, v) = (zipf.sample(&mut rng), zipf.sample(&mut rng));
                // Queries take about a hundred nanoseconds: span one in
                // QUERY_SPAN_EVERY, or the trace outgrows the run.
                let s = if query_ns.count().is_multiple_of(QUERY_SPAN_EVERY) {
                    tr.begin("logdiam-svc.query_latest")
                } else {
                    tr.begin_off()
                };
                let t = Instant::now();
                let got = guarded("query_latest", || svc.query_latest(u, v));
                query_ns.record(t.elapsed());
                tr.end(s);
                led.op(got.and_then(|got| {
                    if got == (dsu.find(u) == dsu.find(v)) {
                        Ok(())
                    } else {
                        Err(format!("query_latest({u}, {v}) answered {got}"))
                    }
                }));
            }
            stretch.1 += 1;
            pending.push(e);
            if pending.len() < BATCH && i + 1 < held.len() {
                continue;
            }
            let s = tr.begin("logdiam-svc.apply_batch");
            let t = Instant::now();
            let acked = guarded("apply_batch", || svc.apply_batch(&pending).wait());
            commit_ns.record(t.elapsed());
            tr.end(s);
            commits += 1;
            for &(u, v) in &pending {
                dsu.union(u, v);
            }
            pending.clear();
            led.op(acked.and_then(|r| match r {
                Ok(epoch) if epoch == commits => Ok(()),
                Ok(epoch) => Err(format!(
                    "apply_batch: acked epoch {epoch}, expected {commits}"
                )),
                Err(dead) => Err(format!("apply_batch: writer died: {}", dead.payload())),
            }));
            if traced {
                let per_op = stretch.0.elapsed().as_secs_f64() * 1e9 / stretch.1 as f64;
                if tr.on() {
                    traced_op_ns.push(per_op);
                } else {
                    plain_op_ns.push(per_op);
                }
                tr.set_on(!tr.on());
                stretch = (Instant::now(), 0);
            }
        }
        let cycle_secs = t_cycle.elapsed().as_secs_f64();
        traffic_secs += cycle_secs;
        commits_total += commits;
        tr.set_on(false);
        let want = dsu.labels();
        let tv = Instant::now();
        led.op(check_service("latest snapshot", &svc, &want, commits));
        verify_ms.push(tv.elapsed().as_secs_f64() * 1e3);
        let m = svc.metrics();
        let cycle_recompute_ms = mean_ms(&m, "svc_recompute_ns");
        if cycle_recompute_ms > 0.0 {
            recompute_ms.push(cycle_recompute_ms);
        } else {
            led.op(Err("no background recompute ran in a cycle".to_string()));
        }
        obs.merge(&m);
        swaps += svc.overlay_swaps() as f64;
        stale += svc.stale_rebuilds() as f64;

        // Clean shutdown, then recovery.
        drop(svc);
        tr.set_on(traced);
        let s = tr.begin("logdiam-svc.open");
        let t = Instant::now();
        let reopened = guarded("open", || ConnectivityService::open(&dir, params));
        let secs = t.elapsed().as_secs_f64();
        tr.end(s);
        tr.set_on(false);
        let tv = Instant::now();
        match reopened {
            Ok(Ok(svc2)) => {
                recover_s.push(secs);
                led.op(check_service("recovered service", &svc2, &want, commits));
                replayed = counter(&svc2.metrics(), "svc_replayed_records_total");
            }
            Ok(Err(e)) => led.op(Err(format!("open: {e}"))),
            Err(e) => led.op(Err(e)),
        }
        verify_ms.push(tv.elapsed().as_secs_f64() * 1e3);
        let _ = std::fs::remove_dir_all(&dir);
        eprintln!(
            "perfbench: svc-durable cycle {cycles}: {commits} commits in {cycle_secs:.3} s, recompute {cycle_recompute_ms:.3} ms"
        );
    }
    tr.set_on(traced);
    let _ = std::fs::remove_dir_all(&root);
    setup.record(led, &tr);
    // Succeeds only when no trace file or other run's directory is left.
    let _ = std::fs::remove_dir(".perfbench");

    if !recompute_ms.is_empty() {
        led.set("cc_s", median(&recompute_ms) / 1e3);
    }
    if !recover_s.is_empty() {
        led.set("recover_s", median(&recover_s));
    }
    let q = query_ns.tail();
    let c = commit_ns.tail();
    led.set("commit_p50_ms", commit_ns.median() / 1e6);
    led.set("commit_tail_ms", c.value / 1e6);
    led.set("commit_tail_pct", c.pct);
    led.set("commit_samples", c.samples as f64);
    led.set("query_p50_us", query_ns.median() / 1e3);
    led.set("query_tail_us", q.value / 1e3);
    led.set("query_tail_pct", q.pct);
    led.set("query_samples", q.samples as f64);
    led.set("commits_per_s", commits_total as f64 / traffic_secs);
    led.set("queries_per_s", query_ns.count() as f64 / traffic_secs);
    for (metric, hist) in [
        ("logdiam-svc.snapshot_publish_ms", "svc_snapshot_publish_ns"),
        ("logdiam-svc.dedup_ms", "svc_dedup_ns"),
        ("logdiam-svc.absorb_ms", "svc_absorb_ns"),
        ("logdiam-svc.cross_drain_ms", "svc_cross_drain_ns"),
        ("logdiam-svc.wal_append_ms", "svc_wal_append_ns"),
        ("logdiam-svc.fsync_ms", "svc_fsync_ns"),
        ("logdiam-svc.commit_span_ms", "svc_commit_ns"),
        ("logdiam-svc.enqueue_wait_ms", "svc_enqueue_wait_ns"),
        ("logdiam-svc.fold_ms", "svc_fold_ns"),
        ("logdiam-svc.swap_ms", "svc_swap_ns"),
        ("logdiam-svc.recompute_ms", "svc_recompute_ns"),
        ("logdiam-svc.durable_snapshot_ms", "svc_durable_snapshot_ns"),
    ] {
        led.set(metric, mean_ms(&obs, hist));
    }
    // Counts are per cycle: every cycle runs the same script.
    let per_cycle = f64::from(cycles.max(1));
    for (metric, name) in [
        ("logdiam-svc.commits", "svc_commits_total"),
        ("logdiam-svc.folds", "svc_folds_total"),
        ("logdiam-svc.cross_unions", "svc_cross_unions_total"),
        ("logdiam-svc.wal_bytes", "svc_wal_bytes_total"),
        ("logdiam-svc.fsyncs", "svc_wal_fsyncs_total"),
    ] {
        led.set(metric, counter(&obs, name) / per_cycle);
    }
    led.set("logdiam-svc.overlay_swaps", swaps / per_cycle);
    led.set("logdiam-svc.stale_ratio", stale / (swaps + stale).max(1.0));
    led.set("logdiam-svc.replayed", replayed);
    if traced {
        if !traced_op_ns.is_empty() && !plain_op_ns.is_empty() {
            led.set(
                "bench.trace_overhead",
                median(&traced_op_ns) / median(&plain_op_ns),
            );
        }
        let path = format!(".perfbench/trace-svc-durable-{seed}.jsonl");
        if let Err(e) = tr.write(Path::new(&path)) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
    led.set("bench.verify_ms", median(&verify_ms));
    led.set("rss_peak_mb", mem.run_peak_mb());
}
