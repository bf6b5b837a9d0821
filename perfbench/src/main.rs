//! `perfbench`: the repository's benchmark, end to end and layer by
//! layer, from one process on one host.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`; the program under test sees
//! only the generated edge stream or batches. Every output is checked
//! against a sequential ground truth outside the timed regions, and a
//! failed, panicking or wrong operation is counted, not fatal. The last
//! line of stdout is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `README.md` for the
//! workloads and what each metric means.

mod batch;
mod input;
mod measure;
mod svc;

use batch::Batch;
use measure::Ledger;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// measures each of them.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("cc_s", "s"), ("rss_peak_mb", "MB")];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// does not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim_steps", "count"),
    ("sim_work", "count"),
    ("sim_peak_words", "words"),
    ("commit_p50_ms", "ms"),
    ("commit_tail_ms", "ms"),
    ("commit_tail_pct", "%"),
    ("commit_samples", "count"),
    ("query_p50_us", "us"),
    ("query_tail_us", "us"),
    ("query_tail_pct", "%"),
    ("query_samples", "count"),
    ("commits_per_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("recover_s", "s"),
    ("fail_frac", "ratio"),
    ("cc-graph.push_ms", "ms"),
    ("cc-graph.merge_ms", "ms"),
    ("cc-graph.csr_ms", "ms"),
    ("cc-graph.keep_ratio", "ratio"),
    ("cc-graph.build_peak_mb", "MB"),
    ("cc-graph.csr_mb", "MB"),
    ("pram-sim.ns_per_work", "ns"),
    ("pram-sim.step_ns_per_proc", "ns"),
    ("pram-sim.reads", "count"),
    ("pram-sim.writes", "count"),
    ("pram-sim.step_calls", "count"),
    ("pram-sim.arena_mb", "MB"),
    ("logdiam-cc.startup_work", "count"),
    ("logdiam-cc.round_work", "count"),
    ("logdiam-cc.compaction_work", "count"),
    ("logdiam-cc.post_work", "count"),
    ("logdiam-cc.work_per_m_round", "ratio"),
    ("logdiam-cc.rounds", "count"),
    ("logdiam-cc.prepare_rounds", "count"),
    ("logdiam-cc.table_peak_words", "words"),
    ("logdiam-cc.dormant", "count"),
    ("logdiam-cc.speedup_nproc", "ratio"),
    ("logdiam-par.unionfind_ms", "ms"),
    ("logdiam-par.labelprop_ms", "ms"),
    ("logdiam-par.sv_ms", "ms"),
    ("logdiam-par.contract_ms", "ms"),
    ("logdiam-par.speedup_nproc", "ratio"),
    ("logdiam-svc.snapshot_publish_ms", "ms"),
    ("logdiam-svc.dedup_ms", "ms"),
    ("logdiam-svc.absorb_ms", "ms"),
    ("logdiam-svc.cross_drain_ms", "ms"),
    ("logdiam-svc.wal_append_ms", "ms"),
    ("logdiam-svc.fsync_ms", "ms"),
    ("logdiam-svc.commit_span_ms", "ms"),
    ("logdiam-svc.enqueue_wait_ms", "ms"),
    ("logdiam-svc.fold_ms", "ms"),
    ("logdiam-svc.swap_ms", "ms"),
    ("logdiam-svc.recompute_ms", "ms"),
    ("logdiam-svc.durable_snapshot_ms", "ms"),
    ("logdiam-svc.stale_ratio", "ratio"),
    ("logdiam-svc.commits", "count"),
    ("logdiam-svc.folds", "count"),
    ("logdiam-svc.cross_unions", "count"),
    ("logdiam-svc.overlay_swaps", "count"),
    ("logdiam-svc.wal_bytes", "bytes"),
    ("logdiam-svc.fsyncs", "count"),
    ("logdiam-svc.replayed", "count"),
    ("bench.cc_peak_mb", "MB"),
    ("bench.verify_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

const WORKLOADS: &[&str] = &["t3-path", "t3-powerlaw", "par-mixture", "svc-durable"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child_one_thread: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0xBEEF_CAFE,
        seconds: 10.0,
        trace: false,
        child_one_thread: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--child-1t" {
            a.child_one_thread = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = parse_seed(&value).ok_or(format!("bad seed {value}"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload '{}'", a.workload));
    }
    Ok(a)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    let batch = match args.workload.as_str() {
        "t3-path" => Some(Batch::T3Path),
        "t3-powerlaw" => Some(Batch::T3Powerlaw),
        "par-mixture" => Some(Batch::ParMixture),
        _ => None,
    };
    if args.child_one_thread {
        let kind = batch.expect("the 1-thread leg is for batch workloads");
        batch::child_one_thread(kind, args.seed);
        return;
    }
    // A failing operation is counted and reported by name; keep the
    // default hook's message off stdout, which carries only the result.
    std::panic::set_hook(Box::new(|info| eprintln!("perfbench: panic: {info}")));

    let mut led = Ledger::new();
    let wall = std::time::Instant::now();
    match batch {
        Some(kind) => batch::run(kind, args.seed, args.seconds, args.trace, &mut led),
        None => svc::run(args.seed, args.seconds, args.trace, &mut led),
    }
    let failed = led.failures.len() as u64;
    let attempted = led.attempted.max(1);
    led.set("fail_frac", failed as f64 / attempted as f64);

    eprintln!(
        "perfbench: {} seed {} trace {}: {attempted} operations, {failed} failed, {:.1} s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        wall.elapsed().as_secs_f64()
    );

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut missing = Vec::new();
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = led.metrics.get(name).copied().filter(|v| v.is_finite());
            if value.is_none() && !args.trace {
                missing.push(name);
            }
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value.unwrap_or(0.0)
            )
        })
        .collect();
    for name in &missing {
        eprintln!("perfbench: FAILED {name} was not measured");
    }
    let correct = failed == 0 && missing.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric printed is declared in `BENCHMARK.json` with the same
    /// unit, and every workload there is one this program runs.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let flat: String = json.split_whitespace().collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let decl = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(flat.contains(&decl), "{name} ({unit}) not declared");
        }
        for w in WORKLOADS {
            assert!(
                flat.contains(&format!("{{\"name\":\"{w}\"")),
                "{w} not declared"
            );
        }
    }
}
