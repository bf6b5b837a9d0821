//! The batch workloads: stream → CSR, then CSR → labels through either
//! the Theorem-3 driver on the simulated PRAM (`t3-path`,
//! `t3-powerlaw`) or the four practical kernels (`par-mixture`).

use crate::input::{self, build, fingerprint, same_partition, Input, Setup};
use crate::measure::{guarded, median, mib, Ledger, Memory, Trace};
use cc_graph::{gen, Graph};
use logdiam_cc::theorem3::{faster_cc, FasterParams, FasterReport};
use logdiam_obs::Registry;
use pram_sim::{Pram, Stats, WritePolicy};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
pub enum Batch {
    T3Path,
    T3Powerlaw,
    ParMixture,
}

impl Batch {
    pub fn name(self) -> &'static str {
        match self {
            Batch::T3Path => "t3-path",
            Batch::T3Powerlaw => "t3-powerlaw",
            Batch::ParMixture => "par-mixture",
        }
    }

    fn input(self, seed: u64) -> Input {
        match self {
            Batch::T3Path => input::clean(&gen::path(1_000_000)),
            Batch::T3Powerlaw => {
                input::dirty(&gen::preferential_attachment(200_000, 4, seed), seed)
            }
            Batch::ParMixture => input::dirty(&input::mixture(4_000_000, seed), seed),
        }
    }
}

type Kernel = fn(&Graph) -> Vec<u32>;

/// The practical kernels: span name, per-layer metric, entry point.
const KERNELS: [(&str, &str, Kernel); 4] = [
    (
        "logdiam-par.unionfind",
        "logdiam-par.unionfind_ms",
        logdiam_par::unionfind::unionfind_cc,
    ),
    (
        "logdiam-par.labelprop",
        "logdiam-par.labelprop_ms",
        logdiam_par::labelprop::labelprop_cc,
    ),
    (
        "logdiam-par.sv",
        "logdiam-par.sv_ms",
        logdiam_par::sv::sv_cc,
    ),
    (
        "logdiam-par.contract",
        "logdiam-par.contract_ms",
        logdiam_par::contract::contract_cc,
    ),
];

/// One CSR → labels call and what it produced.
struct CcCall {
    secs: f64,
    /// Labels of each kernel (one entry for `faster_cc`).
    labels: Vec<Vec<u32>>,
    /// `faster_cc` only: its report, the machine's stats and arena bytes.
    sim: Option<(FasterReport, Stats, usize)>,
}

impl CcCall {
    fn fingerprint(&self) -> u64 {
        self.labels
            .iter()
            .fold(0, |h, l| h.rotate_left(17) ^ fingerprint(l))
    }
}

/// Seed of the write policy and of `faster_cc` on every run; `--seed`
/// makes the inputs. `faster_cc`'s memory depends on its seed in steps:
/// on `path(1e6)` some seeds peak at 25.2e6 simulated words and about
/// 585 MB of RSS, others at 37.7e6 words and about 760 MB. With the run
/// seed there, `rss_peak_mb` split into those two groups from run to
/// run. A fixed seed makes every run of a workload measure the same
/// simulated execution.
const ALGORITHM_SEED: u64 = 0xBEEF_CAFE;

/// CSR → labels once. Spans and the simulator's registry are attached
/// only when `tr` is on; the timed region holds the calls alone.
fn cc_call(kind: Batch, g: &Graph, tr: &mut Trace, reg: &Arc<Registry>) -> Result<CcCall, String> {
    if kind == Batch::ParMixture {
        let mut secs = 0.0;
        let mut labels = Vec::new();
        for (name, _, kernel) in KERNELS {
            let s = tr.begin(name);
            let t = Instant::now();
            let l = guarded(name, || kernel(g))?;
            secs += t.elapsed().as_secs_f64();
            tr.end(s);
            labels.push(l);
        }
        return Ok(CcCall {
            secs,
            labels,
            sim: None,
        });
    }
    let attach = tr.on();
    let s = tr.begin("logdiam-cc.faster_cc");
    let t = Instant::now();
    let out = guarded("faster_cc", || {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(ALGORITHM_SEED));
        if attach {
            pram.set_obs_registry(reg.clone());
        }
        let r = faster_cc(&mut pram, g, ALGORITHM_SEED, &FasterParams::default());
        (r, pram)
    });
    let secs = t.elapsed().as_secs_f64();
    tr.end(s);
    let (mut r, pram) = out?;
    let (stats, arena) = (pram.stats(), pram.arena_backing_bytes());
    drop(pram);
    let labels = vec![std::mem::take(&mut r.run.labels)];
    Ok(CcCall {
        secs,
        labels,
        sim: Some((r, stats, arena)),
    })
}

/// The 1-thread leg of a traced run: build once and make one CC call.
/// Prints `cc_s steps work fingerprint` on one line for the parent.
pub fn child_one_thread(kind: Batch, seed: u64) {
    let inp = kind.input(seed);
    let mut tr = Trace::new(false);
    let (g, _) = build(inp.n, &inp.stream, &mut tr);
    let reg = Arc::new(Registry::new());
    let c = cc_call(kind, &g, &mut tr, &reg).unwrap_or_else(|e| panic!("{e}"));
    let (steps, work) = c.sim.as_ref().map_or((0, 0), |(_, s, _)| (s.steps, s.work));
    println!("{} {steps} {work} {}", c.secs, c.fingerprint());
}

/// Re-run the CC call at `RAYON_NUM_THREADS=1` in a child process.
fn one_thread_leg(kind: Batch, seed: u64) -> Result<(f64, u64, u64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("1-thread leg: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            kind.name(),
            "--seed",
            &seed.to_string(),
            "--child-1t",
        ])
        .env("RAYON_NUM_THREADS", "1")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("1-thread leg: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let f: Vec<&str> = text.split_whitespace().collect();
    match (out.status.success(), f.as_slice()) {
        (true, [secs, steps, work, fp]) => Ok((
            secs.parse().map_err(|_| "1-thread leg: bad cc_s")?,
            steps.parse().map_err(|_| "1-thread leg: bad steps")?,
            work.parse().map_err(|_| "1-thread leg: bad work")?,
            fp.parse().map_err(|_| "1-thread leg: bad fingerprint")?,
        )),
        _ => Err(format!("1-thread leg exited with {}", out.status)),
    }
}

/// `ns` per processor of one read-one/write-one `Pram::step` at `n`
/// processors, measured from outside the drivers.
fn step_probe(n: usize, seed: u64) -> f64 {
    let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
    let a = pram.alloc_filled(n, 1);
    let b = pram.alloc(n);
    let body = |p: u64, ctx: &mut pram_sim::Ctx| {
        let x = ctx.read(a, p as usize);
        ctx.write(b, p as usize, x + 1);
    };
    pram.step(n, body);
    let reps = 16;
    let t = Instant::now();
    for _ in 0..reps {
        pram.step(n, body);
    }
    t.elapsed().as_secs_f64() * 1e9 / (reps * n) as f64
}

/// A set-up burst of the batch workloads: stream → CSR alone.
fn graph_burst(
    setup: &mut Setup,
    inp: &Input,
    led: &mut Ledger,
    mem: &mut Memory,
    tr: &mut Trace,
    verify_ms: &mut Vec<f64>,
) -> Option<Graph> {
    setup.burst(inp, led, mem, tr, verify_ms, |_, g, _| Ok(g), |_| Ok(()))
}

pub fn run(kind: Batch, seed: u64, seconds: f64, traced: bool, led: &mut Ledger) {
    let mut mem = Memory::new();
    let mut tr = Trace::new(traced);
    let mut verify_ms = Vec::new();
    let inp = kind.input(seed);
    let want = input::truth(inp.n, &inp.edges);

    let mut setup = Setup::new();
    let Some(mut g) = graph_burst(&mut setup, &inp, led, &mut mem, &mut tr, &mut verify_ms) else {
        return;
    };

    // CSR → labels until `seconds` have passed. A traced run alternates
    // untraced and traced calls, at least one of each, so the tracing
    // overhead is measured within one process.
    let reg = Arc::new(Registry::new());
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    let mut first_sim: Option<(u64, u64)> = None;
    let mut last: Option<CcCall> = None;
    let mut arena_mb = 0.0;
    let mut cc_peaks = Vec::new();
    let start = Instant::now();
    let mut calls = 0;
    while start.elapsed().as_secs_f64() < seconds
        || (calls < 4 && (plain.is_empty() || (traced && with_spans.is_empty())))
    {
        calls += 1;
        last = None;
        if calls > 1 && setup.due() {
            // Rebuilt, not kept beside the burst's builds.
            drop(g);
            g = match graph_burst(&mut setup, &inp, led, &mut mem, &mut tr, &mut verify_ms) {
                Some(g) => g,
                None => return,
            };
        }
        let spans = traced && !plain.is_empty() && plain.len() > with_spans.len();
        tr.set_on(spans);
        let kib = mem.phase_start();
        let call = cc_call(kind, &g, &mut tr, &reg);
        cc_peaks.push(mem.phase_peak_mb(kib));
        tr.set_on(traced);
        let call = match call {
            Ok(c) => c,
            Err(e) => {
                led.op(Err(e));
                continue;
            }
        };
        // One check per labeling: each kernel, or the faster_cc call,
        // is one operation.
        let mut checks: Vec<Result<(), String>> = Vec::new();
        for (k, l) in call.labels.iter().enumerate() {
            let name = match kind {
                Batch::ParMixture => KERNELS[k].0,
                _ => "faster_cc",
            };
            let tv = Instant::now();
            checks.push(same_partition(name, l, &want));
            verify_ms.push(tv.elapsed().as_secs_f64() * 1e3);
        }
        if let Some((r, stats, arena)) = &call.sim {
            let counts = (stats.steps, stats.work);
            let first = *first_sim.get_or_insert(counts);
            if first != counts {
                checks[0] = Err(format!(
                    "faster_cc: (steps, work) {counts:?} differ from the first call's {first:?}"
                ));
            }
            if spans {
                r.run.record_into(&reg);
            }
            arena_mb = mib(*arena);
        }
        for c in checks {
            led.op(c);
        }
        let work = call.sim.as_ref().map_or(0, |(_, st, _)| st.work);
        eprintln!(
            "perfbench: {} call {calls}{}: {:.4} s, {work} simulated work",
            kind.name(),
            if spans { " (traced)" } else { "" },
            call.secs
        );
        if spans {
            with_spans.push(call.secs);
        } else {
            plain.push(call.secs);
        }
        last = Some(call);
    }
    setup.record(led, &tr);
    if plain.is_empty() || (traced && with_spans.is_empty()) {
        return;
    }
    let cc_s = median(&plain);
    led.set("cc_s", cc_s);
    led.set("bench.cc_peak_mb", median(&cc_peaks));

    if traced {
        led.set("bench.trace_overhead", median(&with_spans) / cc_s);
        for (span, metric, _) in KERNELS {
            led.set(metric, tr.median_ms(span));
        }
        if let Some(call) = &last {
            let prefix = match kind {
                Batch::ParMixture => "logdiam-par.speedup_nproc",
                _ => "logdiam-cc.speedup_nproc",
            };
            let leg = one_thread_leg(kind, seed).and_then(|(secs, steps, work, fp)| {
                let (s0, w0) = first_sim.unwrap_or((0, 0));
                if (steps, work) != (s0, w0) {
                    Err(format!(
                        "1 thread vs nproc: (steps, work) ({steps}, {work}) != ({s0}, {w0})"
                    ))
                } else if fp != call.fingerprint() {
                    Err("1 thread vs nproc: labels differ".to_string())
                } else {
                    Ok(secs)
                }
            });
            match leg {
                Ok(secs) => {
                    led.set(prefix, secs / cc_s);
                    led.op(Ok(()));
                }
                Err(e) => led.op(Err(e)),
            }
        }
        if kind != Batch::ParMixture {
            led.set("pram-sim.step_ns_per_proc", step_probe(g.n(), seed));
        }
    }

    if let Some(CcCall {
        sim: Some((r, stats, _)),
        ..
    }) = &last
    {
        let snap = reg.snapshot();
        let gauge = |name: &str, fallback: u64| {
            snap.gauges.get(name).map_or(fallback as f64, |&v| v as f64)
        };
        led.set("sim_steps", stats.steps as f64);
        led.set("sim_work", stats.work as f64);
        led.set("sim_peak_words", stats.peak_words as f64);
        led.set(
            "pram-sim.ns_per_work",
            cc_s * 1e9 / stats.work.max(1) as f64,
        );
        led.set("pram-sim.reads", gauge("sim_reads", stats.reads));
        led.set("pram-sim.writes", gauge("sim_writes", stats.writes));
        led.set(
            "pram-sim.step_calls",
            gauge("sim_step_calls", stats.step_calls),
        );
        led.set("pram-sim.arena_mb", arena_mb);
        let rounds = r.run.per_round.iter();
        let round_work: u64 = rounds.clone().map(|m| m.work).sum();
        let compaction_work: u64 = rounds.clone().map(|m| m.compaction_work).sum();
        let startup = stats
            .work
            .saturating_sub(round_work + compaction_work + r.post_work);
        led.set("logdiam-cc.startup_work", startup as f64);
        led.set("logdiam-cc.round_work", round_work as f64);
        led.set("logdiam-cc.compaction_work", compaction_work as f64);
        led.set("logdiam-cc.post_work", r.post_work as f64);
        led.set(
            "logdiam-cc.work_per_m_round",
            stats.work as f64 / (g.m().max(1) as f64 * r.run.rounds.max(1) as f64),
        );
        led.set("logdiam-cc.rounds", gauge("run_rounds", r.run.rounds));
        led.set(
            "logdiam-cc.prepare_rounds",
            gauge("run_prepare_rounds", r.run.prepare_rounds),
        );
        led.set("logdiam-cc.table_peak_words", r.table_peak_words as f64);
        led.set(
            "logdiam-cc.dormant",
            rounds.map(|m| m.dormant).sum::<u64>() as f64,
        );
    }
    led.set("bench.verify_ms", median(&verify_ms));
    led.set("rss_peak_mb", mem.run_peak_mb());
    if traced {
        let path = format!(".perfbench/trace-{}-{seed}.jsonl", kind.name());
        if let Err(e) = tr.write(std::path::Path::new(&path)) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
}
