//! Experiment driver: prints the E1–E14 reproduction tables as Markdown.
//!
//! ```text
//! cargo run -p logdiam-bench --release --bin experiments -- all
//! cargo run -p logdiam-bench --release --bin experiments -- e1 e7 --full
//! ```
//!
//! No arguments, an unknown experiment id, or a malformed `--seed=N`
//! print the usage and exit with status 2 before anything runs.

use logdiam_bench::{experiments, Config};

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("experiments: {problem}");
    }
    eprintln!(
        "usage: experiments [all | e1..e14]... [--full] [--seed=N]\n\
         available: {:?}",
        experiments::ALL
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = Config::default();
    let mut ids: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--full" => cfg.full = true,
            "all" => ids.extend(experiments::ALL.iter().map(|s| s.to_string())),
            other if other.starts_with("--seed=") => match other["--seed=".len()..].parse() {
                Ok(seed) => cfg.seed = seed,
                Err(_) => usage(&format!("bad seed in {other:?}")),
            },
            other if experiments::ALL.contains(&other) => ids.push(other.to_string()),
            other => usage(&format!("unknown experiment id {other:?}")),
        }
    }
    if ids.is_empty() {
        usage("");
    }
    ids.dedup();
    for id in &ids {
        let t0 = std::time::Instant::now();
        let tables = experiments::run(id, &cfg).expect("ids are validated above");
        for t in &tables {
            print!("{}", t.markdown());
        }
        eprintln!("[{id} done in {:.1}s]", t0.elapsed().as_secs_f64());
    }
}
