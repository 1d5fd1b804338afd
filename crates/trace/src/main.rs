//! `pq-trace` — offline analysis of pq-obs JSONL traces.
//!
//! ```text
//! pq-trace summary <trace.jsonl> [--top K]   per-phase/per-query percentiles + attribution
//! pq-trace tree    <trace.jsonl>             span forest with inclusive/exclusive ns
//! pq-trace diff    <a.jsonl> <b.jsonl>       event/span/attribution deltas between runs
//! pq-trace postmortem <dump.jsonl> [--tail K]  triage a flight-recorder dump
//! ```
//!
//! Produce a trace with e.g. `PQ_OBS_JSONL=fig5.jsonl cargo run --release --bin fig5`.

use pq_trace::{
    load, render_diff, render_postmortem, render_summary, render_tree, timing_events, TraceStats,
};

const USAGE: &str = "usage:
  pq-trace summary <trace.jsonl> [--top K]
  pq-trace tree    <trace.jsonl>
  pq-trace diff    <a.jsonl> <b.jsonl>
  pq-trace postmortem <dump.jsonl> [--tail K]";

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("pq-trace: {msg}");
    std::process::exit(1);
}

fn stats_or_fail(path: &str) -> TraceStats {
    TraceStats::from_path(path).unwrap_or_else(|e| fail(format_args!("{path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<&str> = Vec::new();
    let mut top = 10usize;
    let mut tail = 25usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--top" => {
                let v = iter
                    .next()
                    .unwrap_or_else(|| fail("--top requires a value"));
                top = v
                    .parse()
                    .unwrap_or_else(|_| fail(format_args!("invalid --top value: {v}")));
            }
            "--tail" => {
                let v = iter
                    .next()
                    .unwrap_or_else(|| fail("--tail requires a value"));
                tail = v
                    .parse()
                    .unwrap_or_else(|_| fail(format_args!("invalid --tail value: {v}")));
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other if other.starts_with('-') => fail(format_args!("unknown flag {other}\n{USAGE}")),
            other => positional.push(other),
        }
    }

    match positional.as_slice() {
        ["summary", path] => {
            print!("{}", render_summary(&stats_or_fail(path), top));
        }
        ["tree", path] => {
            let timings = timing_events(path).unwrap_or_else(|e| fail(format_args!("{path}: {e}")));
            print!("{}", render_tree(&timings));
        }
        ["diff", a, b] => {
            print!("{}", render_diff(&stats_or_fail(a), &stats_or_fail(b)));
        }
        ["postmortem", path] => {
            let events = load(path).unwrap_or_else(|e| fail(format_args!("{path}: {e}")));
            print!("{}", render_postmortem(&events, tail));
        }
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
