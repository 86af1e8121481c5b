//! Summarize an `MGOPT_TRACE` JSONL trace: per-stage engine time
//! breakdown, search-convergence table (NSGA-II generations), pruning
//! rungs, daemon studies and their scenario-prep times, and sampler
//! cohorts.
//!
//! ```text
//! MGOPT_TRACE=trace.jsonl cargo run --release --example fleet_search
//! cargo run --release -p mgopt-bench --bin trace_report -- trace.jsonl
//! cargo run --release -p mgopt-bench --bin trace_report -- trace.jsonl --check
//! ```
//!
//! `--check` validates the trace instead of summarizing it: every line
//! must parse as a flat trace event, and every *known* event kind must
//! carry its required fields (unknown kinds pass — the schema is
//! forward-compatible). Exit status 1 on any violation, with line
//! numbers. CI runs a traced example through `--check` so the event
//! schema cannot silently rot.

use std::process::ExitCode;

use mgopt_telemetry::parse::{parse_line, TraceEvent};
use mgopt_units::stats::percentile;

/// Required numeric fields per known event kind. `sampler` additionally
/// requires a string `kind`; unknown event kinds are accepted as-is.
fn required_fields(kind: &str) -> &'static [&'static str] {
    match kind {
        "trace_start" => &[],
        "batch_eval" => &[
            "candidates",
            "steps",
            "chunks",
            "rows",
            "prepare_ms",
            "kernel_ms",
            "wall_ms",
        ],
        "fleet_eval" => &[
            "plans",
            "sites",
            "steps",
            "chunks",
            "rows",
            "walked_rows",
            "table_hits",
            "prepare_ms",
            "kernel_ms",
            "wall_ms",
        ],
        "generation" => &[
            "gen",
            "cohort",
            "cache_hits",
            "cache_misses",
            "feasible",
            "front",
        ],
        "rung" => &["rung", "fidelity", "cohort", "kept"],
        "sampler" => &["evals"],
        // Daemon audit events (`mgopt-server`): one start per accepted
        // study, exactly one of done/cancelled to close it, a queued event
        // when the process-wide cap defers it, one request_error per error
        // frame.
        "study_start" => &["sites", "plan_space", "prep_hits", "prep_misses", "prep_ms"],
        "study_done" => &["generations", "sampled", "unique", "front", "wall_ms"],
        "study_queued" => &["ahead"],
        "study_cancelled" => &["generations", "sampled", "wall_ms"],
        "request_error" => &[],
        _ => &[],
    }
}

fn check_event(ev: &TraceEvent) -> Result<(), String> {
    for &field in required_fields(&ev.kind) {
        if ev.num(field).is_none() {
            return Err(format!(
                "event `{}` missing numeric field `{field}`",
                ev.kind
            ));
        }
    }
    if ev.kind == "sampler" && ev.str("kind").is_none() {
        return Err("event `sampler` missing string field `kind`".into());
    }
    // Daemon audit events correlate by request id; an error event without
    // its code is unactionable.
    if matches!(
        ev.kind.as_str(),
        "study_start" | "study_done" | "study_queued" | "study_cancelled" | "request_error"
    ) && ev.str("id").is_none()
    {
        return Err(format!("event `{}` missing string field `id`", ev.kind));
    }
    if ev.kind == "request_error" && ev.str("code").is_none() {
        return Err("event `request_error` missing string field `code`".into());
    }
    Ok(())
}

/// Aggregated engine-pass stats for one event kind.
#[derive(Default)]
struct EngineAgg {
    calls: u64,
    rows: u64,
    /// Rows the kernel actually stepped: `rows` minus the fleet engine's
    /// per-site table hits.
    walked_rows: u64,
    /// Fleet (plan, site) lookups, and those the per-site table answered.
    lookups: u64,
    table_hits: u64,
    chunks: u64,
    simd_rows: u64,
    simd_remainder_rows: u64,
    prepare_ms: f64,
    kernel_ms: f64,
    wall_ms: f64,
}

impl EngineAgg {
    fn absorb(&mut self, ev: &TraceEvent) {
        self.calls += 1;
        let rows = ev.uint("rows").unwrap_or(0);
        self.rows += rows;
        // Batch passes (and pre-table fleet traces) walk every row.
        self.walked_rows += ev.uint("walked_rows").unwrap_or(rows);
        self.lookups += ev.uint("plans").unwrap_or(0) * ev.uint("sites").unwrap_or(0);
        self.table_hits += ev.uint("table_hits").unwrap_or(0);
        self.chunks += ev.uint("chunks").unwrap_or(0);
        // Optional (added with the SIMD kernel) — older traces summarize
        // without a lane-utilization line.
        self.simd_rows += ev.uint("simd_rows").unwrap_or(0);
        self.simd_remainder_rows += ev.uint("simd_remainder_rows").unwrap_or(0);
        self.prepare_ms += ev.num("prepare_ms").unwrap_or(0.0);
        self.kernel_ms += ev.num("kernel_ms").unwrap_or(0.0);
        self.wall_ms += ev.num("wall_ms").unwrap_or(0.0);
    }

    fn print(&self, label: &str) {
        if self.calls == 0 {
            return;
        }
        let throughput = if self.kernel_ms > 0.0 {
            self.walked_rows as f64 / (self.kernel_ms / 1e3)
        } else {
            0.0
        };
        println!(
            "  {label:<12} {:>6} passes {:>10} chunks {:>14} rows {:>14} walked   \
             prepare {:>9.1} ms   kernel {:>9.1} ms   wall {:>9.1} ms   {:>10.2e} walked rows/s",
            self.calls,
            self.chunks,
            self.rows,
            self.walked_rows,
            self.prepare_ms,
            self.kernel_ms,
            self.wall_ms,
            throughput
        );
        if self.lookups > 0 {
            println!(
                "  {:<12} {:>6.1}% of (plan, site) lookups answered by the per-site table \
                 ({} hits of {})",
                "  table", // indented sublabel under the engine row
                self.table_hits as f64 / self.lookups as f64 * 1e2,
                self.table_hits,
                self.lookups
            );
        }
        let vectorized = self.simd_rows + self.simd_remainder_rows;
        if vectorized > 0 {
            println!(
                "  {:<12} {:>6.1}% of lane slots hold real rows ({} real rows, {} padded rows)",
                "  lane util", // indented sublabel under the engine row
                self.simd_rows as f64 / vectorized as f64 * 1e2,
                self.simd_rows,
                self.simd_remainder_rows
            );
        }
    }
}

fn summarize(events: &[TraceEvent]) {
    let span_ms = events
        .last()
        .map(|e| e.t_ms)
        .unwrap_or(0.0)
        .max(events.first().map(|e| e.t_ms).unwrap_or(0.0));
    println!(
        "trace: {} events over {:.1} ms",
        events.len(),
        span_ms - events.first().map(|e| e.t_ms).unwrap_or(0.0)
    );

    // Engine passes.
    let mut batch = EngineAgg::default();
    let mut fleet = EngineAgg::default();
    for ev in events {
        match ev.kind.as_str() {
            "batch_eval" => batch.absorb(ev),
            "fleet_eval" => fleet.absorb(ev),
            _ => {}
        }
    }
    if batch.calls + fleet.calls > 0 {
        println!("\nengine passes (stage times sum worker-thread CPU time):");
        batch.print("batch");
        fleet.print("fleet");
    }

    // Search convergence.
    let generations: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == "generation").collect();
    if !generations.is_empty() {
        let has_hv = generations.iter().any(|e| e.num("hv").is_some());
        println!("\nsearch convergence ({} generations):", generations.len());
        print!(
            "  {:>5} {:>7} {:>6} {:>7} {:>9} {:>6}",
            "gen", "cohort", "hits", "misses", "feasible", "front"
        );
        if has_hv {
            print!(" {:>12}", "hv");
        }
        println!(" {:>14} {:>14}", "best_obj0", "best_obj1");
        for ev in &generations {
            print!(
                "  {:>5} {:>7} {:>6} {:>7} {:>9} {:>6}",
                ev.uint("gen").unwrap_or(0),
                ev.uint("cohort").unwrap_or(0),
                ev.uint("cache_hits").unwrap_or(0),
                ev.uint("cache_misses").unwrap_or(0),
                ev.uint("feasible").unwrap_or(0),
                ev.uint("front").unwrap_or(0),
            );
            if has_hv {
                match ev.num("hv") {
                    Some(hv) => print!(" {hv:>12.4}"),
                    None => print!(" {:>12}", "-"),
                }
            }
            let best = |k: &str| {
                ev.num(k)
                    .map(|v| format!("{v:>14.4}"))
                    .unwrap_or_else(|| format!("{:>14}", "-"))
            };
            println!("{}{}", best("best_obj0"), best("best_obj1"));
        }
    }

    // Pruning rungs.
    let rungs: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == "rung").collect();
    if !rungs.is_empty() {
        println!("\nsuccessive-halving rungs:");
        println!(
            "  {:>5} {:>10} {:>8} {:>6}",
            "rung", "fidelity", "cohort", "kept"
        );
        for ev in &rungs {
            println!(
                "  {:>5} {:>10.4} {:>8} {:>6}",
                ev.uint("rung").unwrap_or(0),
                ev.num("fidelity").unwrap_or(0.0),
                ev.uint("cohort").unwrap_or(0),
                ev.uint("kept").unwrap_or(0),
            );
        }
    }

    // Daemon audit log: one row per completed study, correlated by id.
    let studies: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == "study_done").collect();
    if !studies.is_empty() {
        println!("\ndaemon studies ({}):", studies.len());
        println!(
            "  {:<18} {:>4} {:>8} {:>7} {:>6} {:>10}",
            "id", "gens", "sampled", "unique", "front", "wall_ms"
        );
        for ev in &studies {
            println!(
                "  {:<18} {:>4} {:>8} {:>7} {:>6} {:>10.1}",
                ev.str("id").unwrap_or("?"),
                ev.uint("generations").unwrap_or(0),
                ev.uint("sampled").unwrap_or(0),
                ev.uint("unique").unwrap_or(0),
                ev.uint("front").unwrap_or(0),
                ev.num("wall_ms").unwrap_or(0.0),
            );
        }
        let errors = events.iter().filter(|e| e.kind == "request_error").count();
        if errors > 0 {
            println!("  plus {errors} request_error frame(s)");
        }
    }
    // Scenario prep per study: any cache miss prepares, all hits only look up.
    let prep_ms = |missed: bool| -> Vec<f64> {
        events
            .iter()
            .filter(|e| {
                e.kind == "study_start" && (e.uint("prep_misses").unwrap_or(0) > 0) == missed
            })
            .filter_map(|e| e.num("prep_ms"))
            .collect()
    };
    let prep = [
        ("with misses", prep_ms(true)),
        ("only hits", prep_ms(false)),
    ];
    if prep.iter().any(|(_, ms)| !ms.is_empty()) {
        println!("\ndaemon scenario prep (median prep_ms per study):");
        for (label, ms) in prep.iter().filter(|(_, ms)| !ms.is_empty()) {
            println!(
                "  {label:<12} {:>9.3} ms over {} studies",
                percentile(ms, 50.0),
                ms.len()
            );
        }
    }
    let queued = events.iter().filter(|e| e.kind == "study_queued").count();
    let cancelled = events
        .iter()
        .filter(|e| e.kind == "study_cancelled")
        .count();
    if queued + cancelled > 0 {
        println!("\ndaemon queueing: {queued} queued, {cancelled} cancelled");
    }

    // Plain samplers.
    for ev in events.iter().filter(|e| e.kind == "sampler") {
        println!(
            "\nsampler `{}`: {} evaluations",
            ev.str("kind").unwrap_or("?"),
            ev.uint("evals").unwrap_or(0)
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [path] = paths[..] else {
        eprintln!("usage: trace_report <trace.jsonl> [--check]");
        return ExitCode::from(2);
    };

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_report: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut events: Vec<TraceEvent> = Vec::new();
    let mut violations = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line).and_then(|ev| check_event(&ev).map(|()| ev)) {
            Ok(ev) => events.push(ev),
            Err(e) => {
                eprintln!("trace_report: line {}: {e}", i + 1);
                violations += 1;
            }
        }
    }

    if check {
        if violations == 0 && !events.is_empty() {
            println!("trace_report: {} events, schema OK", events.len());
            return ExitCode::SUCCESS;
        }
        if events.is_empty() {
            eprintln!("trace_report: no events in {path}");
        }
        return ExitCode::FAILURE;
    }

    if events.is_empty() {
        eprintln!("trace_report: no parseable events in {path}");
        return ExitCode::FAILURE;
    }
    summarize(&events);
    if violations > 0 {
        eprintln!("trace_report: {violations} malformed line(s) skipped");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
