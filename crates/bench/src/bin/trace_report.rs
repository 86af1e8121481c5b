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
//!
//! Output goes through one buffered, locked stdout. A reader that goes
//! away early (`trace_report trace.jsonl | head`) ends the output quietly:
//! the exit status is the one the trace itself earns. Any other write
//! error prints one line to stderr and exits 1.

use std::io::{self, BufWriter, ErrorKind, Write};
use std::process::ExitCode;

use mgopt_telemetry::parse::{parse_line, FieldValue, TraceEvent};
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
            "peak_hits",
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
    if ev.kind == "fleet_eval" && capped(ev).is_none() {
        return Err("event `fleet_eval` missing boolean field `capped`".into());
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

/// A `fleet_eval` event's `capped` flag: whether its cohort ran under a
/// peak-import cap.
fn capped(ev: &TraceEvent) -> Option<bool> {
    match ev.fields.get("capped") {
        Some(FieldValue::Bool(b)) => Some(*b),
        _ => None,
    }
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
    /// Plans of capped fleet cohorts, and those the plan-peak memo
    /// answered and the plan walk stepped; the summed-site-peak bound
    /// settled the rest.
    capped_plans: u64,
    peak_hits: u64,
    capped_walked: u64,
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
        if capped(ev) == Some(true) {
            // A capped cohort walks whole plans: every site, every step.
            let plan_rows = ev.uint("sites").unwrap_or(0) * ev.uint("steps").unwrap_or(0);
            self.capped_plans += ev.uint("plans").unwrap_or(0);
            self.peak_hits += ev.uint("peak_hits").unwrap_or(0);
            self.capped_walked += ev.uint("walked_rows").unwrap_or(0) / plan_rows.max(1);
        }
        self.chunks += ev.uint("chunks").unwrap_or(0);
        // Optional (added with the SIMD kernel) — older traces summarize
        // without a lane-utilization line.
        self.simd_rows += ev.uint("simd_rows").unwrap_or(0);
        self.simd_remainder_rows += ev.uint("simd_remainder_rows").unwrap_or(0);
        self.prepare_ms += ev.num("prepare_ms").unwrap_or(0.0);
        self.kernel_ms += ev.num("kernel_ms").unwrap_or(0.0);
        self.wall_ms += ev.num("wall_ms").unwrap_or(0.0);
    }

    fn print(&self, out: &mut impl Write, label: &str) -> io::Result<()> {
        if self.calls == 0 {
            return Ok(());
        }
        let throughput = if self.kernel_ms > 0.0 {
            self.walked_rows as f64 / (self.kernel_ms / 1e3)
        } else {
            0.0
        };
        writeln!(
            out,
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
        )?;
        if self.lookups > 0 {
            writeln!(
                out,
                "  {:<12} {:>6.1}% of (plan, site) lookups answered by the per-site table \
                 ({} hits of {})",
                "  table", // indented sublabel under the engine row
                self.table_hits as f64 / self.lookups as f64 * 1e2,
                self.table_hits,
                self.lookups
            )?;
        }
        if self.capped_plans > 0 {
            let share = |n: u64| n as f64 / self.capped_plans as f64 * 1e2;
            // Saturating: a trace is outside input and may not add up.
            let bound = self
                .capped_plans
                .saturating_sub(self.peak_hits + self.capped_walked);
            writeln!(
                out,
                "  {:<12} {} capped plans: {:.1}% settled by summed site peaks ({bound}), \
                 {:.1}% by the plan-peak memo ({}), {:.1}% walked ({})",
                "  capped", // indented sublabel under the engine row
                self.capped_plans,
                share(bound),
                share(self.peak_hits),
                self.peak_hits,
                share(self.capped_walked),
                self.capped_walked
            )?;
        }
        let vectorized = self.simd_rows + self.simd_remainder_rows;
        if vectorized > 0 {
            writeln!(
                out,
                "  {:<12} {:>6.1}% of lane slots hold real rows ({} real rows, {} padded rows)",
                "  lane util", // indented sublabel under the engine row
                self.simd_rows as f64 / vectorized as f64 * 1e2,
                self.simd_rows,
                self.simd_remainder_rows
            )?;
        }
        Ok(())
    }
}

fn summarize(out: &mut impl Write, events: &[TraceEvent]) -> io::Result<()> {
    let span_ms = events
        .last()
        .map(|e| e.t_ms)
        .unwrap_or(0.0)
        .max(events.first().map(|e| e.t_ms).unwrap_or(0.0));
    writeln!(
        out,
        "trace: {} events over {:.1} ms",
        events.len(),
        span_ms - events.first().map(|e| e.t_ms).unwrap_or(0.0)
    )?;

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
        writeln!(
            out,
            "\nengine passes (stage times sum worker-thread CPU time):"
        )?;
        batch.print(out, "batch")?;
        fleet.print(out, "fleet")?;
    }

    // Search convergence.
    let generations: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == "generation").collect();
    if !generations.is_empty() {
        let has_hv = generations.iter().any(|e| e.num("hv").is_some());
        writeln!(
            out,
            "\nsearch convergence ({} generations):",
            generations.len()
        )?;
        write!(
            out,
            "  {:>5} {:>7} {:>6} {:>7} {:>9} {:>6}",
            "gen", "cohort", "hits", "misses", "feasible", "front"
        )?;
        if has_hv {
            write!(out, " {:>12}", "hv")?;
        }
        writeln!(out, " {:>14} {:>14}", "best_obj0", "best_obj1")?;
        for ev in &generations {
            write!(
                out,
                "  {:>5} {:>7} {:>6} {:>7} {:>9} {:>6}",
                ev.uint("gen").unwrap_or(0),
                ev.uint("cohort").unwrap_or(0),
                ev.uint("cache_hits").unwrap_or(0),
                ev.uint("cache_misses").unwrap_or(0),
                ev.uint("feasible").unwrap_or(0),
                ev.uint("front").unwrap_or(0),
            )?;
            if has_hv {
                match ev.num("hv") {
                    Some(hv) => write!(out, " {hv:>12.4}")?,
                    None => write!(out, " {:>12}", "-")?,
                }
            }
            let best = |k: &str| {
                ev.num(k)
                    .map(|v| format!("{v:>14.4}"))
                    .unwrap_or_else(|| format!("{:>14}", "-"))
            };
            writeln!(out, "{}{}", best("best_obj0"), best("best_obj1"))?;
        }
    }

    // Pruning rungs.
    let rungs: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == "rung").collect();
    if !rungs.is_empty() {
        writeln!(out, "\nsuccessive-halving rungs:")?;
        writeln!(
            out,
            "  {:>5} {:>10} {:>8} {:>6}",
            "rung", "fidelity", "cohort", "kept"
        )?;
        for ev in &rungs {
            writeln!(
                out,
                "  {:>5} {:>10.4} {:>8} {:>6}",
                ev.uint("rung").unwrap_or(0),
                ev.num("fidelity").unwrap_or(0.0),
                ev.uint("cohort").unwrap_or(0),
                ev.uint("kept").unwrap_or(0),
            )?;
        }
    }

    // Daemon audit log: one row per completed study, correlated by id.
    let studies: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == "study_done").collect();
    if !studies.is_empty() {
        writeln!(out, "\ndaemon studies ({}):", studies.len())?;
        writeln!(
            out,
            "  {:<18} {:>4} {:>8} {:>7} {:>6} {:>10}",
            "id", "gens", "sampled", "unique", "front", "wall_ms"
        )?;
        for ev in &studies {
            writeln!(
                out,
                "  {:<18} {:>4} {:>8} {:>7} {:>6} {:>10.1}",
                ev.str("id").unwrap_or("?"),
                ev.uint("generations").unwrap_or(0),
                ev.uint("sampled").unwrap_or(0),
                ev.uint("unique").unwrap_or(0),
                ev.uint("front").unwrap_or(0),
                ev.num("wall_ms").unwrap_or(0.0),
            )?;
        }
        let errors = events.iter().filter(|e| e.kind == "request_error").count();
        if errors > 0 {
            writeln!(out, "  plus {errors} request_error frame(s)")?;
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
        writeln!(out, "\ndaemon scenario prep (median prep_ms per study):")?;
        for (label, ms) in prep.iter().filter(|(_, ms)| !ms.is_empty()) {
            writeln!(
                out,
                "  {label:<12} {:>9.3} ms over {} studies",
                percentile(ms, 50.0),
                ms.len()
            )?;
        }
    }
    let queued = events.iter().filter(|e| e.kind == "study_queued").count();
    let cancelled = events
        .iter()
        .filter(|e| e.kind == "study_cancelled")
        .count();
    if queued + cancelled > 0 {
        writeln!(
            out,
            "\ndaemon queueing: {queued} queued, {cancelled} cancelled"
        )?;
    }

    // Plain samplers.
    for ev in events.iter().filter(|e| e.kind == "sampler") {
        writeln!(
            out,
            "\nsampler `{}`: {} evaluations",
            ev.str("kind").unwrap_or("?"),
            ev.uint("evals").unwrap_or(0)
        )?;
    }
    Ok(())
}

/// Run `write` against one buffered, locked stdout. A closed pipe is the
/// reader's choice, not a failure: it returns `Ok` without writing more.
fn emit(
    write: impl FnOnce(&mut BufWriter<io::StdoutLock<'static>>) -> io::Result<()>,
) -> Result<(), ExitCode> {
    let mut out = BufWriter::new(io::stdout().lock());
    match write(&mut out).and_then(|()| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
        Err(e) => {
            eprintln!("trace_report: cannot write to stdout: {e}");
            Err(ExitCode::FAILURE)
        }
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
            let ok = emit(|out| writeln!(out, "trace_report: {} events, schema OK", events.len()));
            return ok.err().unwrap_or(ExitCode::SUCCESS);
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
    if let Err(code) = emit(|out| summarize(out, &events)) {
        return code;
    }
    if violations > 0 {
        eprintln!("trace_report: {violations} malformed line(s) skipped");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
