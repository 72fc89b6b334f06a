//! Per-layer metrics derived from a traced run's spans.

use crate::compile::{CompileCounts, PHASES};
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::Metrics;
use sb_vm::ExecStats;
use std::collections::BTreeMap;

/// Compile-phase, instantiate and cold-run times, each the sum over
/// programs of the per-program median (the same composition as
/// `setup_s`), plus the static counts summed over programs.
pub fn setup_metrics(t: &Tracer, counts: &[CompileCounts], metrics: &mut Metrics) {
    let sum_of_medians = |name: &str| -> f64 {
        t.durations_us(name)
            .values()
            .filter_map(|v| median(v))
            .sum()
    };
    let names = [
        "compile.frontend_us",
        "compile.lower_us",
        "compile.opt_pre_us",
        "compile.instrument_us",
        "compile.opt_post_us",
        "compile.verify_us",
        "compile.exec_lower_us",
    ];
    for (phase, metric) in PHASES.iter().zip(names) {
        metrics.insert(metric.into(), sum_of_medians(phase));
    }
    metrics.insert(
        "engine.instantiate_us".into(),
        sum_of_medians("engine.instantiate"),
    );
    metrics.insert(
        "engine.cold_run_us".into(),
        sum_of_medians("engine.cold_run"),
    );
    let sum = |f: fn(&CompileCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    metrics.insert(
        "compile.checks_eliminated".into(),
        sum(|c| c.stats.checks_eliminated as u64),
    );
    metrics.insert("compile.exec_ops".into(), sum(|c| c.exec_ops as u64));
    metrics.insert("compile.fused_checks".into(), sum(|c| c.fused_checks));
}

/// Per-key medians of the spans called `name`.
pub fn medians(t: &Tracer, name: &str) -> BTreeMap<usize, f64> {
    t.durations_us(name)
        .into_iter()
        .filter_map(|(k, v)| median(&v).map(|m| (k, m)))
        .collect()
}

/// Warm reset and run, the uninstrumented baseline, and the SoftBound
/// overhead over it. Every time is a per-key median; keys (programs, or
/// request arguments on the fleet workloads) are combined by geometric
/// mean. `base_insts` holds each key's uninstrumented instruction
/// count; `key_names` names the keys whose own overhead is reported.
pub fn lane_metrics(
    t: &Tracer,
    base_insts: &BTreeMap<usize, u64>,
    key_names: &[&str],
    metrics: &mut Metrics,
) {
    let (reset, run, base, hash) = (
        medians(t, "engine.reset"),
        medians(t, "engine.run"),
        medians(t, "interp.base"),
        medians(t, "softbound.hash_run"),
    );
    let gm = |m: &BTreeMap<usize, f64>| geomean(&m.values().copied().collect::<Vec<_>>());
    let over_base = |num: &BTreeMap<usize, f64>| -> Option<f64> {
        let ratios: Vec<f64> = base
            .iter()
            .filter_map(|(k, b)| num.get(k).map(|n| n / b))
            .collect();
        geomean(&ratios)
    };
    let ns_per_inst: Vec<f64> = base
        .iter()
        .filter_map(|(k, us)| base_insts.get(k).map(|&n| us * 1e3 / n.max(1) as f64))
        .collect();
    let values = [
        ("engine.reset_us", gm(&reset)),
        ("engine.run_us", gm(&run)),
        ("interp.base_us", gm(&base)),
        ("interp.ns_per_inst", geomean(&ns_per_inst)),
        (
            "softbound.added_us",
            gm(&run).zip(gm(&base)).map(|(r, b)| r - b),
        ),
        ("softbound.overhead_x", over_base(&run)),
        ("softbound.overhead_x.hash", over_base(&hash)),
    ];
    for (name, value) in values {
        if let Some(v) = value {
            metrics.insert(name.into(), v);
        }
    }
    for (k, name) in key_names.iter().enumerate() {
        if let (Some(r), Some(b)) = (run.get(&k), base.get(&k)) {
            metrics.insert(format!("softbound.overhead_x.{name}"), r / b);
        }
    }
}

/// The dynamic counts of one request of each program, summed.
pub fn run_counts(stats: &[&ExecStats], metrics: &mut Metrics) {
    type Field = fn(&ExecStats) -> u64;
    let fields: [(&str, Field); 7] = [
        ("run.insts", |s| s.insts),
        ("run.checks", |s| s.checks),
        ("run.meta_loads", |s| s.meta_loads),
        ("run.meta_stores", |s| s.meta_stores),
        ("run.mallocs", |s| s.mallocs),
        ("run.rt_calls", |s| s.rt_calls),
        ("run.cycles", |s| s.cycles),
    ];
    for (name, field) in fields {
        metrics.insert(
            name.into(),
            stats.iter().map(|s| field(s)).sum::<u64>() as f64,
        );
    }
}

/// Writes every span as JSON lines to `traces/<workload>-seed<seed>.jsonl`
/// in the benchmark's directory and returns a note naming the file.
pub fn write_trace(
    t: &Tracer,
    workload: &str,
    seed: u64,
    key_names: &[String],
) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    std::fs::write(&path, t.to_json_lines(key_names))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(format!(
        "{} spans written to {}",
        t.spans().len(),
        path.display()
    ))
}
