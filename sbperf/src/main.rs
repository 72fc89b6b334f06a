//! End-to-end and per-layer benchmark of the SoftBound reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path sbperf/Cargo.toml -- \
//!     --workload olden-pointers --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every gated timing comes from this program's clock around public
//! calls into the library (`Engine::compile`, `Engine::instantiate`,
//! `Instance::run`, `fleet::serve`); nothing is read from a timer inside
//! the system under test. `--trace 1` runs the same workload with spans
//! around each layer's public call and prints the per-layer metrics
//! instead. See `README.md` next to this file.

mod compile;
mod fleet;
mod host;
mod layers;
mod programs;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, printed by every untraced run: name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_us.p75", "us"),
    ("latency_us.tail", "us"),
    ("req_per_s", "1/s"),
    ("reserved_mib", "MiB"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run: name and unit. A
/// metric that does not apply to a workload reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("compile.frontend_us", "us"),
    ("compile.lower_us", "us"),
    ("compile.opt_pre_us", "us"),
    ("compile.instrument_us", "us"),
    ("compile.opt_post_us", "us"),
    ("compile.verify_us", "us"),
    ("compile.exec_lower_us", "us"),
    ("compile.checks_eliminated", "count"),
    ("compile.exec_ops", "count"),
    ("compile.fused_checks", "count"),
    ("engine.instantiate_us", "us"),
    ("engine.cold_run_us", "us"),
    ("engine.reset_us", "us"),
    ("engine.run_us", "us"),
    ("interp.base_us", "us"),
    ("interp.ns_per_inst", "ns"),
    ("softbound.added_us", "us"),
    ("softbound.overhead_x", "x"),
    ("softbound.overhead_x.hash", "x"),
    ("softbound.overhead_x.go", "x"),
    ("softbound.overhead_x.lbm", "x"),
    ("softbound.overhead_x.hmmer", "x"),
    ("softbound.overhead_x.compress", "x"),
    ("softbound.overhead_x.ijpeg", "x"),
    ("softbound.overhead_x.libquantum", "x"),
    ("softbound.overhead_x.bh", "x"),
    ("softbound.overhead_x.tsp", "x"),
    ("softbound.overhead_x.perimeter", "x"),
    ("softbound.overhead_x.health", "x"),
    ("softbound.overhead_x.bisort", "x"),
    ("softbound.overhead_x.mst", "x"),
    ("softbound.overhead_x.li", "x"),
    ("softbound.overhead_x.em3d", "x"),
    ("softbound.overhead_x.treeadd", "x"),
    ("run.insts", "count"),
    ("run.checks", "count"),
    ("run.meta_loads", "count"),
    ("run.meta_stores", "count"),
    ("run.mallocs", "count"),
    ("run.rt_calls", "count"),
    ("run.cycles", "count"),
    ("metadata.live_entries", "count"),
    ("fleet.hash_us", "us"),
    ("fleet.drain_us", "us"),
    ("fleet.request_us.p50", "us"),
    ("fleet.request_us.p99", "us"),
    ("policy.evidence_per_req", "1/req"),
    ("policy.violations_per_req", "1/req"),
    ("host.spin_ms.start", "ms"),
    ("host.spin_ms.end", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Command-line options.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Operations attempted and failed, with the first failure reasons.
#[derive(Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; `why` describes it if `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(why());
            }
        }
    }

    /// Records a failure of the run itself (a broken reference or a
    /// count that did not repeat), counted as one failed operation.
    pub fn fail(&mut self, why: String) {
        self.check(false, || why);
    }
}

/// Metrics measured by one run, by name.
pub type Metrics = BTreeMap<String, f64>;

/// What a workload run hands back.
pub struct WorkloadResult {
    /// Measured metrics (end-to-end or per-layer, by `--trace`).
    pub metrics: Metrics,
    /// Lines of context for standard error.
    pub notes: Vec<String>,
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sbperf: {e}");
            eprintln!(
                "usage: sbperf --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let spin_start = host::spin_ms();
    let mut tally = Tally::default();
    let result = match opts.workload.as_str() {
        "spec-arrays" => programs::run(&programs::SPEC_ARRAYS, &opts, &mut tally),
        "olden-pointers" => programs::run(&programs::OLDEN_POINTERS, &opts, &mut tally),
        "nhttpd-fleet" => fleet::run(&fleet::NHTTPD_FLEET, &opts, &mut tally),
        "mixed-hardened-hash" => fleet::run(&fleet::MIXED_HARDENED_HASH, &opts, &mut tally),
        other => Err(format!("unknown workload {other}")),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("sbperf: {e}");
            return ExitCode::from(1);
        }
    };
    let spin_end = host::spin_ms();
    out.metrics.insert("host.spin_ms.start".into(), spin_start);
    out.metrics.insert("host.spin_ms.end".into(), spin_end);

    let table: &[(&str, &str)] = if opts.trace { PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                tally.fail(format!("metric {name} is {v}"));
                0.0
            }
            // Per-layer metrics that do not apply to this workload.
            None if opts.trace => 0.0,
            None => {
                tally.fail(format!("metric {name} was not measured"));
                0.0
            }
        };
        eprintln!("  {name:<34} {value:>16.4} {unit}");
        // `Display` prints every digit and never an exponent: valid JSON.
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    eprintln!(
        "  host.spin_ms start {spin_start:.2} end {spin_end:.2}; {} attempted, {} failed",
        tally.attempted, tally.failed
    );
    for note in &out.notes {
        eprintln!("  {note}");
    }
    for note in &tally.notes {
        eprintln!("  FAILED: {note}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

/// Workload names, for the usage line.
const WORKLOADS: [&str; 4] = [
    "spec-arrays",
    "olden-pointers",
    "nhttpd-fleet",
    "mixed-hardened-hash",
];
