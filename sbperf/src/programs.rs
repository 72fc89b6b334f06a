//! The `spec-arrays` and `olden-pointers` workloads: one closed-loop
//! client runs a set of evaluation kernels in a seeded interleaved
//! order, one warm `Instance` per kernel, on the paged shadow space
//! under the Strict policy and the pre-decoded lane.

use crate::compile::{self, Baseline, CompileCounts};
use crate::layers;
use crate::stats::{
    geomean, median, quantile, window_rates, windowed_tail, Rng, TAIL_WINDOW, TYPICAL_Q,
};
use crate::trace::Tracer;
use crate::{host, Metrics, Opts, Tally, WorkloadResult};
use sb_vm::{ExecStats, Outcome, RunResult};
use softbound::{Engine, Facility, Instance, Program};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One kernel and the `main(n)` argument it runs at. `n` means
/// something different in each kernel (games, steps, cities, tree
/// depth…); each is chosen so one run takes about 1–10 ms.
pub struct Kernel {
    /// Name in `sb_workloads::benches`.
    pub name: &'static str,
    /// Argument to `main`.
    pub arg: i64,
}

impl Kernel {
    const fn new(name: &'static str, arg: i64) -> Self {
        Kernel { name, arg }
    }
}

/// Array kernels: a check on every array access, and (except
/// libquantum) no metadata loads or stores at all.
pub const SPEC_ARRAYS: [Kernel; 6] = [
    Kernel::new("go", 1),
    Kernel::new("lbm", 1),
    Kernel::new("hmmer", 2),
    Kernel::new("compress", 1),
    Kernel::new("ijpeg", 1),
    Kernel::new("libquantum", 3),
];

/// Pointer-dense kernels: thousands of metadata operations per run and
/// malloc/free churn.
pub const OLDEN_POINTERS: [Kernel; 9] = [
    Kernel::new("bh", 1),
    Kernel::new("tsp", 80),
    Kernel::new("perimeter", 1),
    Kernel::new("health", 15),
    Kernel::new("bisort", 300),
    Kernel::new("mst", 80),
    Kernel::new("li", 8),
    Kernel::new("em3d", 4),
    Kernel::new("treeadd", 9),
];

/// Cold set-ups before and again after the timed phase; `setup_s` is
/// the median of all of them.
const SETUP_REPS: usize = 10;
/// Rounds run before timing starts.
const WARM_ROUNDS: usize = 3;
/// Target wall time of one `req_per_s` window.
const WINDOW_SECS: f64 = 0.5;

/// What a correct run of one kernel looks like.
struct Reference {
    /// Outcome and output of the uninstrumented run.
    outcome: Outcome,
    output: String,
    /// Dynamic statistics of the first instrumented run; every later
    /// run must repeat them exactly.
    stats: Option<ExecStats>,
}

impl Reference {
    /// Checks an instrumented run: same result as uninstrumented, same
    /// counts as every earlier instrumented run.
    fn check(&mut self, tally: &mut Tally, name: &str, r: &RunResult) {
        let counts_repeat = match &self.stats {
            Some(s) => *s == r.stats,
            None => {
                self.stats = Some(r.stats.clone());
                true
            }
        };
        tally.check(
            r.outcome == self.outcome && r.output == self.output && counts_repeat,
            || {
                format!(
                    "{name}: {:?} (want {:?}), output equal {}, counts repeat {counts_repeat}",
                    r.outcome,
                    self.outcome,
                    r.output == self.output
                )
            },
        );
    }

    /// Checks a run of another build (uninstrumented or another
    /// facility), whose counts legitimately differ.
    fn check_result(&self, tally: &mut Tally, what: &str, r: &RunResult) {
        tally.check(r.outcome == self.outcome && r.output == self.output, || {
            format!("{what}: {:?} (want {:?})", r.outcome, self.outcome)
        });
    }
}

/// Runs a kernel set as one workload.
pub fn run(kernels: &[Kernel], opts: &Opts, tally: &mut Tally) -> Result<WorkloadResult, String> {
    let sources: Vec<&'static str> = kernels
        .iter()
        .map(|k| {
            sb_workloads::benchmark_by_name(k.name)
                .map(|w| w.source)
                .ok_or_else(|| format!("no kernel named {}", k.name))
        })
        .collect::<Result<_, _>>()?;
    let engine = Engine::new().facility(Facility::ShadowPaged);
    let baselines: Vec<Baseline> = sources
        .iter()
        .map(|s| Baseline::new(s))
        .collect::<Result<_, _>>()?;
    let mut refs: Vec<Reference> = kernels
        .iter()
        .zip(&baselines)
        .map(|(k, b)| {
            let r = b.run(&[k.arg]);
            Reference {
                outcome: r.outcome,
                output: r.output,
                stats: None,
            }
        })
        .collect();

    let mut notes = vec![format!(
        "args: {}",
        kernels
            .iter()
            .map(|k| format!("{}={}", k.name, k.arg))
            .collect::<Vec<_>>()
            .join(" ")
    )];
    let mut metrics = Metrics::new();
    let mut tracer = opts.trace.then(|| Tracer::with_capacity(1 << 20));

    // Set-up: source text to one completed request of every kernel.
    let mut setup_s = Vec::new();
    let mut counts = Vec::new();
    for rep in 0..SETUP_REPS {
        match tracer.as_mut() {
            None => setup_s.push(cold_setup(&engine, kernels, &sources, &mut refs, tally)?),
            Some(t) => {
                let c = traced_setup(&engine, kernels, &sources, &mut refs, tally, t, rep as u64)?;
                if rep == 0 {
                    counts = c;
                } else {
                    tally.check(c == counts, || {
                        "compile counts differ between set-ups".into()
                    });
                }
            }
        }
    }

    // The warm instances the timed phases drive.
    let programs: Vec<Program> = sources
        .iter()
        .map(|s| engine.compile(s).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut instances: Vec<Instance<'_>> = programs.iter().map(|p| engine.instantiate(p)).collect();
    let mut rng = Rng::new(opts.seed);
    let mut order: Vec<usize> = (0..kernels.len()).collect();
    let warm_start = Instant::now();
    for _ in 0..WARM_ROUNDS {
        for (i, inst) in instances.iter_mut().enumerate() {
            let r = inst.run("main", &[kernels[i].arg]);
            refs[i].check(tally, kernels[i].name, &r);
        }
    }
    let round_secs = warm_start.elapsed().as_secs_f64() / WARM_ROUNDS as f64;
    let rounds_per_window = ((WINDOW_SECS / round_secs).round() as usize).max(1);

    if let Some(mut t) = tracer.take() {
        let budget = Duration::from_secs_f64(opts.seconds);
        let plain = traced_rounds(
            &engine,
            kernels,
            &sources,
            &baselines,
            &mut instances,
            &mut refs,
            &mut rng,
            &mut order,
            budget,
            tally,
            &mut t,
            &mut metrics,
        )?;
        let plain_p50 = per_key_geomean(&plain, median);
        let traced_p50 = geomean(
            &layers::medians(&t, "request")
                .into_values()
                .collect::<Vec<_>>(),
        );
        if let (Some(a), Some(b)) = (plain_p50, traced_p50) {
            metrics.insert("trace.overhead_pct".into(), (b / a - 1.0) * 100.0);
        }
        layers::setup_metrics(&t, &counts, &mut metrics);
        let names: Vec<String> = kernels.iter().map(|k| k.name.to_string()).collect();
        notes.push(layers::write_trace(&t, &opts.workload, opts.seed, &names)?);
    } else {
        let peak_reset = host::reset_peak_rss();
        let run = timed_rounds(
            kernels,
            &mut instances,
            &mut refs,
            &mut rng,
            &mut order,
            Duration::from_secs_f64(opts.seconds),
            tally,
        );
        // Read before the second set-up batch builds a second kernel set.
        let peak_rss = host::peak_rss_mib();
        for inst in &mut instances {
            inst.reset();
        }
        let reserved: usize = instances
            .iter()
            .map(Instance::metadata_reservation_bytes)
            .sum();
        for _ in 0..SETUP_REPS {
            setup_s.push(cold_setup(&engine, kernels, &sources, &mut refs, tally)?);
        }

        let typical = per_key_geomean(&run.samples, |v| quantile(v, TYPICAL_Q));
        let tail_us = per_key_geomean(&run.samples, |v| windowed_tail(v, TAIL_WINDOW));
        let rates = window_rates(&run.marks, rounds_per_window);
        let values = [
            ("setup_s", median(&setup_s)),
            ("latency_us.p75", typical),
            ("latency_us.tail", tail_us),
            ("req_per_s", quantile(&rates, 1.0 - TYPICAL_Q)),
            ("reserved_mib", Some(reserved as f64 / f64::from(1 << 20))),
            ("peak_rss_mib", peak_rss),
        ];
        for (name, value) in values {
            if let Some(v) = value {
                metrics.insert(name.into(), v);
            }
        }
        let fewest = run.samples.iter().map(Vec::len).min().unwrap_or(0);
        notes.push(format!(
            "{} requests in {} rounds, fewest per kernel {fewest}; {} rate windows of \
             {rounds_per_window} rounds; {} set-ups; geomean p50 {:.1} us; peak-RSS reset {}",
            run.requests,
            run.marks.len(),
            rates.len(),
            setup_s.len(),
            per_key_geomean(&run.samples, median).unwrap_or(0.0),
            if peak_reset { "ok" } else { "unsupported" }
        ));
        for (k, v) in kernels.iter().zip(&run.samples) {
            notes.push(format!(
                "{:<10} n={:<4} p50 {:>9.1} us  p75 {:>9.1} us  tail {:>9.1} us  ({} runs)",
                k.name,
                k.arg,
                median(v).unwrap_or(0.0),
                quantile(v, TYPICAL_Q).unwrap_or(0.0),
                windowed_tail(v, TAIL_WINDOW).unwrap_or(0.0),
                v.len()
            ));
        }
    }
    Ok(WorkloadResult { metrics, notes })
}

/// One cold set-up of the whole kernel set, timed from source text to
/// one completed request of every kernel.
fn cold_setup(
    engine: &Engine,
    kernels: &[Kernel],
    sources: &[&str],
    refs: &mut [Reference],
    tally: &mut Tally,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let programs: Vec<Program> = sources
        .iter()
        .map(|s| engine.compile(s).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut instances: Vec<Instance<'_>> = Vec::with_capacity(programs.len());
    let mut results = Vec::with_capacity(programs.len());
    for (p, k) in programs.iter().zip(kernels) {
        let mut inst = engine.instantiate(p);
        results.push(inst.run("main", &[k.arg]));
        instances.push(inst);
    }
    let secs = t0.elapsed().as_secs_f64();
    for ((r, k), reference) in results.iter().zip(kernels).zip(refs.iter_mut()) {
        reference.check(tally, k.name, r);
    }
    Ok(secs)
}

/// The traced counterpart of [`cold_setup`], kernel by kernel.
fn traced_setup(
    engine: &Engine,
    kernels: &[Kernel],
    sources: &[&str],
    refs: &mut [Reference],
    tally: &mut Tally,
    t: &mut Tracer,
    request: u64,
) -> Result<Vec<CompileCounts>, String> {
    let mut all = Vec::with_capacity(kernels.len());
    for (key, (k, src)) in kernels.iter().zip(sources).enumerate() {
        let (counts, r) = compile::traced_setup(engine, src, k.arg, key, request, t, tally)?;
        refs[key].check(tally, k.name, &r);
        all.push(counts);
    }
    Ok(all)
}

/// Samples of one timed phase.
struct Timed {
    /// Per-kernel request latencies in microseconds.
    samples: Vec<Vec<f64>>,
    /// `(seconds since start, requests completed)` after each round.
    marks: Vec<(f64, u64)>,
    requests: u64,
}

/// The untraced closed loop: rounds of every kernel in a seeded
/// shuffled order, each `Instance::run` timed by the caller, until
/// `budget` has passed.
fn timed_rounds(
    kernels: &[Kernel],
    instances: &mut [Instance<'_>],
    refs: &mut [Reference],
    rng: &mut Rng,
    order: &mut [usize],
    budget: Duration,
    tally: &mut Tally,
) -> Timed {
    let mut samples = vec![Vec::new(); kernels.len()];
    let mut marks = Vec::new();
    let mut requests = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget {
        rng.shuffle(order);
        for &i in order.iter() {
            let t0 = Instant::now();
            let r = instances[i].run("main", &[kernels[i].arg]);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            samples[i].push(us);
            refs[i].check(tally, kernels[i].name, &r);
            requests += 1;
        }
        marks.push((start.elapsed().as_secs_f64(), requests));
    }
    Timed {
        samples,
        marks,
        requests,
    }
}

/// The traced loop. Each round first runs every kernel untraced, as the
/// untraced loop does, then again with each request as an explicit
/// `Instance::reset` and `Instance::run` under a request span, followed
/// by the same request on the uninstrumented baseline and on the
/// hash-table facility. Returns the untraced latencies, so the tracing
/// overhead compares requests made moments apart.
#[allow(clippy::too_many_arguments)]
fn traced_rounds(
    engine: &Engine,
    kernels: &[Kernel],
    sources: &[&str],
    baselines: &[Baseline],
    instances: &mut [Instance<'_>],
    refs: &mut [Reference],
    rng: &mut Rng,
    order: &mut [usize],
    budget: Duration,
    tally: &mut Tally,
    t: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<Vec<Vec<f64>>, String> {
    let hash_engine = engine.clone().facility(Facility::HashTable);
    let hash_programs: Vec<Program> = sources
        .iter()
        .map(|s| hash_engine.compile(s).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut hash_instances: Vec<Instance<'_>> = hash_programs
        .iter()
        .map(|p| hash_engine.instantiate(p))
        .collect();
    let mut base_machines: Vec<_> = baselines.iter().map(Baseline::machine).collect();
    let mut base_insts = BTreeMap::new();
    let mut live = vec![None; kernels.len()];
    let mut plain = vec![Vec::new(); kernels.len()];
    let mut request = 1u64 << 32;
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed() < budget && !t.nearly_full(8 * kernels.len()) {
        rng.shuffle(order);
        // Alternate which pass goes first, so neither always follows the
        // other lanes' cache footprint.
        let traced_first = !round.is_multiple_of(2);
        for traced in [traced_first, !traced_first] {
            for &i in order.iter() {
                let arg = [kernels[i].arg];
                let name = kernels[i].name;
                if !traced {
                    let t0 = Instant::now();
                    let r = instances[i].run("main", &arg);
                    plain[i].push(t0.elapsed().as_secs_f64() * 1e6);
                    refs[i].check(tally, name, &r);
                    continue;
                }
                let root = t.begin("request", i, request, None);
                t.span("engine.reset", i, request, Some(root), || {
                    instances[i].reset()
                });
                let r = t.span("engine.run", i, request, Some(root), || {
                    instances[i].run("main", &arg)
                });
                t.end(root);
                refs[i].check(tally, name, &r);
                // Metadata the run left live, before the next reset.
                let entries = instances[i].live_entries();
                let first = *live[i].get_or_insert(entries);
                tally.check(first == entries, || {
                    format!("{name}: live entries {entries} != {first}")
                });

                base_machines[i].reset();
                let b = t.span("interp.base", i, request, None, || {
                    base_machines[i].run_predecoded("main", &arg)
                });
                refs[i].check_result(tally, &format!("{name} baseline"), &b);
                base_insts.insert(i, b.stats.insts);

                hash_instances[i].reset();
                let h = t.span("softbound.hash_run", i, request, None, || {
                    hash_instances[i].run("main", &arg)
                });
                refs[i].check_result(tally, &format!("{name} hash table"), &h);
                request += 1;
            }
        }
        round += 1;
    }

    let names: Vec<&str> = kernels.iter().map(|k| k.name).collect();
    layers::lane_metrics(t, &base_insts, &names, metrics);
    let stats: Vec<&ExecStats> = refs.iter().filter_map(|r| r.stats.as_ref()).collect();
    layers::run_counts(&stats, metrics);
    metrics.insert(
        "metadata.live_entries".into(),
        live.iter().flatten().sum::<usize>() as f64,
    );
    Ok(plain)
}

/// Geometric mean over kernels of a per-kernel summary.
fn per_key_geomean(samples: &[Vec<f64>], f: impl Fn(&[f64]) -> Option<f64>) -> Option<f64> {
    let per_key: Option<Vec<f64>> = samples.iter().map(|v| f(v)).collect();
    geomean(&per_key?)
}
