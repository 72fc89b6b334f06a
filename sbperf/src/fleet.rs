//! The `nhttpd-fleet` and `mixed-hardened-hash` workloads: one
//! closed-loop caller sends batches of a seeded request stream to
//! `fleet::serve` on a pool of two workers, and waits for each batch.

use crate::compile::{self, Baseline};
use crate::layers;
use crate::stats::{median, quantile, window_rates, windowed_tail, TAIL_WINDOW, TYPICAL_Q};
use crate::trace::Tracer;
use crate::{host, Metrics, Opts, Tally, WorkloadResult};
use sb_vm::{ExecStats, Outcome};
use softbound::fleet::{self, Observation};
use softbound::{Engine, Facility, Program, ViolationPolicy};
use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::time::{Duration, Instant};

/// A served program, its deployment configuration and its traffic.
pub struct FleetWorkload {
    /// Program name, for notes and trace keys.
    pub program: &'static str,
    /// Metadata facility.
    pub facility: Facility,
    /// Violation policy.
    pub policy: ViolationPolicy,
    /// The request stream of `n` requests for a seed.
    pub stream: fn(usize, u64) -> Vec<i64>,
    /// Every argument the stream can contain.
    pub args: RangeInclusive<i64>,
    /// Largest argument that is in bounds; larger ones overflow.
    pub safe_max: i64,
}

/// The nhttpd daemon over connection batches, on the shared shadow
/// reservation: the deployment shape.
pub const NHTTPD_FLEET: FleetWorkload = FleetWorkload {
    program: "nhttpd",
    facility: Facility::ShadowShared,
    policy: ViolationPolicy::Strict,
    stream: sb_workloads::nhttpd_batches,
    args: 1..=4,
    safe_max: 4,
};

/// The mixed handler with every fourth request oversized, on the hash
/// table under the Hardened policy: the only workload that runs the
/// hash-table facility and the repair/evidence path.
pub const MIXED_HARDENED_HASH: FleetWorkload = FleetWorkload {
    program: "mixed_handler",
    facility: Facility::HashTable,
    policy: ViolationPolicy::Hardened,
    stream: mixed_every_fourth,
    args: 0..=48,
    safe_max: 16,
};

fn mixed_every_fourth(n: usize, seed: u64) -> Vec<i64> {
    sb_workloads::mixed_traffic(n, 4, seed)
}

/// Worker threads in the pool (the host has two cores).
const WORKERS: usize = 2;
/// Requests per `fleet::serve` call.
const BATCH: usize = 32;
/// Length of the seeded stream; batches cycle through it.
const STREAM_LEN: usize = 64 * BATCH;
/// Cold set-ups before and again after the timed phase; `setup_s` is
/// the median of all of them.
const SETUP_REPS: usize = 25;
/// Batches run before timing starts.
const WARM_BATCHES: usize = 4;
/// Target wall time of one `req_per_s` window.
const WINDOW_SECS: f64 = 0.5;
/// Trace key of whole-batch spans (serial-lane spans key by argument).
const BATCH_KEY: usize = usize::MAX;
/// Requests of each traced batch replayed on the serial lanes.
const SERIAL_PER_BATCH: usize = 2;

impl FleetWorkload {
    fn source(&self) -> Result<&'static str, String> {
        match self.program {
            "mixed_handler" => Ok(sb_workloads::MIXED_HANDLER),
            name => sb_workloads::daemons::all()
                .into_iter()
                .find(|d| d.name == name)
                .map(|d| d.source)
                .ok_or_else(|| format!("no daemon named {name}")),
        }
    }

    fn engine(&self) -> Engine {
        Engine::new().facility(self.facility).policy(self.policy)
    }

    fn key(&self, arg: i64) -> usize {
        (arg - self.args.start()) as usize
    }
}

/// Correct observations per request argument.
struct References {
    /// Serial fresh-`Instance` observation of each argument.
    by_arg: BTreeMap<i64, Observation>,
    /// Uninstrumented outcome and output of each in-bounds argument.
    base: BTreeMap<i64, (Outcome, String)>,
    /// Dynamic statistics and live metadata entries after the run, from
    /// one reused instance.
    stats: BTreeMap<i64, (ExecStats, usize)>,
}

impl References {
    /// Computes and validates the reference of every argument: an
    /// in-bounds request must match the uninstrumented run; an
    /// oversized one must finish with at least one evidence record.
    fn new(
        w: &FleetWorkload,
        engine: &Engine,
        program: &Program,
        baseline: &Baseline,
        tally: &mut Tally,
    ) -> Self {
        let mut by_arg = BTreeMap::new();
        let mut base = BTreeMap::new();
        let mut stats = BTreeMap::new();
        let mut reused = engine.instantiate(program);
        for arg in w.args.clone() {
            let obs = fleet::observe(&mut engine.instantiate(program), "main", arg);
            let r = reused.run("main", &[arg]);
            tally.check(
                r.outcome == obs.outcome
                    && (r.stats.insts, r.stats.checks, r.stats.cycles)
                        == (obs.insts, obs.checks, obs.cycles),
                || {
                    format!(
                        "{} {arg}: reused instance differs from a fresh one",
                        w.program
                    )
                },
            );
            stats.insert(arg, (r.stats, reused.live_entries()));
            if arg <= w.safe_max {
                let b = baseline.run(&[arg]);
                tally.check(obs.outcome == b.outcome && obs.output == b.output, || {
                    format!(
                        "{} {arg}: {:?}, uninstrumented {:?}",
                        w.program, obs.outcome, b.outcome
                    )
                });
                base.insert(arg, (b.outcome, b.output));
            } else {
                tally.check(
                    !matches!(obs.outcome, Outcome::Trapped(_)) && !obs.evidence.is_empty(),
                    || {
                        format!(
                            "{} {arg}: {:?} with {} evidence records",
                            w.program,
                            obs.outcome,
                            obs.evidence.len()
                        )
                    },
                );
            }
            by_arg.insert(arg, obs);
        }
        References {
            by_arg,
            base,
            stats,
        }
    }

    /// Checks every request of a served batch against its reference.
    fn check_batch(&self, tally: &mut Tally, batch: &[i64], report: &fleet::FleetReport) {
        tally.check(report.results.len() == batch.len(), || {
            format!(
                "served {} of {} requests",
                report.results.len(),
                batch.len()
            )
        });
        for r in &report.results {
            let arg = batch[r.index];
            tally.check(self.by_arg.get(&arg) == Some(&r.observation), || {
                format!(
                    "request {arg}: {:?} differs from its serial reference",
                    r.observation.outcome
                )
            });
        }
    }
}

/// Runs a fleet workload.
pub fn run(w: &FleetWorkload, opts: &Opts, tally: &mut Tally) -> Result<WorkloadResult, String> {
    let source = w.source()?;
    let engine = w.engine();
    let stream = (w.stream)(STREAM_LEN, opts.seed);
    let program = engine.compile(source).map_err(|e| e.to_string())?;
    let baseline = Baseline::new(source)?;
    let refs = References::new(w, &engine, &program, &baseline, tally);
    let mut notes = vec![format!(
        "{}: {:?}, {:?}, {WORKERS} workers, batches of {BATCH} from a {STREAM_LEN}-request stream",
        w.program, w.facility, w.policy
    )];
    let mut metrics = Metrics::new();
    let batch_at = |b: usize| -> &[i64] {
        let start = (b * BATCH) % STREAM_LEN;
        &stream[start..start + BATCH]
    };

    let mut tracer = opts.trace.then(|| Tracer::with_capacity(1 << 20));
    let mut setup_s = Vec::new();
    let mut counts = Vec::new();
    for rep in 0..SETUP_REPS {
        match tracer.as_mut() {
            None => setup_s.push(cold_setup(&engine, source, &stream[..1], &refs, tally)?),
            Some(t) => {
                let first = stream[0];
                let (c, r) = compile::traced_setup(
                    &engine,
                    source,
                    first,
                    w.key(first),
                    rep as u64,
                    t,
                    tally,
                )?;
                let want = &refs.by_arg[&first];
                tally.check(r.outcome == want.outcome && r.output == want.output, || {
                    format!(
                        "cold request {first}: {:?} (want {:?})",
                        r.outcome, want.outcome
                    )
                });
                if rep == 0 {
                    counts = vec![c];
                } else {
                    tally.check(counts == [c], || {
                        "compile counts differ between set-ups".into()
                    });
                }
            }
        }
    }

    let warm_start = Instant::now();
    for b in 0..WARM_BATCHES {
        let report = fleet::serve(&engine, &program, "main", batch_at(b), WORKERS);
        refs.check_batch(tally, batch_at(b), &report);
    }
    let batch_secs = warm_start.elapsed().as_secs_f64() / WARM_BATCHES as f64;
    let batches_per_window = ((WINDOW_SECS / batch_secs).round() as usize).max(1);

    if let Some(mut t) = tracer.take() {
        let budget = Duration::from_secs_f64(opts.seconds);
        let plain = traced_batches(
            w,
            &engine,
            &program,
            &baseline,
            &refs,
            &batch_at,
            budget,
            tally,
            &mut t,
            &mut metrics,
        )?;
        let serve_us: Vec<f64> = t
            .durations_us("fleet.serve")
            .into_values()
            .flatten()
            .collect();
        if let (Some(a), Some(b)) = (median(&plain), median(&serve_us)) {
            metrics.insert("trace.overhead_pct".into(), (b / a - 1.0) * 100.0);
        }
        layers::setup_metrics(&t, &counts, &mut metrics);
        let names: Vec<String> = w
            .args
            .clone()
            .map(|a| format!("{}({a})", w.program))
            .collect();
        notes.push(layers::write_trace(&t, &opts.workload, opts.seed, &names)?);
    } else {
        let peak_reset = host::reset_peak_rss();
        let run = timed_batches(
            &engine,
            &program,
            &refs,
            &batch_at,
            Duration::from_secs_f64(opts.seconds),
            tally,
        );
        let peak_rss = host::peak_rss_mib();
        for _ in 0..SETUP_REPS {
            setup_s.push(cold_setup(&engine, source, &stream[..1], &refs, tally)?);
        }
        let rates = window_rates(&run.marks, batches_per_window);
        let values = [
            ("setup_s", median(&setup_s)),
            ("latency_us.p75", quantile(&run.samples, TYPICAL_Q)),
            ("latency_us.tail", windowed_tail(&run.samples, TAIL_WINDOW)),
            ("req_per_s", quantile(&rates, 1.0 - TYPICAL_Q)),
            (
                "reserved_mib",
                Some(run.last_reservation_bytes as f64 / f64::from(1 << 20)),
            ),
            ("peak_rss_mib", peak_rss),
        ];
        for (name, value) in values {
            if let Some(v) = value {
                metrics.insert(name.into(), v);
            }
        }
        notes.push(format!(
            "{} batches ({} requests); {} rate windows of {batches_per_window} batches; \
             {} set-ups; p50 {:.1} us; peak-RSS reset {}",
            run.samples.len(),
            run.samples.len() * BATCH,
            rates.len(),
            setup_s.len(),
            median(&run.samples).unwrap_or(0.0),
            if peak_reset { "ok" } else { "unsupported" }
        ));
    }
    Ok(WorkloadResult { metrics, notes })
}

/// One cold set-up, timed from source text to the first completed
/// request: `Engine::compile`, then a one-request `fleet::serve` (which
/// instantiates every worker).
fn cold_setup(
    engine: &Engine,
    source: &str,
    first: &[i64],
    refs: &References,
    tally: &mut Tally,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let program = engine.compile(source).map_err(|e| e.to_string())?;
    let report = fleet::serve(engine, &program, "main", first, WORKERS);
    let secs = t0.elapsed().as_secs_f64();
    refs.check_batch(tally, first, &report);
    Ok(secs)
}

/// Samples of one timed phase.
struct Timed {
    /// Batch latencies in microseconds.
    samples: Vec<f64>,
    /// `(seconds since start, requests completed)` after each batch.
    marks: Vec<(f64, u64)>,
    /// Standing reservation reported by the last batch.
    last_reservation_bytes: usize,
}

/// The untraced closed loop: one `fleet::serve` call per batch, timed
/// by the caller, until `budget` has passed.
fn timed_batches<'s>(
    engine: &Engine,
    program: &Program,
    refs: &References,
    batch_at: &impl Fn(usize) -> &'s [i64],
    budget: Duration,
    tally: &mut Tally,
) -> Timed {
    let mut timed = Timed {
        samples: Vec::new(),
        marks: Vec::new(),
        last_reservation_bytes: 0,
    };
    let mut requests = 0u64;
    let start = Instant::now();
    let mut b = 0;
    while start.elapsed() < budget {
        let batch = batch_at(b);
        let t0 = Instant::now();
        let report = fleet::serve(engine, program, "main", batch, WORKERS);
        timed.samples.push(t0.elapsed().as_secs_f64() * 1e6);
        requests += batch.len() as u64;
        timed.marks.push((start.elapsed().as_secs_f64(), requests));
        refs.check_batch(tally, batch, &report);
        timed.last_reservation_bytes = report.reservation_total_bytes();
        b += 1;
    }
    timed
}

/// The traced loop. Each batch is served once untraced, as the untraced
/// loop does, and once under a `fleet.serve` span; then a few of its
/// requests are replayed on serial lanes, split into the public calls a
/// worker makes per request (reset, run, memory hash, evidence drain),
/// plus the uninstrumented baseline and the hash-table facility.
/// Returns the untraced batch latencies, so the tracing overhead
/// compares batches served moments apart.
#[allow(clippy::too_many_arguments)]
fn traced_batches<'s>(
    w: &FleetWorkload,
    engine: &Engine,
    program: &Program,
    baseline: &Baseline,
    refs: &References,
    batch_at: &impl Fn(usize) -> &'s [i64],
    budget: Duration,
    tally: &mut Tally,
    t: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<Vec<f64>, String> {
    let hash_engine = engine.clone().facility(Facility::HashTable);
    let hash_program = hash_engine
        .compile(w.source()?)
        .map_err(|e| e.to_string())?;
    let mut hash_inst = hash_engine.instantiate(&hash_program);
    let mut serial = engine.instantiate(program);
    let mut base = baseline.machine();
    let mut base_insts = BTreeMap::new();
    let (mut request_ns, mut requests, mut evidence, mut violations) =
        (Vec::new(), 0u64, 0u64, 0u64);
    let mut plain = Vec::new();
    let start = Instant::now();
    let mut b = 0usize;
    while start.elapsed() < budget && !t.nearly_full(16) {
        let batch = batch_at(b);
        let id = (b as u64) << 8;
        // Alternate which serve goes first, so neither always follows
        // the serial lanes' cache footprint.
        let traced_first = !b.is_multiple_of(2);
        for traced in [traced_first, !traced_first] {
            if !traced {
                let t0 = Instant::now();
                let report = fleet::serve(engine, program, "main", batch, WORKERS);
                plain.push(t0.elapsed().as_secs_f64() * 1e6);
                refs.check_batch(tally, batch, &report);
                continue;
            }
            let report = t.span("fleet.serve", BATCH_KEY, id, None, || {
                fleet::serve(engine, program, "main", batch, WORKERS)
            });
            refs.check_batch(tally, batch, &report);
            for r in &report.results {
                request_ns.push(r.latency_ns as f64);
                evidence += r.observation.evidence.len() as u64;
                violations += r.observation.violation_count;
                requests += 1;
            }
        }

        for j in 0..SERIAL_PER_BATCH {
            let arg = batch[(b * SERIAL_PER_BATCH + j) % BATCH];
            let key = w.key(arg);
            let req = id + 1 + j as u64;
            let want = &refs.by_arg[&arg];
            let root = t.begin("request", key, req, None);
            t.span("engine.reset", key, req, Some(root), || serial.reset());
            let r = t.span("engine.run", key, req, Some(root), || {
                serial.run("main", &[arg])
            });
            let hash = t.span("fleet.hash", key, req, Some(root), || {
                serial.mem_content_hash()
            });
            let ev = t.span("fleet.drain", key, req, Some(root), || {
                serial.drain_evidence()
            });
            t.end(root);
            let (want_stats, want_live) = &refs.stats[&arg];
            tally.check(
                r.outcome == want.outcome
                    && r.output == want.output
                    && hash == want.mem_hash
                    && ev == want.evidence
                    && r.stats == *want_stats
                    && serial.live_entries() == *want_live,
                || {
                    format!(
                        "serial request {arg}: {:?} differs from its reference",
                        r.outcome
                    )
                },
            );

            // Overhead lanes: in-bounds requests only, where the
            // uninstrumented run is a correct run of the same request.
            if let Some((outcome, output)) = refs.base.get(&arg) {
                base.reset();
                let br = t.span("interp.base", key, req, None, || {
                    base.run_predecoded("main", &[arg])
                });
                tally.check(br.outcome == *outcome && br.output == *output, || {
                    format!("baseline request {arg}: {:?}", br.outcome)
                });
                base_insts.insert(key, br.stats.insts);
                hash_inst.reset();
                let hr = t.span("softbound.hash_run", key, req, None, || {
                    hash_inst.run("main", &[arg])
                });
                tally.check(hr.outcome == *outcome && hr.output == *output, || {
                    format!("hash-table request {arg}: {:?}", hr.outcome)
                });
            }
        }
        b += 1;
    }

    layers::lane_metrics(t, &base_insts, &[], metrics);
    request_ns.sort_by(f64::total_cmp);
    if let Some(p50) = median(&request_ns) {
        metrics.insert("fleet.request_us.p50".into(), p50 / 1e3);
        let rank = (request_ns.len() * 99).div_ceil(100).max(1) - 1;
        metrics.insert("fleet.request_us.p99".into(), request_ns[rank] / 1e3);
    }
    let all_us =
        |name: &str| -> Vec<f64> { t.durations_us(name).into_values().flatten().collect() };
    for (span, metric) in [
        ("fleet.hash", "fleet.hash_us"),
        ("fleet.drain", "fleet.drain_us"),
    ] {
        if let Some(m) = median(&all_us(span)) {
            metrics.insert(metric.into(), m);
        }
    }
    let per_req = |n: u64| n as f64 / requests.max(1) as f64;
    metrics.insert("policy.evidence_per_req".into(), per_req(evidence));
    metrics.insert("policy.violations_per_req".into(), per_req(violations));
    // Per-request counts, summed over every argument the stream can hold.
    let stats: Vec<&ExecStats> = refs.stats.values().map(|(s, _)| s).collect();
    layers::run_counts(&stats, metrics);
    let live: usize = refs.stats.values().map(|(_, live)| live).sum();
    metrics.insert("metadata.live_entries".into(), live as f64);
    Ok(plain)
}
