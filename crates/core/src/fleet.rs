//! Fleet serving: a multi-threaded worker pool over one shared
//! [`Program`].
//!
//! The session API already splits compilation from execution; this
//! module adds the deployment shape the ROADMAP's daemon experiments
//! (§6.2's nhttpd-style servers) actually run under: **one compiled,
//! verified program, N worker threads, one persistent [`Instance`] per
//! worker**. The safety argument rides on two facts checked at compile
//! time in `engine.rs`:
//!
//! * `Program: Send + Sync` — every worker borrows the same verified
//!   module and its cached pre-decoded [`ExecModule`](sb_vm::ExecModule)
//!   by `&Program`; nothing is cloned per thread.
//! * `Instance: Send` — each worker owns exactly one monomorphized
//!   machine, created *inside* its thread, so all mutable state (program
//!   memory, shadow facility, frame pool) is thread-local by
//!   construction. No locks, no unsafe, no sharing of mutable state.
//!
//! Determinism is the contract that makes the pool testable: because
//! each request runs on a freshly-reset instance of the same program,
//! the [`Observation`] of request *i* is a pure function of its
//! argument — independent of which worker served it, what that worker
//! served before, or how the scheduler interleaved the pool. N workers
//! over one shared program must be bit-identical to N serial fresh
//! runs, and `tests/fleet_determinism.rs` pins exactly that across all
//! three metadata facilities and both execution lanes.
//!
//! The metadata reservation is shared when the engine is built with
//! [`Facility::ShadowShared`](crate::Facility::ShadowShared): every
//! worker reads through the one process-wide
//! [`SharedShadowReservation`](crate::SharedShadowReservation) (a 256 MiB
//! zero prototype) and owns only copy-on-first-touch directory chunks
//! plus its own pages — still lock-free, still `Instance: Send`, and
//! bit-identical to the private facilities (the determinism suite runs
//! the shared lane too). [`WorkerReport::reservation_bytes`] measures
//! each worker's standing cost and
//! [`WorkerReport::reservation_shared_bytes`] flags the process-shared
//! portion, so [`FleetReport::reservation_total_bytes`] can count the
//! shared directory once per pool instead of once per worker.

use crate::engine::{Engine, Instance, Program};
use crate::policy::EvidenceRecord;
use sb_vm::Outcome;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Everything observable about one run: outcome, captured output,
/// dynamic statistics, runtime counters, and the final-memory digest.
/// Two runs of the same program on the same argument must produce equal
/// observations no matter which machine — fresh, reused, or pooled —
/// served them; this is the unit of the fleet's determinism contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// How the run ended.
    pub outcome: Outcome,
    /// Captured `printf`/`puts` output.
    pub output: String,
    /// Dynamic IR instructions executed.
    pub insts: u64,
    /// Bounds checks executed.
    pub checks: u64,
    /// Cost-model cycles.
    pub cycles: u64,
    /// Runtime check counter after the run.
    pub check_count: u64,
    /// Runtime violation counter after the run.
    pub violation_count: u64,
    /// Digest of the final simulated memory image.
    pub mem_hash: u64,
    /// Evidence records drained from the instance after the run. Empty
    /// under [`ViolationPolicy::Strict`](crate::ViolationPolicy::Strict);
    /// under the continuing policies this is part of the determinism
    /// contract — pooled and serial runs must record identical evidence.
    pub evidence: Vec<EvidenceRecord>,
    /// Evidence records dropped by ring overflow during the run.
    pub evidence_overflow: u64,
}

/// Runs `entry(arg)` on `instance` and captures the full
/// [`Observation`]. This is the one code path both the serial oracle
/// and the pooled workers go through, so a divergence between them can
/// only come from the machines themselves — never from differing
/// measurement.
pub fn observe(instance: &mut Instance<'_>, entry: &str, arg: i64) -> Observation {
    let r = instance.run(entry, &[arg]);
    Observation {
        outcome: r.outcome,
        output: r.output,
        insts: r.stats.insts,
        checks: r.stats.checks,
        cycles: r.stats.cycles,
        check_count: instance.check_count(),
        violation_count: instance.violation_count(),
        mem_hash: instance.mem_content_hash(),
        // Draining keeps the overflow counter, so read it afterwards.
        evidence: instance.drain_evidence(),
        evidence_overflow: instance.evidence_overflow(),
    }
}

/// One served request: which position in the stream, which worker took
/// it, how long it took on the wall, and what the run observed.
#[derive(Debug, Clone)]
pub struct RequestResult {
    /// Position of this request in the input stream.
    pub index: usize,
    /// Worker that served it (informational — must not affect the
    /// observation).
    pub worker: usize,
    /// Wall-clock service latency in nanoseconds.
    pub latency_ns: u64,
    /// What the run observed.
    pub observation: Observation,
}

/// Per-worker aggregates over one [`serve`] call.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Worker id, `0..workers`.
    pub worker: usize,
    /// Requests this worker served.
    pub served: usize,
    /// Bounds checks executed across all its requests.
    pub checks: u64,
    /// Violations its runtime detected.
    pub violations: u64,
    /// Requests that ended in a trap.
    pub traps: u64,
    /// Evidence records its runtime collected across all its requests
    /// (always 0 under the default Strict policy).
    pub evidence: u64,
    /// Evidence records lost to ring overflow across all its requests.
    pub evidence_overflow: u64,
    /// Standing host-memory reservation of this worker's metadata
    /// facility once its stream drained and the instance reset — the
    /// idle cost a pool pays to keep this worker warm.
    pub reservation_bytes: usize,
    /// The portion of [`reservation_bytes`](Self::reservation_bytes)
    /// that is process-wide shared state (the shared shadow directory).
    /// 0 for the private facilities; equal across workers of a shared
    /// pool, and counted once — not per worker — by
    /// [`FleetReport::reservation_total_bytes`].
    pub reservation_shared_bytes: usize,
}

/// Aggregated outcome of one [`serve`] call.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Size of the pool.
    pub workers: usize,
    /// Every request's result, sorted by stream index — directly
    /// comparable against a serial run of the same stream.
    pub results: Vec<RequestResult>,
    /// Per-worker aggregates, sorted by worker id.
    pub per_worker: Vec<WorkerReport>,
    /// Wall time of the whole batch in nanoseconds.
    pub wall_ns: u64,
    /// Aggregate throughput (0.0 for an empty stream).
    pub reqs_per_sec: f64,
    /// Median service latency (nearest-rank).
    pub p50_ns: u64,
    /// 95th-percentile service latency (nearest-rank).
    pub p95_ns: u64,
    /// 99th-percentile service latency (nearest-rank).
    pub p99_ns: u64,
}

impl FleetReport {
    /// Total evidence records collected across the pool (0 under the
    /// default Strict policy, where violations trap instead of being
    /// recorded).
    pub fn evidence_total(&self) -> u64 {
        self.per_worker.iter().map(|w| w.evidence).sum()
    }

    /// Total evidence records lost to ring overflow across the pool.
    pub fn evidence_overflow_total(&self) -> u64 {
        self.per_worker.iter().map(|w| w.evidence_overflow).sum()
    }

    /// The process-shared portion of the pool's standing reservation —
    /// every worker reads through the same reservation, so the one copy
    /// is the max across workers, not their sum. 0 for private
    /// facilities.
    pub fn reservation_shared_bytes(&self) -> usize {
        self.per_worker
            .iter()
            .map(|w| w.reservation_shared_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Standing metadata reservation of the whole pool, counting
    /// process-shared state **once**: `shared + Σ per-worker private`.
    /// For the private facilities this equals the plain per-worker sum;
    /// for [`Facility::ShadowShared`](crate::Facility::ShadowShared) it
    /// is what the pool actually pins — a naive sum of
    /// [`WorkerReport::reservation_bytes`] would charge the one shared
    /// directory N times.
    pub fn reservation_total_bytes(&self) -> usize {
        self.reservation_shared_bytes()
            + self
                .per_worker
                .iter()
                .map(|w| w.reservation_bytes - w.reservation_shared_bytes)
                .sum::<usize>()
    }
}

/// Nearest-rank percentile over an ascending-sorted slice: the smallest
/// value such that at least `p`% of samples are ≤ it. 0 for no samples.
fn percentile(sorted_ns: &[u64], p: u32) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = (sorted_ns.len() as u64 * u64::from(p)).div_ceil(100);
    sorted_ns[(rank.max(1) - 1) as usize]
}

/// Serves `requests` — each an argument for `entry` — on a pool of
/// `workers` threads sharing `program`, and aggregates the results.
///
/// The calling thread serves as worker 0 and `workers - 1` scoped
/// threads serve the rest. Each worker instantiates its own machine
/// from the shared `&Program` on the thread that drives it and pulls
/// request indices off a shared atomic cursor until the stream is
/// drained (work-stealing by competition, so a slow request on one
/// worker never blocks the rest of the stream). Workers
/// reset between requests exactly as a serial loop would; the returned
/// [`FleetReport::results`] are sorted by stream index so callers can
/// compare them against a serial oracle element-by-element.
///
/// `workers == 0` is served as a pool of one.
pub fn serve(
    engine: &Engine,
    program: &Program,
    entry: &str,
    requests: &[i64],
    workers: usize,
) -> FleetReport {
    let workers = workers.max(1);
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();

    // One worker's whole stream: build its `Instance`, pull requests
    // until the cursor runs past the end, then report. Only `&Engine`,
    // `&Program`, `&AtomicUsize`, and `&[i64]` cross the thread boundary
    // — all `Sync`. Each worker builds its `Instance` on the thread that
    // drives it.
    let run_worker = |worker: usize| {
        let mut instance = engine.instantiate(program);
        let mut results = Vec::new();
        let mut report = WorkerReport {
            worker,
            served: 0,
            checks: 0,
            violations: 0,
            traps: 0,
            evidence: 0,
            evidence_overflow: 0,
            reservation_bytes: 0,
            reservation_shared_bytes: 0,
        };
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= requests.len() {
                break;
            }
            let t0 = Instant::now();
            let observation = observe(&mut instance, entry, requests[index]);
            let latency_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            report.served += 1;
            report.checks += observation.check_count;
            report.violations += observation.violation_count;
            report.traps += u64::from(matches!(observation.outcome, Outcome::Trapped(_)));
            report.evidence += observation.evidence.len() as u64;
            report.evidence_overflow += observation.evidence_overflow;
            results.push(RequestResult {
                index,
                worker,
                latency_ns,
                observation,
            });
        }
        // Reset before measuring: the report captures the *standing*
        // (idle) reservation a warm worker holds between streams, not
        // the last request's transient page footprint.
        instance.reset();
        report.reservation_bytes = instance.metadata_reservation_bytes();
        report.reservation_shared_bytes = instance.metadata_shared_reservation_bytes();
        (report, results)
    };

    // Workers 1.. get a scoped thread each; the caller serves as worker
    // 0, so a pool of one spawns nothing. Outputs come back in worker
    // order.
    let worker_outputs: Vec<(WorkerReport, Vec<RequestResult>)> = std::thread::scope(|scope| {
        let run_worker = &run_worker;
        let handles: Vec<_> = (1..workers)
            .map(|worker| scope.spawn(move || run_worker(worker)))
            .collect();
        let mut outputs = Vec::with_capacity(workers);
        outputs.push(run_worker(0));
        outputs.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("fleet worker panicked")),
        );
        outputs
    });
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let mut per_worker = Vec::with_capacity(workers);
    let mut results = Vec::with_capacity(requests.len());
    for (report, mut part) in worker_outputs {
        per_worker.push(report);
        results.append(&mut part);
    }
    results.sort_by_key(|r| r.index);

    let mut sorted_ns: Vec<u64> = results.iter().map(|r| r.latency_ns).collect();
    sorted_ns.sort_unstable();
    let reqs_per_sec = if results.is_empty() || wall_ns == 0 {
        0.0
    } else {
        results.len() as f64 / (wall_ns as f64 / 1e9)
    };
    FleetReport {
        workers,
        per_worker,
        wall_ns,
        reqs_per_sec,
        p50_ns: percentile(&sorted_ns, 50),
        p95_ns: percentile(&sorted_ns, 95),
        p99_ns: percentile(&sorted_ns, 99),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Facility;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 99), 0);
        // 3 samples: p50 → rank ceil(1.5)=2 → second value.
        assert_eq!(percentile(&[10, 20, 30], 50), 20);
        assert_eq!(percentile(&[10, 20, 30], 99), 30);
    }

    #[test]
    fn empty_stream_yields_empty_report() {
        let engine = Engine::new();
        let program = engine.compile("int main(int n) { return n; }").unwrap();
        let report = serve(&engine, &program, "main", &[], 4);
        assert_eq!(report.results.len(), 0);
        assert_eq!(report.reqs_per_sec, 0.0);
        assert_eq!(report.p99_ns, 0);
        assert_eq!(report.per_worker.len(), 4);
        assert!(report.per_worker.iter().all(|w| w.served == 0));
    }

    #[test]
    fn more_workers_than_requests_serves_every_request_once() {
        let engine = Engine::new();
        let program = engine.compile("int main(int n) { return n + 1; }").unwrap();
        let report = serve(&engine, &program, "main", &[10, 20], 8);
        assert_eq!(report.workers, 8);
        assert_eq!(report.results.len(), 2);
        for (i, expect) in [(0usize, 11i64), (1, 21)] {
            assert_eq!(report.results[i].index, i);
            assert_eq!(
                report.results[i].observation.outcome.clone(),
                Outcome::Finished { ret: expect }
            );
        }
        assert_eq!(report.per_worker.iter().map(|w| w.served).sum::<usize>(), 2);
    }

    #[test]
    fn zero_workers_is_served_as_one() {
        let engine = Engine::new();
        let program = engine.compile("int main(int n) { return n; }").unwrap();
        let report = serve(&engine, &program, "main", &[5], 0);
        assert_eq!(report.workers, 1);
        assert_eq!(report.results.len(), 1);
    }

    #[test]
    fn worker_reports_count_traps_and_measure_reservations() {
        let src = r#"
            int main(int n) {
                char buf[8];
                buf[n] = 1;
                return buf[0];
            }
        "#;
        let engine = Engine::new().facility(Facility::ShadowPaged);
        let program = engine.compile(src).unwrap();
        let requests = [0i64, 32, 0, 32, 0, 32];
        let report = serve(&engine, &program, "main", &requests, 2);
        let traps: u64 = report.per_worker.iter().map(|w| w.traps).sum();
        assert_eq!(traps, 3, "every out-of-bounds request must trap");
        // The paged shadow's standing reservation is dominated by its
        // 256 MiB directory; every worker pays it separately, and none
        // of it is shared.
        for w in &report.per_worker {
            assert!(
                w.reservation_bytes >= (1 << 28),
                "worker {} reservation {} below the directory floor",
                w.worker,
                w.reservation_bytes
            );
            assert_eq!(w.reservation_shared_bytes, 0);
        }
        assert_eq!(report.reservation_shared_bytes(), 0);
        assert_eq!(
            report.reservation_total_bytes(),
            report
                .per_worker
                .iter()
                .map(|w| w.reservation_bytes)
                .sum::<usize>(),
            "private pools: total is the plain per-worker sum"
        );
        // Strict pools never collect evidence — violations trap.
        assert_eq!(report.evidence_total(), 0);
        assert_eq!(report.evidence_overflow_total(), 0);
    }

    #[test]
    fn shared_pool_counts_the_directory_once() {
        let src = r#"
            int main(int n) {
                long* p = (long*)malloc(8 * sizeof(long));
                for (int i = 0; i < 8; i++) p[i] = n + i;
                long s = p[0] + p[7];
                free(p);
                return (int)s;
            }
        "#;
        let engine = Engine::new().facility(Facility::ShadowShared);
        let program = engine.compile(src).unwrap();
        let requests: Vec<i64> = (0..16).collect();
        let report = serve(&engine, &program, "main", &requests, 4);
        // The process-shared portion: the 256 MiB directory prototype
        // plus the frame pool at capacity.
        let shared_span =
            (1usize << 28) + crate::SharedShadowReservation::frame_pool_capacity_bytes();
        for w in &report.per_worker {
            assert_eq!(w.reservation_shared_bytes, shared_span);
            assert!(w.reservation_bytes >= shared_span);
        }
        assert_eq!(report.reservation_shared_bytes(), shared_span);
        let naive: usize = report.per_worker.iter().map(|w| w.reservation_bytes).sum();
        let total = report.reservation_total_bytes();
        assert_eq!(
            total,
            naive - 3 * shared_span,
            "the one shared reservation must be counted once, not 4 times"
        );
        // The pool's standing reservation stays close to a single
        // worker's: reset returned every frame to the shared pool, so
        // each idle worker privately owns only its chunk-root
        // bookkeeping (a few hundred KiB, not megabytes of frames).
        assert!(
            total < shared_span + (1 << 22),
            "4-worker shared pool pins {total} bytes"
        );
    }

    #[test]
    fn one_worker_shared_matches_one_worker_private() {
        // The 1-worker shared pool and the 1-worker private pool pay
        // comparable standing reservations: the same 256 MiB directory
        // span, plus — on the shared side only — the frame pool counted
        // at capacity and the worker's private copy-on-first-touch
        // overlay (its chunk root, plus any materialized chunks). The
        // private worker instead parks only the frames it actually
        // touched, so the shared figure sits at most one pool capacity
        // plus one overlay above it.
        let src = r#"
            int main(int n) {
                long* p = (long*)malloc(4 * sizeof(long));
                p[0] = n; p[3] = n + 3;
                long s = p[0] + p[3];
                free(p);
                return (int)s;
            }
        "#;
        let private_engine = Engine::new().facility(Facility::ShadowPaged);
        let shared_engine = Engine::new().facility(Facility::ShadowShared);
        let requests: Vec<i64> = (0..4).collect();
        let private_program = private_engine.compile(src).unwrap();
        let shared_program = shared_engine.compile(src).unwrap();
        let private = serve(&private_engine, &private_program, "main", &requests, 1)
            .reservation_total_bytes();
        let shared_report = serve(&shared_engine, &shared_program, "main", &requests, 1);
        let shared = shared_report.reservation_total_bytes();
        // Reset returned every frame to the pool, so the worker's
        // private portion is its overlay alone. The program stores no
        // pointer to memory, so no directory chunk materializes.
        let worker = &shared_report.per_worker[0];
        let overlay = worker.reservation_bytes - worker.reservation_shared_bytes;
        assert_eq!(overlay, crate::SharedShadowReservation::overlay_bytes(0));
        assert!(shared >= private, "both pools span the same directory");
        assert!(
            shared - private
                <= crate::SharedShadowReservation::frame_pool_capacity_bytes() + overlay,
            "1-worker shared ({shared}) should be within one pool capacity plus one \
             overlay ({overlay}) of private ({private})"
        );
    }

    #[test]
    fn hardened_pool_neutralizes_overflows_and_aggregates_evidence() {
        let src = r#"
            int main(int n) {
                char buf[8];
                buf[n] = 1;
                return buf[0];
            }
        "#;
        let engine = Engine::new().policy(crate::ViolationPolicy::Hardened);
        let program = engine.compile(src).unwrap();
        let requests = [0i64, 32, 0, 32, 0, 32];
        let report = serve(&engine, &program, "main", &requests, 2);
        let traps: u64 = report.per_worker.iter().map(|w| w.traps).sum();
        assert_eq!(traps, 0, "hardened pools clamp instead of trapping");
        assert_eq!(
            report.evidence_total(),
            3,
            "one evidence record per out-of-bounds request"
        );
        assert_eq!(report.evidence_overflow_total(), 0);
        for r in &report.results {
            assert!(matches!(r.observation.outcome, Outcome::Finished { .. }));
            let oob = requests[r.index] == 32;
            assert_eq!(r.observation.evidence.len(), usize::from(oob));
            if oob {
                let ev = r.observation.evidence[0];
                assert!(ev.write, "the probe is a clamped store");
                assert_eq!(ev.fault_addr, ev.ptr, "store lands past the bound");
            }
        }
    }
}
