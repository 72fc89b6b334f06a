//! The compile pipeline as the benchmark drives it: the uninstrumented
//! baseline build, and the traced phase-by-phase build that must
//! reproduce `Engine::compile`.

use crate::trace::{SpanId, Tracer};
use crate::Tally;
use sb_ir::{Module, OptLevel, PassStats};
use sb_vm::{ExecModule, Machine, NoRuntime, RunResult};
use softbound::{Engine, Program, SoftBoundConfig, ViolationPolicy};

/// A program built without SoftBound: the same frontend, lowering and
/// pre-instrument optimization as `Engine::compile`, lowered to the
/// same pre-decoded execution IR, run by an uninstrumented machine.
pub struct Baseline {
    module: Module,
    exec: ExecModule,
}

impl Baseline {
    /// Builds the uninstrumented program.
    pub fn new(source: &str) -> Result<Self, String> {
        let hir = sb_cir::compile(source).map_err(|e| format!("frontend: {e}"))?;
        let mut module = sb_ir::lower(&hir, "program");
        sb_ir::optimize(&mut module, OptLevel::PreInstrument);
        let exec = ExecModule::lower(&module);
        Ok(Baseline { module, exec })
    }

    /// A machine over the baseline on the pre-decoded lane. Call
    /// `reset` on it between runs.
    pub fn machine(&self) -> Machine<'_, NoRuntime> {
        let mut m = Machine::uninstrumented(&self.module);
        m.attach_exec(&self.exec);
        m
    }

    /// One run on a fresh machine.
    pub fn run(&self, args: &[i64]) -> RunResult {
        self.machine().run_predecoded("main", args)
    }
}

/// Static counts of one compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileCounts {
    /// Post-instrument optimizer statistics.
    pub stats: PassStats,
    /// Pre-decoded ops across the module.
    pub exec_ops: usize,
    /// Check+access pairs fused into superinstructions.
    pub fused_checks: u64,
}

impl CompileCounts {
    /// The counts `Engine::compile` produced.
    pub fn of(program: &Program) -> Self {
        CompileCounts {
            stats: program.stats(),
            exec_ops: program.exec().op_count(),
            fused_checks: program.exec().fused_checks,
        }
    }
}

/// Span names of the compile phases, in pipeline order.
pub const PHASES: [&str; 7] = [
    "compile.frontend",
    "compile.lower",
    "compile.opt_pre",
    "compile.instrument",
    "compile.opt_post",
    "compile.verify",
    "compile.exec_lower",
];

/// Runs `Engine::compile`'s phase sequence one public call at a time,
/// each inside a span under `parent`, and returns the static counts.
/// The caller checks them against [`CompileCounts::of`] the engine's
/// own program: a mismatch means the sequence no longer matches the
/// engine, and the per-phase times would describe another pipeline.
fn traced_compile(
    source: &str,
    cfg: &SoftBoundConfig,
    tracer: &mut Tracer,
    key: usize,
    request: u64,
    parent: SpanId,
) -> Result<CompileCounts, String> {
    let p = Some(parent);
    let hir = tracer
        .span(PHASES[0], key, request, p, || sb_cir::compile(source))
        .map_err(|e| format!("frontend: {e}"))?;
    let mut module = tracer.span(PHASES[1], key, request, p, || sb_ir::lower(&hir, "program"));
    tracer.span(PHASES[2], key, request, p, || {
        sb_ir::optimize(&mut module, OptLevel::PreInstrument)
    });
    let mut module = tracer.span(PHASES[3], key, request, p, || {
        softbound::instrument(&module, cfg)
    });
    let post = if cfg.policy == ViolationPolicy::Strict {
        OptLevel::PostInstrument
    } else {
        OptLevel::PostInstrumentAllChecks
    };
    let stats = tracer.span(PHASES[4], key, request, p, || {
        sb_ir::optimize_with_stats(&mut module, post)
    });
    tracer
        .span(PHASES[5], key, request, p, || sb_ir::verify(&module))
        .map_err(|e| format!("verify: {e}"))?;
    let exec = tracer.span(PHASES[6], key, request, p, || ExecModule::lower(&module));
    Ok(CompileCounts {
        stats,
        exec_ops: exec.op_count(),
        fused_checks: exec.fused_checks,
    })
}

/// One traced cold set-up of one program under a `setup` span: the
/// compile phases one public call at a time, `Engine::compile` (whose
/// counts the phases must reproduce, or the operation fails), then
/// `Engine::instantiate` and the cold first `Instance::run(arg)`.
/// Returns the engine's counts and the cold run for the caller to check.
pub fn traced_setup(
    engine: &Engine,
    source: &str,
    arg: i64,
    key: usize,
    request: u64,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<(CompileCounts, RunResult), String> {
    let root = t.begin("setup", key, request, None);
    let counts = traced_compile(source, engine.config(), t, key, request, root)?;
    let program = t
        .span("engine.compile", key, request, Some(root), || {
            engine.compile(source)
        })
        .map_err(|e| e.to_string())?;
    let engine_counts = CompileCounts::of(&program);
    tally.check(counts == engine_counts, || {
        format!("traced compile {counts:?} != Engine::compile {engine_counts:?}")
    });
    let mut inst = t.span("engine.instantiate", key, request, Some(root), || {
        engine.instantiate(&program)
    });
    let r = t.span("engine.cold_run", key, request, Some(root), || {
        inst.run("main", &[arg])
    });
    t.end(root);
    Ok((engine_counts, r))
}
