//! The checker driver: the checker registry and run configuration, plus the
//! per-function and per-component passes the executor in [`crate::query`]
//! schedules. [`Driver::pool_map`] fans work out over a worker pool and
//! merges results in index order, so parallel and sequential runs are
//! byte-identical.
//!
//! A `Driver` is configuration only: it runs metal programs through their
//! compiled decision programs and has no engine switch, so
//! [`Driver::suite_key`] folds no engine name. The reference semantics,
//! `mc_metal`'s interpreter, is held byte-identical to the compiled path by
//! tests that register it as an ordinary [`Checker`]; the reference for
//! incremental runs is a cold run of a fresh [`CheckEngine::in_memory`].
//!
//! Whole-program ("global") passes run once per *call-graph component*: the
//! units of a program are partitioned by who-calls-whom (see
//! [`call_components`]), and each [`Checker::check_program`] invocation sees
//! one component. Components are the unit of invalidation for the
//! incremental engine — a global pass only re-runs when a unit in its
//! component changed.

use crate::query::CheckEngine;
use crate::report::Report;
use crate::sched::SchedStats;
use crate::summaries::Summaries;
use mc_ast::{Fnv1a, Function, ParseError, TranslationUnit};
use mc_cfg::{
    feasibility_stats, run_traversal_with, Cfg, FnSummary, Mode, SummaryLookup, Traversal,
};
use mc_metal::{
    CompileError, CompiledMachine, CompiledProgram, MetalParseError, MetalProgram, MetalReport,
};
use std::any::Any;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An error from driving a check run.
#[derive(Debug)]
pub enum DriverError {
    /// A source file failed to parse.
    Parse(ParseError),
    /// A metal program failed to parse.
    Metal(MetalParseError),
    /// A metal program parsed but could not be lowered to a decision
    /// program (structurally impossible patterns, e.g. too many wildcards).
    MetalCompile(CompileError),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Parse(e) => write!(f, "{e}"),
            DriverError::Metal(e) => write!(f, "{e}"),
            DriverError::MetalCompile(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<ParseError> for DriverError {
    fn from(e: ParseError) -> Self {
        DriverError::Parse(e)
    }
}

impl From<MetalParseError> for DriverError {
    fn from(e: MetalParseError) -> Self {
        DriverError::Metal(e)
    }
}

impl From<CompileError> for DriverError {
    fn from(e: CompileError) -> Self {
        DriverError::MetalCompile(e)
    }
}

/// A parsed translation unit plus the control-flow graph of every function
/// in it.
///
/// Building the CFG is the most expensive per-function step, and before
/// this cache existed it happened once in the driver and again in every
/// consumer that wanted path statistics. A `CheckedUnit` is built once per
/// parse and shared by the check pass, the summary engine, the global
/// emit/link pass, and the benchmark harness.
#[derive(Debug)]
pub struct CheckedUnit {
    /// The parsed unit.
    pub unit: TranslationUnit,
    /// One CFG per function definition, in `unit.functions()` order.
    pub cfgs: Vec<Cfg>,
    /// Lazily-computed per-function fingerprints, in definition order
    /// (the engine's parse query computes them on the worker that parsed
    /// the unit).
    fn_fps: OnceLock<Vec<mc_ast::FnFingerprint>>,
    /// Lazily-computed per-function callee-name lists, in definition
    /// order (what [`mc_cfg::collect_calls`] returns for each function).
    fn_calls: OnceLock<Vec<Vec<String>>>,
    /// Lazily-computed unit environment hash: non-function items plus the
    /// unit's written-global set (see [`CheckedUnit::env_fp`]).
    env_fp: OnceLock<u64>,
    /// Lazily-computed sorted identifiers assigned or address-taken in any
    /// body of the unit.
    written: OnceLock<Vec<String>>,
}

impl CheckedUnit {
    /// Builds the CFG of every function in `unit`.
    pub fn new(unit: TranslationUnit) -> CheckedUnit {
        let cfgs = unit.functions().map(Cfg::build).collect();
        CheckedUnit {
            unit,
            cfgs,
            fn_fps: OnceLock::new(),
            fn_calls: OnceLock::new(),
            env_fp: OnceLock::new(),
            written: OnceLock::new(),
        }
    }

    /// Iterates `(function, cfg)` pairs in definition order.
    pub fn functions(&self) -> impl Iterator<Item = (&Function, &Cfg)> {
        self.unit.functions().zip(self.cfgs.iter())
    }

    /// Per-function fingerprints, in definition order (computed once per
    /// parse and shared for the unit's memo lifetime).
    pub fn fn_fingerprints(&self) -> &[mc_ast::FnFingerprint] {
        self.fn_fps.get_or_init(|| {
            self.unit
                .functions()
                .map(mc_ast::Fingerprint::of_function)
                .collect()
        })
    }

    /// Per-function callee-name lists (sorted, deduplicated), in definition
    /// order.
    pub fn fn_call_names(&self) -> &[Vec<String>] {
        self.fn_calls
            .get_or_init(|| self.unit.functions().map(mc_cfg::collect_calls).collect())
    }

    /// The unit's [`CallInfo`], derived from [`CheckedUnit::fn_call_names`].
    pub fn call_info(&self) -> CallInfo {
        let mut calls: Vec<String> = self.fn_call_names().concat();
        calls.sort_unstable();
        calls.dedup();
        CallInfo {
            defines: self.unit.functions().map(|f| f.name.clone()).collect(),
            calls,
        }
    }

    /// The unit's *environment* hash: everything outside function bodies
    /// that can influence a single function's checks — preprocessor lines
    /// and non-function items ([`mc_ast::Fingerprint::of_unit_env`]) plus
    /// the unit-wide set of identifiers assigned or address-taken in any
    /// body (witness refutation treats written globals as non-constants,
    /// so one function starting to write a global can flip verdicts in
    /// every other function of the unit).
    pub fn env_fp(&self) -> u64 {
        *self.env_fp.get_or_init(|| {
            let mut h = Fnv1a::new();
            h.write_u64(mc_ast::Fingerprint::of_unit_env(&self.unit));
            for name in self.written_globals() {
                h.write_str(name);
            }
            h.finish()
        })
    }

    /// The sorted identifiers assigned or address-taken in any body of the
    /// unit: the globals witness refutation must not treat as constants.
    pub(crate) fn written_globals(&self) -> &[String] {
        self.written
            .get_or_init(|| crate::refute::written_globals(&self.unit))
    }
}

/// Everything a per-function checker may inspect.
#[derive(Debug, Clone, Copy)]
pub struct FunctionContext<'a> {
    /// File the function is defined in.
    pub file: &'a str,
    /// The whole translation unit (for prototypes, globals, structs).
    pub unit: &'a TranslationUnit,
    /// The function being checked.
    pub function: &'a Function,
    /// Its control-flow graph.
    pub cfg: &'a Cfg,
    /// The traversal settings (mode and feasibility pruning) the driver was
    /// configured with; path-sensitive checkers should honor these instead
    /// of hard-coding a mode.
    pub traversal: Traversal,
    /// The function-summary store, when available.
    ///
    /// `Some` in two situations: during a normal check run with
    /// interprocedural analysis enabled ([`Driver::interproc`]), and while
    /// the summary engine is summarizing this very function (then it holds
    /// the partially-built store, with every callee below this function in
    /// bottom-up order already present). `None` means calls are opaque —
    /// the pre-summary behavior.
    pub summaries: Option<&'a Summaries>,
}

/// Everything a whole-program checker may inspect, after all per-function
/// passes ran.
///
/// A program pass sees one *call-graph component* at a time (see
/// [`call_components`]): `units` holds the member units of that component,
/// in input order. Code that never calls across a unit boundary therefore
/// sees one unit per pass; tightly-coupled protocol handlers see all of
/// their units together.
#[derive(Debug, Clone, Copy)]
pub struct ProgramContext<'a> {
    /// The checked units of this call-graph component, in input order.
    pub units: &'a [&'a CheckedUnit],
    /// The function-summary store for this component, present whenever any
    /// registered checker declares [`Checker::needs_summaries`] (the lane
    /// checker always does) or interprocedural analysis is enabled.
    pub summaries: Option<&'a Summaries>,
}

impl ProgramContext<'_> {
    /// Iterates over every function definition in the component with its
    /// file.
    pub fn functions(&self) -> impl Iterator<Item = (&str, &Function)> {
        self.units
            .iter()
            .flat_map(|u| u.unit.functions().map(move |f| (u.unit.file.as_str(), f)))
    }
}

/// A piece of per-function state emitted by a checker's function pass for
/// its whole-program pass (the "emit" half of the paper's emit-and-link
/// global framework).
pub type Fact = Box<dyn Any + Send + Sync>;

/// The accumulator handed to per-function hooks.
///
/// Function hooks run concurrently on worker threads, so checkers are
/// immutable (`&self`) while checking; everything a hook learns flows out
/// through its sink — diagnostics via [`CheckSink::push`], state for the
/// whole-program pass via [`CheckSink::emit`]. The driver merges sinks in
/// `(unit, function)` index order, never in completion order, which is why
/// parallel runs produce byte-identical reports.
#[derive(Default)]
pub struct CheckSink {
    pub(crate) reports: Vec<Report>,
    pub(crate) facts: Vec<Fact>,
}

impl fmt::Debug for CheckSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckSink")
            .field("reports", &self.reports)
            .field("facts", &self.facts.len())
            .finish()
    }
}

impl CheckSink {
    /// Creates an empty sink.
    pub fn new() -> CheckSink {
        CheckSink::default()
    }

    /// Records a diagnostic.
    pub fn push(&mut self, report: Report) {
        self.reports.push(report);
    }

    /// Emits a fact for the owning checker's whole-program pass.
    pub fn emit<F: Any + Send + Sync>(&mut self, fact: F) {
        self.facts.push(Box::new(fact));
    }

    /// The diagnostics recorded so far.
    pub fn reports(&self) -> &[Report] {
        &self.reports
    }

    /// Number of diagnostics recorded so far.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Returns `true` if no diagnostics were recorded.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Consumes the sink, returning its diagnostics.
    pub fn into_reports(self) -> Vec<Report> {
        self.reports
    }
}

/// A native checker extension.
///
/// Implementations get a per-function hook and an optional whole-program
/// hook that runs after every function has been seen (the paper's two-pass
/// emit-and-link global framework; see [`crate::summaries`]).
///
/// The per-function hook takes `&self` because the driver fans functions
/// out across worker threads; per-function state goes into the
/// [`CheckSink`], and cross-function state travels to [`check_program`]
/// as [`Fact`]s via [`CheckSink::emit`].
///
/// [`check_program`]: Checker::check_program
pub trait Checker: Send + Sync {
    /// Short name used in reports (e.g. `"buffer_mgmt"`).
    fn name(&self) -> &str;

    /// Checks one function. May run concurrently with other functions.
    fn check_function(&self, ctx: &FunctionContext<'_>, sink: &mut CheckSink);

    /// Whether this checker has a meaningful [`check_program`] pass.
    ///
    /// Defaults to `true` so external checkers that override
    /// [`check_program`] are always called. Purely-local checkers should
    /// return `false`: the driver then skips their program pass entirely,
    /// and the incremental engine never re-runs them for call-graph
    /// neighbours of an edited unit. A checker returning `false` never has
    /// its [`check_program`] invoked.
    ///
    /// [`check_program`]: Checker::check_program
    fn has_program_pass(&self) -> bool {
        true
    }

    /// Checks one call-graph component after all of its functions were
    /// visited.
    ///
    /// `facts` holds everything this checker emitted from its function
    /// passes over the component's units, in stable `(unit, function)`
    /// order regardless of which worker produced each fact. Only called
    /// when [`has_program_pass`] returns `true`.
    ///
    /// [`has_program_pass`]: Checker::has_program_pass
    fn check_program(&self, ctx: &ProgramContext<'_>, facts: Vec<Fact>, sink: &mut Vec<Report>) {
        let _ = (ctx, facts, sink);
    }

    /// Whether this checker requires function summaries even when
    /// interprocedural call-site resolution is disabled.
    ///
    /// The lane checker returns `true`: §7's quota analysis is inherently
    /// interprocedural (a handler's sends include its callees' sends), so
    /// the driver always computes summaries when it is registered. Checkers
    /// that merely *benefit* from summaries (msglen, buffer management)
    /// leave this `false` and participate only under `--interproc`.
    fn needs_summaries(&self) -> bool {
        false
    }

    /// Whether this checker's per-function output can depend on parts of
    /// the translation unit that the function-granular invalidation engine
    /// does not fingerprint — in practice, reading other functions' bodies
    /// through [`FunctionContext::unit`] outside the recorded dependency
    /// edges (same-unit callee bodies under refutation, callee summaries
    /// under interprocedural resolution).
    ///
    /// Defaults to `false`; none of the built-in checkers read the unit at
    /// all. A custom checker that does must return `true`, which makes the
    /// engine re-check every function of a dirty unit and regenerate every
    /// function's facts — correctness over granularity.
    fn unit_sensitive(&self) -> bool {
        false
    }

    /// Contributes this checker's knowledge about one function to the
    /// function's summary.
    ///
    /// Called by the summary engine bottom-up over the call graph:
    /// `ctx.summaries` holds every already-summarized callee. `transfers`
    /// is `true` when the engine wants call-site state transfers computed
    /// (interprocedural mode, function not part of a call cycle); counter
    /// contributions (the lane analysis) should be computed regardless.
    fn summarize_function(
        &self,
        ctx: &FunctionContext<'_>,
        summary: &mut FnSummary,
        transfers: bool,
    ) {
        let _ = (ctx, summary, transfers);
    }
}

/// Per-function results, produced by whichever worker claimed the item and
/// merged by the driver in item order.
pub(crate) struct FunctionOutput {
    /// Reports from all metal checkers, in registration order.
    pub(crate) metal: Vec<Report>,
    /// One sink per native checker, in registration order.
    pub(crate) native: Vec<CheckSink>,
}

/// The merged local (per-function) results of one translation unit: its
/// diagnostics plus, per native checker, the facts destined for that
/// checker's program pass.
pub(crate) struct UnitLocal {
    /// Metal and native diagnostics in `(function, checker)` order.
    pub(crate) reports: Vec<Report>,
    /// Facts per native checker (registration order), each in function
    /// order.
    pub(crate) facts: Vec<Vec<Fact>>,
}

/// Version stamp folded into every cache key. Bump whenever the meaning or
/// layout of cached records changes in a way content addressing cannot see.
/// Old-version records are treated as plain cache misses (never errors), so
/// a bumped binary refills the cache on its first run and is byte-identical
/// warm-vs-cold from then on.
///
/// v3: reports carry structured witness `steps` (and summary traces became
/// structured), replacing the prose `trace` lines of v2.
///
/// v4: the metal engine choice joined the suite key and metal programs gain
/// load-time diagnostics, so records written by a v3 binary must not be
/// replayed as if they covered the same output.
///
/// v5: reports carry a refutation `verdict` and solver `model`, and the
/// refute flag joined the suite key; v4 records would replay without
/// verdicts and break warm/cold byte-identity under `--refute`.
///
/// v6: refutation became sound under ambiguous switch arms, wrapping `i64`
/// arithmetic, and assigned SHOUTING-case globals; v5 records may carry
/// verdicts the fixed engine would not produce.
///
/// v7: function-granular red/green invalidation added the per-file
/// `fnindex` record (per-function fingerprints, report slices, fact
/// counts, and recorded dependency edges); unit records are unchanged in
/// shape but are now assembled from per-function slices, so mixing them
/// with v6 records could replay stale per-function state.
///
/// v8: unit AST keys and unit environment hashes became folds of per-item
/// fingerprints, so every `ast_key`, component key and `env_fp` changed
/// value.
///
/// The metal engine name later left the suite key without a bump: that
/// changed every key's value, so older records simply miss.
pub const CACHE_FORMAT_VERSION: u32 = 8;

/// The analysis driver: a set of checkers plus traversal settings.
pub struct Driver {
    /// Decision-program lowering of each registered metal program.
    compiled: Vec<CompiledProgram>,
    /// Where each metal program came from (a `--checker` file path), when
    /// known; used to locate load-time diagnostics.
    metal_origins: Vec<Option<String>>,
    native: Vec<Box<dyn Checker>>,
    /// Path traversal mode used for metal machines.
    pub mode: Mode,
    prune: bool,
    interproc: bool,
    refute: bool,
    jobs: Option<usize>,
    /// Scheduler counters accumulated across fan-outs; drained with
    /// [`Driver::take_sched_stats`]. Interior mutability because checking
    /// runs through `&self`.
    sched_stats: Mutex<SchedStats>,
    /// Running hash of the registered checker suite, folded at registration
    /// time; part of [`Driver::suite_key`].
    suite: Fnv1a,
    config_epoch: u64,
}

impl fmt::Debug for Driver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Driver")
            .field(
                "metal",
                &self.compiled.iter().map(|m| m.name()).collect::<Vec<_>>(),
            )
            .field(
                "native",
                &self.native.iter().map(|c| c.name()).collect::<Vec<_>>(),
            )
            .field("mode", &self.mode)
            .field("prune", &self.prune)
            .field("interproc", &self.interproc)
            .field("refute", &self.refute)
            .field("jobs", &self.jobs)
            .finish()
    }
}

impl Default for Driver {
    fn default() -> Self {
        Driver::new()
    }
}

impl Driver {
    /// Creates a driver with no checkers, using state-set traversal with
    /// feasibility pruning and the machine's available parallelism.
    pub fn new() -> Driver {
        Driver {
            compiled: Vec::new(),
            metal_origins: Vec::new(),
            native: Vec::new(),
            mode: Mode::StateSet,
            prune: true,
            interproc: false,
            refute: false,
            jobs: None,
            sched_stats: Mutex::new(SchedStats::default()),
            suite: Fnv1a::new(),
            config_epoch: 0,
        }
    }

    /// Enables or disables path-feasibility pruning (default: enabled).
    ///
    /// With pruning off, traversals walk every syntactic path like the
    /// paper's xg++, reproducing its correlated-branch false positives.
    pub fn prune(&mut self, on: bool) -> &mut Self {
        self.prune = on;
        self
    }

    /// Whether the next check run prunes infeasible paths.
    pub fn prune_enabled(&self) -> bool {
        self.prune
    }

    /// Enables or disables interprocedural call-site resolution (default:
    /// disabled).
    ///
    /// When on, the driver computes a function summary for every definition
    /// bottom-up over the call graph and hands the store to every local
    /// traversal: a state machine sitting at a call to a summarized function
    /// follows the callee's state *transfer* instead of treating the call as
    /// opaque. This is how "length assigned in a helper" and "free via a
    /// wrapper" stop producing false positives.
    pub fn interproc(&mut self, on: bool) -> &mut Self {
        self.interproc = on;
        self
    }

    /// Whether the next check run resolves call sites through summaries.
    pub fn interproc_enabled(&self) -> bool {
        self.interproc
    }

    /// Enables or disables the symbolic refutation pass (default: disabled
    /// at the library level; the CLI turns it on).
    ///
    /// When on, every report's witness path is backward-sliced and run
    /// through the `mc-symx` SMT-lite executor: reports whose path
    /// condition is UNSAT are demoted to [`crate::Verdict::Refuted`]
    /// (confidence 0), satisfiable witnesses record a replayable solver
    /// model. Unknown constraints never refute — a report only drops when
    /// its path provably cannot execute.
    pub fn refute(&mut self, on: bool) -> &mut Self {
        self.refute = on;
        self
    }

    /// Whether the next check run decides reports symbolically.
    pub fn refute_enabled(&self) -> bool {
        self.refute
    }

    /// Whether the next check run computes function summaries at all —
    /// either because interprocedural resolution is on, or because a
    /// registered checker (the lane checker) demands them for its program
    /// pass.
    pub fn needs_summaries(&self) -> bool {
        self.interproc || self.native.iter().any(|c| c.needs_summaries())
    }

    /// The traversal settings the next check run will use.
    pub fn traversal(&self) -> Traversal {
        Traversal {
            mode: self.mode,
            prune: self.prune,
        }
    }

    /// Sets the worker-pool size used for parsing and function checking.
    ///
    /// `1` forces a fully sequential run (no threads are spawned). Values
    /// are clamped to at least one worker. Without an explicit setting the
    /// driver uses [`std::thread::available_parallelism`].
    pub fn jobs(&mut self, n: usize) -> &mut Self {
        self.jobs = Some(n.max(1));
        self
    }

    /// Sets or clears the worker-pool size: `None` restores the
    /// available-parallelism default. Long-lived hosts (the `mcheckd`
    /// daemon) use this to apply a per-request `jobs` hint without
    /// rebuilding the driver — safe because the worker count is not part
    /// of [`Driver::suite_key`] and never affects output.
    pub fn set_jobs(&mut self, jobs: Option<usize>) -> &mut Self {
        self.jobs = jobs.map(|n| n.max(1));
        self
    }

    /// The worker count the next check run will use.
    pub fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// Drains the scheduler counters accumulated since construction (or
    /// since the previous call), resetting them to zero.
    pub fn take_sched_stats(&self) -> SchedStats {
        std::mem::take(&mut self.sched_stats.lock().expect("sched stats lock"))
    }

    /// Registers a metal checker, lowering it to a decision program.
    ///
    /// Only the program *name* is folded into [`Driver::suite_key`] on this
    /// path — an already-parsed program carries no source text. Callers
    /// whose metal rules can change under the same name should bump the
    /// config epoch ([`Driver::set_config_epoch`]) or register via
    /// [`Driver::add_metal_source`], which folds the full source.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::MetalCompile`] if the program cannot be
    /// lowered (see [`mc_metal::CompileError`]; validation findings are
    /// warnings, not errors, and never reject a program).
    pub fn add_metal_checker(&mut self, prog: MetalProgram) -> Result<&mut Self, DriverError> {
        self.suite.write_str("metal-name:");
        self.suite.write_str(&prog.name);
        self.compiled.push(CompiledProgram::compile(&prog)?);
        self.metal_origins.push(None);
        Ok(self)
    }

    /// Parses and registers a metal checker from source text.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Metal`] if the program does not parse, or
    /// [`DriverError::MetalCompile`] if it cannot be lowered.
    pub fn add_metal_source(&mut self, src: &str) -> Result<&mut Self, DriverError> {
        self.add_metal_source_impl(src, None)
    }

    /// Like [`Driver::add_metal_source`], also recording where the source
    /// came from (a checker file path). Load-time diagnostics
    /// ([`Driver::metal_load_diagnostics`]) are reported against the
    /// origin, so renderers can point at the offending `sm` rule's
    /// file:line.
    pub fn add_metal_source_from(
        &mut self,
        src: &str,
        origin: &str,
    ) -> Result<&mut Self, DriverError> {
        self.add_metal_source_impl(src, Some(origin.to_string()))
    }

    fn add_metal_source_impl(
        &mut self,
        src: &str,
        origin: Option<String>,
    ) -> Result<&mut Self, DriverError> {
        let prog = MetalProgram::parse(src)?;
        self.suite.write_str("metal-src:");
        self.suite.write_str(src);
        self.compiled.push(CompiledProgram::compile(&prog)?);
        self.metal_origins.push(origin);
        Ok(self)
    }

    /// Load-time diagnostics from lowering the registered metal programs:
    /// unreachable states, shadowed rules, unbound `%wildcard`
    /// interpolations, and unmatchable patterns, rendered as
    /// warning-severity reports against the checker source itself (the
    /// origin path when registered via [`Driver::add_metal_source_from`],
    /// a `<metal:NAME>` placeholder otherwise).
    pub fn metal_load_diagnostics(&self) -> Vec<Report> {
        let mut reports = Vec::new();
        for (i, cp) in self.compiled.iter().enumerate() {
            let file = match &self.metal_origins[i] {
                Some(origin) => origin.clone(),
                None => format!("<metal:{}>", cp.name()),
            };
            for diag in cp.diagnostics() {
                let mut r = Report::warning(
                    "metal-load",
                    file.clone(),
                    cp.name(),
                    diag.span,
                    format!("[{}] {}", diag.kind.code(), diag.message),
                );
                // Load problems are definite (the program text proves
                // them), but they are style findings, not violations.
                r.confidence = Report::DEFAULT_CONFIDENCE;
                reports.push(r);
            }
        }
        reports
    }

    /// Registers a native checker extension.
    ///
    /// Only the checker's *name* can be folded into [`Driver::suite_key`]
    /// (native code has no inspectable source); if a native checker's
    /// behaviour changes, the crate version bump covers built-ins and
    /// [`Driver::set_config_epoch`] covers embedders.
    pub fn add_checker(&mut self, checker: Box<dyn Checker>) -> &mut Self {
        self.suite.write_str("native:");
        self.suite.write_str(checker.name());
        self.native.push(checker);
        self
    }

    /// Sets the checker configuration epoch, folded into every cache key.
    ///
    /// Bump this whenever checker *inputs* the suite hash cannot see change
    /// — external spec files, rule tables, environment-driven settings.
    /// Runs under different epochs never share cached results.
    pub fn set_config_epoch(&mut self, epoch: u64) -> &mut Self {
        self.config_epoch = epoch;
        self
    }

    /// The current checker configuration epoch.
    pub fn config_epoch(&self) -> u64 {
        self.config_epoch
    }

    /// The key every cached artifact of this driver is scoped under.
    ///
    /// Folds the crate version, the cache format version, the registered
    /// checker suite, the config epoch, and the traversal settings (mode +
    /// prune flag). Two drivers with equal suite keys produce byte-identical
    /// reports for identical sources, so their cache entries may alias; any
    /// configuration difference this key cannot observe must be expressed
    /// through the config epoch. The worker-pool size is deliberately *not*
    /// part of the key: report output is independent of `--jobs`.
    pub fn suite_key(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str(env!("CARGO_PKG_VERSION"));
        h.write_u64(u64::from(CACHE_FORMAT_VERSION));
        h.write_u64(self.suite.finish());
        h.write_u64(self.config_epoch);
        h.write_str(&self.traversal().cache_token());
        h.write_str(if self.interproc {
            "interproc"
        } else {
            "nointerproc"
        });
        // Refutation rewrites verdicts and confidences in place, so cached
        // records from a refuting and a non-refuting run must never alias.
        h.write_str(if self.refute { "refute" } else { "norefute" });
        h.finish()
    }

    /// The compiled form of the registered metal programs, in registration
    /// order.
    pub(crate) fn compiled_programs(&self) -> &[CompiledProgram] {
        &self.compiled
    }

    /// The registered native checkers, in registration order.
    pub(crate) fn native_checkers(&self) -> &[Box<dyn Checker>] {
        &self.native
    }

    /// Whether any registered native checker has a whole-program pass.
    pub(crate) fn has_program_checkers(&self) -> bool {
        self.native.iter().any(|c| c.has_program_pass())
    }

    /// Number of registered native checkers.
    pub(crate) fn native_count(&self) -> usize {
        self.native.len()
    }

    /// Whether any registered checker declares itself
    /// [`unit_sensitive`](Checker::unit_sensitive); the engine then treats
    /// every function of a dirty unit as red.
    pub(crate) fn has_unit_sensitive_checkers(&self) -> bool {
        self.native.iter().any(|c| c.unit_sensitive())
    }

    /// Number of registered checkers (metal + native).
    pub fn checker_count(&self) -> usize {
        self.compiled.len() + self.native.len()
    }

    /// Checks a single source string.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Parse`] if the source does not parse.
    pub fn check_source(&self, src: &str, file: &str) -> Result<Vec<Report>, DriverError> {
        self.check_sources(&[(src.to_string(), file.to_string())])
    }

    /// Checks a set of `(source, file-name)` pairs as one program: a cold
    /// run of a fresh [`CheckEngine::in_memory`].
    ///
    /// All per-function checks run first (metal and native), then each
    /// native checker's whole-program pass.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Parse`] on the first file (in input order)
    /// that fails to parse.
    pub fn check_sources(&self, sources: &[(String, String)]) -> Result<Vec<Report>, DriverError> {
        Ok(CheckEngine::in_memory().check_sources(self, sources)?.0)
    }

    /// Runs `f(0..n)` over the worker pool and returns the outputs in index
    /// order, regardless of which worker computed each item.
    ///
    /// This is the one scheduling primitive in the crate: parsing,
    /// per-function checking, summary waves and program passes all fan out
    /// through it, so "parallel output == sequential output" has a single
    /// point of truth. With one effective worker no threads are spawned at
    /// all.
    pub(crate) fn pool_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send + Sync,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.effective_jobs().min(n);
        if workers <= 1 {
            if n > 0 {
                let log = crate::sched::WorkerLog {
                    executed: n as u64,
                    ..Default::default()
                };
                self.sched_stats
                    .lock()
                    .expect("sched stats lock")
                    .absorb(&[log]);
            }
            return (0..n).map(f).collect();
        }
        let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
        let logs = crate::sched::run_stealing(n, workers, |i| {
            let _ = slots[i].set(f(i));
        });
        self.sched_stats
            .lock()
            .expect("sched stats lock")
            .absorb(&logs);
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("every work item completed"))
            .collect()
    }

    /// Runs every registered checker's function pass over one function.
    ///
    /// `summaries` is `Some` only under [`Driver::interproc`]: local
    /// traversals then resolve call sites through the store.
    pub(crate) fn check_one_function(
        &self,
        unit: &CheckedUnit,
        function: &Function,
        cfg: &Cfg,
        summaries: Option<&Summaries>,
    ) -> FunctionOutput {
        let traversal = self.traversal();
        let oracle = summaries.map(|s| s as &dyn SummaryLookup);
        let ctx = FunctionContext {
            file: &unit.unit.file,
            unit: &unit.unit,
            function,
            cfg,
            traversal,
            summaries,
        };
        let mut metal = Vec::new();
        // One extraction walk serves every compiled program's plan.
        let refs: Vec<&CompiledProgram> = self.compiled.iter().collect();
        let plans = mc_metal::CandidatePlan::build_many(&refs, cfg);
        for (cp, plan) in self.compiled.iter().zip(&plans) {
            let mut machine = CompiledMachine::with_plan(cp, plan);
            let init = machine.start_state();
            run_traversal_with(cfg, &mut machine, init, traversal, oracle);
            metal.extend(
                machine
                    .reports
                    .iter()
                    .map(|r| convert_metal_report(r, &unit.unit.file, &function.name)),
            );
        }
        let mut native: Vec<CheckSink> = self
            .native
            .iter()
            .map(|checker| {
                let mut sink = CheckSink::new();
                checker.check_function(&ctx, &mut sink);
                sink
            })
            .collect();
        rank_function_reports(&mut metal, &mut native, function, cfg, traversal.prune);
        if self.refute {
            let has_witness = |r: &Report| !r.steps.is_empty();
            if metal.iter().any(has_witness)
                || native.iter().any(|s| s.reports.iter().any(has_witness))
            {
                let world = crate::refute::UnitWorld::new(&unit.unit, unit.written_globals());
                for r in metal
                    .iter_mut()
                    .chain(native.iter_mut().flat_map(|s| s.reports.iter_mut()))
                {
                    crate::refute::decide(r, function, &world);
                }
            }
        }
        FunctionOutput { metal, native }
    }

    /// Re-runs only the fact-emitting passes of one function.
    ///
    /// [`Fact`]s are opaque `Any` values and cannot be cached, so when the
    /// incremental engine replays a function's *reports* from cache but
    /// its program pass still needs the function's facts, they are
    /// regenerated with this cheaper pass: metal machines and purely-local
    /// native checkers are skipped, and all diagnostics are discarded. The
    /// engine only calls it for functions whose cached fact counts are
    /// non-zero.
    pub(crate) fn collect_function_facts(
        &self,
        unit: &CheckedUnit,
        function: &Function,
        cfg: &Cfg,
        summaries: Option<&Summaries>,
    ) -> Vec<Vec<Fact>> {
        let traversal = self.traversal();
        let ctx = FunctionContext {
            file: &unit.unit.file,
            unit: &unit.unit,
            function,
            cfg,
            traversal,
            summaries,
        };
        let mut facts: Vec<Vec<Fact>> = self.native.iter().map(|_| Vec::new()).collect();
        for (i, checker) in self.native.iter().enumerate() {
            if !checker.has_program_pass() {
                continue;
            }
            let mut sink = CheckSink::new();
            checker.check_function(&ctx, &mut sink);
            facts[i].extend(sink.facts);
        }
        facts
    }

    /// Runs every program-pass checker over one call-graph component.
    ///
    /// `facts` is indexed by native-checker registration order and holds
    /// each checker's facts from the component's units, in `(unit,
    /// function)` order.
    pub(crate) fn run_program_passes(
        &self,
        units: &[&CheckedUnit],
        facts: Vec<Vec<Fact>>,
        summaries: Option<&Summaries>,
    ) -> Vec<Report> {
        let ctx = ProgramContext { units, summaries };
        let mut reports = Vec::new();
        for (checker, checker_facts) in self.native.iter().zip(facts) {
            if checker.has_program_pass() {
                checker.check_program(&ctx, checker_facts, &mut reports);
            }
        }
        if self.refute && !reports.is_empty() {
            crate::refute::decide_program_reports(units, &mut reports);
        }
        reports
    }
}

/// The call-graph signature of one translation unit: which functions it
/// defines and which names it calls. Cheap to compute, serializable, and
/// sufficient to rebuild the unit-level call graph without re-parsing —
/// which is how the incremental engine partitions clean units into
/// components. See [`CheckedUnit::call_info`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallInfo {
    /// Names of functions the unit defines, in definition order.
    pub defines: Vec<String>,
    /// Names the unit's function bodies call, sorted and deduplicated.
    pub calls: Vec<String>,
}

/// Partitions units into weakly-connected components of the unit-level call
/// graph: unit A and unit B land in one component when A calls a function B
/// defines (or vice versa), transitively. Units that define the same name
/// are also joined — the linker cannot tell which definition a caller
/// binds to, so any doubt merges them.
///
/// This is a conservative over-approximation of the function-level SCCs a
/// precise engine would use: a component contains every call-graph SCC that
/// touches its units, so re-running a program pass per *component* re-runs
/// it for every SCC that could observe a changed unit. Components are
/// returned with members in input order, ordered by their first member.
pub fn call_components(infos: &[CallInfo]) -> Vec<Vec<usize>> {
    let n = infos.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    fn union(parent: &mut [usize], a: usize, b: usize) {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            // Root at the smaller index so iteration stays deterministic.
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            parent[hi] = lo;
        }
    }

    let mut definers: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for (i, info) in infos.iter().enumerate() {
        for name in &info.defines {
            match definers.entry(name.as_str()) {
                std::collections::hash_map::Entry::Occupied(e) => union(&mut parent, *e.get(), i),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i);
                }
            }
        }
    }
    for (i, info) in infos.iter().enumerate() {
        for name in &info.calls {
            if let Some(&d) = definers.get(name.as_str()) {
                union(&mut parent, i, d);
            }
        }
    }

    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut comp_of: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for i in 0..n {
        let root = find(&mut parent, i);
        match comp_of.entry(root) {
            std::collections::hash_map::Entry::Occupied(e) => comps[*e.get()].push(i),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(comps.len());
                comps.push(vec![i]);
            }
        }
    }
    comps
}

fn convert_metal_report(r: &MetalReport, file: &str, function: &str) -> Report {
    let mut report = if r.is_error {
        Report::error(&r.sm_name, file, function, r.span, &r.message)
    } else {
        Report::warning(&r.sm_name, file, function, r.span, &r.message)
    };
    report.steps = r.steps.clone();
    report
}

/// Ranking evidence gathered from one function's AST: the paper's manual
/// triage heuristics, automated. Handlers that reply with NAKs take
/// deliberately unusual paths (the paper ranked their reports last), and
/// reads feeding only debug printing are benign by construction.
struct RankScan {
    mentions_nak: bool,
    calls_debug: bool,
}

fn scan_for_ranking(function: &Function) -> RankScan {
    struct Scan {
        nak: bool,
        debug: bool,
    }
    impl mc_ast::Visitor for Scan {
        fn visit_expr(&mut self, expr: &mc_ast::Expr) {
            if let Some(name) = expr.as_ident() {
                if name == "MSG_NAK" || name.starts_with("MSG_NAK_") {
                    self.nak = true;
                }
            }
            if let Some((callee, _)) = expr.as_call() {
                if callee.contains("debug_print") {
                    self.debug = true;
                }
            }
        }
    }
    let mut s = Scan {
        nak: false,
        debug: false,
    };
    mc_ast::walk_function(&mut s, function);
    RankScan {
        mentions_nak: s.nak,
        calls_debug: s.debug,
    }
}

/// Assigns `confidence` and `pruned_paths` to every report of one function.
///
/// Confidence starts at [`Report::DEFAULT_CONFIDENCE`] and moves on
/// evidence: surviving a pruned traversal raises it; sitting in a function
/// whose CFG has refutable edges while pruning was *off* lowers it (the
/// report may live on an infeasible path — the paper's dominant FP class);
/// the NAK and debug-print heuristics lower it further.
fn rank_function_reports(
    metal: &mut [Report],
    native: &mut [CheckSink],
    function: &Function,
    cfg: &Cfg,
    prune: bool,
) {
    if metal.is_empty() && native.iter().all(|s| s.reports.is_empty()) {
        return;
    }
    let refuted = feasibility_stats(cfg).refuted_edges as u32;
    let scan = scan_for_ranking(function);
    let rank = |r: &mut Report| {
        let mut c = i32::from(Report::DEFAULT_CONFIDENCE);
        if prune {
            c += 15;
            r.pruned_paths = refuted;
        } else if refuted > 0 {
            c -= 25;
        }
        if scan.mentions_nak {
            c -= 15;
        }
        if scan.calls_debug {
            c -= 20;
        }
        r.confidence = c.clamp(0, 100) as u8;
    };
    for r in metal.iter_mut() {
        rank(r);
    }
    for sink in native {
        for r in sink.reports.iter_mut() {
            rank(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Severity;
    use mc_ast::{parse_translation_unit, Span};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const SM: &str = r#"
        sm wait_for_db {
            decl { scalar } addr, buf;
            start:
                { WAIT_FOR_DB_FULL(addr); } ==> stop
              | { MISCBUS_READ_DB(addr, buf); } ==> { err("Buffer not synchronized"); }
            ;
        }
    "#;

    #[test]
    fn metal_checker_via_driver() {
        let mut d = Driver::new();
        d.add_metal_source(SM).unwrap();
        let reports = d
            .check_source("void h(void) { MISCBUS_READ_DB(a, b); }", "h.c")
            .unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].checker, "wait_for_db");
        assert_eq!(reports[0].function, "h");
        assert_eq!(reports[0].file, "h.c");
        assert_eq!(reports[0].severity, Severity::Error);
    }

    #[test]
    fn multiple_files_one_program() {
        let mut d = Driver::new();
        d.add_metal_source(SM).unwrap();
        let reports = d
            .check_sources(&[
                (
                    "void a(void) { MISCBUS_READ_DB(a, b); }".into(),
                    "a.c".into(),
                ),
                (
                    "void b(void) { WAIT_FOR_DB_FULL(x); MISCBUS_READ_DB(x, y); }".into(),
                    "b.c".into(),
                ),
            ])
            .unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].file, "a.c");
    }

    /// A native checker that flags functions with more than `max` returns
    /// and counts per-pass activity through the sink/fact machinery.
    struct ReturnCounter {
        max: usize,
        program_calls: AtomicUsize,
    }

    impl ReturnCounter {
        fn new(max: usize) -> ReturnCounter {
            ReturnCounter {
                max,
                program_calls: AtomicUsize::new(0),
            }
        }
    }

    impl Checker for ReturnCounter {
        fn name(&self) -> &str {
            "return_counter"
        }
        fn check_function(&self, ctx: &FunctionContext<'_>, sink: &mut CheckSink) {
            let exits = ctx.cfg.exits().len();
            sink.emit(exits);
            if exits > self.max {
                sink.push(Report::error(
                    self.name(),
                    ctx.file,
                    &ctx.function.name,
                    ctx.function.span,
                    format!("{exits} exits, max {}", self.max),
                ));
            }
        }
        fn check_program(&self, ctx: &ProgramContext<'_>, facts: Vec<Fact>, _: &mut Vec<Report>) {
            self.program_calls.fetch_add(1, Ordering::Relaxed);
            // One fact per function, delivered in program order.
            assert_eq!(facts.len(), ctx.functions().count());
            assert!(facts.iter().all(|f| f.is::<usize>()));
        }
    }

    #[test]
    fn native_checker_and_program_pass() {
        let mut d = Driver::new();
        d.add_checker(Box::new(ReturnCounter::new(1)));
        let reports = d
            .check_source(
                "void ok(void) { a(); }\nvoid bad(void) { if (x) { return; } b(); }",
                "t.c",
            )
            .unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].function, "bad");
    }

    #[test]
    fn parse_errors_are_reported() {
        let d = Driver::new();
        let err = d.check_source("void broken( {", "bad.c").unwrap_err();
        assert!(matches!(err, DriverError::Parse(_)));
    }

    #[test]
    fn parse_error_is_first_in_input_order() {
        // With many files and many workers, a later broken file may be
        // parsed before an earlier one; the reported error must still be
        // the first bad file in input order.
        let mut sources: Vec<(String, String)> = (0..32)
            .map(|i| (format!("void f{i}(void) {{ a(); }}"), format!("ok{i}.c")))
            .collect();
        sources[5] = ("void broken( {".into(), "bad5.c".into());
        sources[20] = ("void broken( {".into(), "bad20.c".into());
        let mut d = Driver::new();
        d.jobs(8);
        match d.check_sources(&sources).unwrap_err() {
            DriverError::Parse(e) => assert!(e.to_string().contains("bad5.c"), "{e}"),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn bad_metal_source_rejected() {
        let mut d = Driver::new();
        assert!(d.add_metal_source("sm broken {").is_err());
    }

    #[test]
    fn reports_sorted_and_deduped() {
        let a = Report::error("c", "f.c", "g", Span::new(5, 1), "m");
        let b = Report::error("c", "f.c", "g", Span::new(2, 1), "m");
        let mut v = vec![a.clone(), b.clone(), a.clone()];
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].span.line, 2);
    }

    #[test]
    fn checker_count() {
        let mut d = Driver::new();
        d.add_metal_source(SM).unwrap();
        d.add_checker(Box::new(ReturnCounter::new(0)));
        assert_eq!(d.checker_count(), 2);
    }

    #[test]
    fn jobs_clamped_and_defaulted() {
        let mut d = Driver::new();
        assert!(d.effective_jobs() >= 1);
        d.jobs(0);
        assert_eq!(d.effective_jobs(), 1);
        d.jobs(4);
        assert_eq!(d.effective_jobs(), 4);
    }

    #[test]
    fn parallel_and_sequential_runs_are_identical() {
        let many: Vec<(String, String)> = (0..16)
            .map(|i| {
                (
                    format!(
                        "void f{i}(void) {{ MISCBUS_READ_DB(a, b); }}\n\
                         void g{i}(void) {{ WAIT_FOR_DB_FULL(x); MISCBUS_READ_DB(x, y); }}"
                    ),
                    format!("u{i}.c"),
                )
            })
            .collect();
        let run = |jobs: usize| {
            let mut d = Driver::new();
            d.add_metal_source(SM).unwrap();
            d.add_checker(Box::new(ReturnCounter::new(0)));
            d.jobs(jobs);
            d.check_sources(&many).unwrap()
        };
        let sequential = run(1);
        assert_eq!(sequential.len(), 48); // 16 metal + 32 native reports
        for jobs in [2, 4, 8] {
            assert_eq!(run(jobs), sequential, "jobs={jobs}");
        }
    }

    #[test]
    fn correlated_branch_fp_pruned_by_default() {
        // The read is only reachable with `gMode` true, and every such path
        // waited first: the classic correlated-branch false positive. The
        // paper's xg++ (prune off) reports it; the default driver does not.
        let src = "void h(void) {\n\
                   if (gMode) { WAIT_FOR_DB_FULL(a); }\n\
                   mid();\n\
                   if (gMode) { MISCBUS_READ_DB(a, b); }\n\
                   }";
        let mut d = Driver::new();
        d.add_metal_source(SM).unwrap();
        assert!(d.prune_enabled());
        assert!(d.check_source(src, "h.c").unwrap().is_empty());

        let mut d = Driver::new();
        d.add_metal_source(SM).unwrap();
        d.prune(false);
        let reports = d.check_source(src, "h.c").unwrap();
        assert_eq!(reports.len(), 1);
        // Unpruned report in a function with refutable edges: low rank.
        assert!(reports[0].confidence < Report::DEFAULT_CONFIDENCE);
        assert_eq!(reports[0].pruned_paths, 0);
    }

    #[test]
    fn true_positives_survive_pruning_with_evidence() {
        let src = "void h(void) {\n\
                   if (gMode) { WAIT_FOR_DB_FULL(a); }\n\
                   if (!gMode) { MISCBUS_READ_DB(a, b); }\n\
                   }";
        // The read really can execute without a wait (gMode false), so it
        // must survive pruning — and carries the pruned-path evidence.
        let mut d = Driver::new();
        d.add_metal_source(SM).unwrap();
        let reports = d.check_source(src, "h.c").unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].confidence > Report::DEFAULT_CONFIDENCE);
        assert!(reports[0].pruned_paths > 0);
    }

    #[test]
    fn nak_and_debug_heuristics_lower_confidence() {
        let mut d = Driver::new();
        d.add_metal_source(SM).unwrap();
        let plain = d
            .check_source("void h(void) { MISCBUS_READ_DB(a, b); }", "h.c")
            .unwrap();
        let nak = d
            .check_source(
                "void h(void) { r = MSG_NAK; MISCBUS_READ_DB(a, b); }",
                "h.c",
            )
            .unwrap();
        let debug = d
            .check_source(
                "void h(void) { MISCBUS_READ_DB(a, b); flash_debug_print(b); }",
                "h.c",
            )
            .unwrap();
        assert!(nak[0].confidence < plain[0].confidence);
        assert!(debug[0].confidence < nak[0].confidence);
    }

    #[test]
    fn refutation_demotes_infeasible_witnesses() {
        // The read is guarded by `nak > 0` where `nak = credit - debit`
        // was just computed, under `credit == debit`: the path condition
        // is UNSAT. Feasibility pruning cannot see the arithmetic (it
        // correlates only identical conditions), so without refutation the
        // report survives.
        let src = "void h(void) {\n\
                   nak = gCredit - gDebit;\n\
                   if (gCredit == gDebit) {\n\
                   if (nak > 0) { MISCBUS_READ_DB(a, b); }\n\
                   }\n\
                   }";
        let mut d = Driver::new();
        d.add_metal_source(SM).unwrap();
        let plain = d.check_source(src, "h.c").unwrap();
        assert_eq!(plain.len(), 1);
        assert_eq!(plain[0].verdict, crate::Verdict::Unchecked);

        d.refute(true);
        let decided = d.check_source(src, "h.c").unwrap();
        assert_eq!(decided.len(), 1);
        assert_eq!(decided[0].verdict, crate::Verdict::Refuted);
        assert_eq!(decided[0].confidence, 0);
    }

    #[test]
    fn refutation_records_model_for_feasible_witnesses() {
        let src = "void h(void) {\n\
                   if (gLen > 4) { MISCBUS_READ_DB(a, b); }\n\
                   }";
        let mut d = Driver::new();
        d.add_metal_source(SM).unwrap();
        d.refute(true);
        let reports = d.check_source(src, "h.c").unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].verdict, crate::Verdict::Sat);
        let gl = reports[0]
            .model
            .iter()
            .find(|(k, _)| k == "gLen")
            .expect("gLen bound");
        assert!(
            gl.1 > 4,
            "model must satisfy the guard: {:?}",
            reports[0].model
        );
    }

    #[test]
    fn refutation_is_deterministic_across_jobs() {
        let many: Vec<(String, String)> = (0..12)
            .map(|i| {
                (
                    format!(
                        "void f{i}(void) {{\n\
                         nak = gCredit - gDebit;\n\
                         if (gCredit == gDebit) {{\n\
                         if (nak > 0) {{ MISCBUS_READ_DB(a, b); }}\n\
                         }}\n\
                         }}\n\
                         void g{i}(void) {{ if (gLen > {i}) {{ MISCBUS_READ_DB(x, y); }} }}"
                    ),
                    format!("u{i}.c"),
                )
            })
            .collect();
        let run = |jobs: usize| {
            let mut d = Driver::new();
            d.add_metal_source(SM).unwrap();
            d.refute(true);
            d.jobs(jobs);
            d.check_sources(&many).unwrap()
        };
        let sequential = run(1);
        assert_eq!(sequential.len(), 24);
        assert!(sequential
            .iter()
            .any(|r| r.verdict == crate::Verdict::Refuted));
        assert!(sequential.iter().any(|r| r.verdict == crate::Verdict::Sat));
        for jobs in [4, 8] {
            assert_eq!(run(jobs), sequential, "jobs={jobs}");
        }
    }

    #[test]
    fn refute_flag_changes_suite_key() {
        let mut a = Driver::new();
        let mut b = Driver::new();
        a.refute(true);
        b.refute(false);
        assert_ne!(a.suite_key(), b.suite_key());
    }

    #[test]
    fn checked_unit_builds_each_cfg_once() {
        let unit =
            parse_translation_unit("void a(void) { x(); }\nvoid b(void) { y(); }", "t.c").unwrap();
        let cu = CheckedUnit::new(unit);
        assert_eq!(cu.cfgs.len(), 2);
        let names: Vec<&str> = cu.functions().map(|(f, _)| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        let info = cu.call_info();
        assert_eq!(info.defines, ["a", "b"]);
        assert_eq!(info.calls, ["x", "y"]);
    }
}
