//! The demand-driven query layer: the one executor of a [`Driver`]'s
//! configuration.
//!
//! [`CheckEngine::check_sources`] runs every check — [`Driver::check_sources`]
//! is a cold run of a fresh in-memory engine — and memoizes every
//! intermediate artifact by content: a warm run re-does only the work whose
//! inputs actually changed, and produces byte-identical reports to a cold
//! one. Each phase — parse and fingerprint the files, check the red
//! functions, run the re-run components' program passes — fans its items
//! out over the driver's worker pool, so the pool schedules functions, not
//! units. The reference every run is held to is a cold run of a fresh
//! [`CheckEngine::in_memory`]; the engine has no second execution mode.
//!
//! Invalidation is four-tiered, coarse to fine:
//!
//! 1. **Program** — a key over the suite key plus every unit's source hash.
//!    A hit returns the final report vector without parsing anything.
//! 2. **File** — each file has one record ([`FnIndexRecord`]) at its file
//!    slot `H(suite, file)`. The record answers the file without a parse
//!    when its source key is the file's and, under interprocedural
//!    resolution, its summary key is the file's current component key.
//! 3. **Function** — every other file is parsed and *diffed* against that
//!    same record: every function is re-fingerprinted, and a function is
//!    **green** — its cached report slice replays verbatim — when its body
//!    fingerprint, its unit's environment hash, and every read it recorded
//!    at check time (same-unit callee bodies for witness refutation, callee
//!    summary content hashes under interprocedural resolution) are
//!    unchanged. Everything else is **red** and re-checks, recording a
//!    fresh dependency edge set. An edit to one handler body re-checks a
//!    handful of functions, not a 300-function component, and an edit that
//!    displaces no token (trailing whitespace, comment-only changes)
//!    re-checks none. When a registered checker is
//!    [`unit_sensitive`](crate::Checker::unit_sensitive), every function of
//!    a dirty unit is red.
//! 4. **Component** — program passes replay per call-graph component (see
//!    [`call_components`](crate::call_components)) whenever the component
//!    key, which folds every member's AST key, hits; otherwise they re-run.
//!    A program pass reads only its component's parsed units and summary
//!    store, so the clean members of a re-run component are parsed but
//!    never re-checked.
//!
//! The cache-safety policy is *any doubt ⇒ miss*: keys fold everything
//! that can influence output (crate version, cache format, checker suite,
//! config epoch, traversal settings, file names, content hashes), loads
//! validate records against their keys, and anything unverifiable re-runs.
//! A corrupt file record is a miss too, counted loudly in
//! [`RunStats::fn_index_corrupt`].

use crate::cache::{
    summary_content_hash, ComponentRecord, DiskCache, FnEntry, FnIndexLoad, FnIndexRecord,
    ProgramRecord, SummaryRecord,
};
use crate::driver::{call_components, CallInfo, CheckedUnit, Driver, DriverError};
use crate::report::Report;
use crate::summaries::Summaries;
use mc_ast::{parse_translation_unit, Fingerprint, Fnv1a, Function, ParseError};
use mc_cfg::{Cfg, FnSummary};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A parsed unit with its CFGs and AST fingerprint, shared between memo
/// table entries and the current run.
#[derive(Debug, Clone)]
struct ParsedUnit {
    unit: Arc<CheckedUnit>,
    ast_fp: u64,
}

impl ParsedUnit {
    /// Parses one file, builds every function CFG, and fingerprints the
    /// unit: per-function fingerprints, the AST key folded from them, the
    /// environment hash, and per-function callee names. Every later phase
    /// reads these; computing them here keeps them on the worker pool
    /// instead of the serial merge.
    fn parse(src: &str, file: &str) -> Result<ParsedUnit, ParseError> {
        let unit = CheckedUnit::new(parse_translation_unit(src, file)?);
        let ast_fp = Fingerprint::of_unit_with(&unit.unit, unit.fn_fingerprints());
        unit.env_fp();
        unit.fn_call_names();
        Ok(ParsedUnit {
            unit: Arc::new(unit),
            ast_fp,
        })
    }
}

/// Runs `f` over every `(unit, function)` item on the driver's worker
/// pool, passing the function, its CFG and its unit's summary store;
/// outputs come back in item order.
fn map_functions<T, F>(
    driver: &Driver,
    parsed: &[Option<ParsedUnit>],
    unit_summaries: &[Option<Arc<Summaries>>],
    items: &[(usize, usize)],
    f: F,
) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(&CheckedUnit, &Function, &Cfg, Option<&Summaries>) -> T + Sync,
{
    driver.pool_map(items.len(), |k| {
        let (i, fidx) = items[k];
        let cu = &parsed[i].as_ref().expect("parsed before checking").unit;
        let (function, cfg) = cu.functions().nth(fidx).expect("function index in range");
        f(cu, function, cfg, unit_summaries[i].as_deref())
    })
}

/// Counters describing how much of a run was served from cache; returned
/// by [`CheckEngine::check_sources`] alongside the reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of input units.
    pub units: usize,
    /// The whole run was answered by the program-level cache; nothing was
    /// parsed or checked.
    pub program_hit: bool,
    /// Units whose file record replayed unparsed: its source key matched
    /// (and, under interprocedural resolution, its summary key).
    pub source_hits: usize,
    /// Dirty units that re-checked at least one function or had no usable
    /// prior record. A dirty unit whose record replays every function
    /// green (a layout-only edit) is not counted.
    pub units_checked: usize,
    /// Files parsed this run: dirty units, clean members of re-run
    /// components, and clean members of components whose summary store
    /// had to be recomputed.
    pub parses: usize,
    /// Call-graph components in the program.
    pub components: usize,
    /// Components whose program-pass reports replayed from cache.
    pub component_hits: usize,
    /// Functions that ran the full per-function check (red nodes).
    pub functions_rechecked: usize,
    /// Functions inside dirty units whose cached report slices replayed
    /// because their fingerprints and recorded reads were unchanged
    /// (green nodes). Functions of fully-clean units replay at the unit
    /// tier and are not counted here.
    pub functions_replayed: usize,
    /// Call-graph components whose program passes re-ran.
    pub components_rechecked: usize,
    /// File records ([`FnIndexRecord`]) that existed on disk but failed
    /// to parse or validate; every unit's record is loaded, so this covers
    /// all of them. Always safe (a corrupt record is just a miss) but loud:
    /// a non-zero value on a healthy cache points at concurrent-writer or
    /// disk trouble.
    pub fn_index_corrupt: usize,
    /// Dirty units this shard left for other shards (or for writers that
    /// already claimed them). Always zero outside shard mode.
    pub units_deferred: usize,
}

/// The incremental check engine: an in-memory memo table over every query,
/// optionally backed by an on-disk [`DiskCache`].
///
/// An engine is keyed by nothing — all scoping lives in the
/// content-addressed keys — so one engine (or one cache directory) can
/// serve different drivers, and runs under a changed configuration simply
/// miss. Reports returned by [`check_sources`] are byte-identical to a
/// cold run of a fresh engine for the same driver and sources, regardless
/// of cache state and worker count.
///
/// [`check_sources`]: CheckEngine::check_sources
#[derive(Debug, Default)]
pub struct CheckEngine {
    disk: Option<DiskCache>,
    /// When `Some((i, n))`, this engine is shard `i` of `n`: it runs local
    /// checks only for dirty units it owns (unit-fingerprint hash mod
    /// `n`), skips whole-program passes, and never writes a program
    /// record. See [`CheckEngine::set_shard`].
    shard: Option<(u32, u32)>,
    /// Record keys this engine claimed via [`DiskCache::claim`], so its
    /// own later runs treat them as held-by-self rather than contested.
    claimed: HashSet<u64>,
    /// Parse/CFG memo, keyed by `(file, source hash)` — suite-independent.
    checked: HashMap<u64, ParsedUnit>,
    /// File records by `H(suite, file)` — each file's replayable results
    /// and red/green baseline.
    fn_index: HashMap<u64, Arc<FnIndexRecord>>,
    /// Component program-pass reports by component key.
    components: HashMap<u64, Arc<ComponentRecord>>,
    /// Component function-summary stores by component key.
    summaries: HashMap<u64, Arc<Summaries>>,
    /// Per-function summary memo for incremental store computation, keyed
    /// by the recursive input key (see [`Summaries::compute_memoized`]).
    fn_summaries: HashMap<u64, FnSummary>,
    /// Summary content hashes by `H(component key, function name)`,
    /// computed on demand while validating or recording summary reads.
    sum_hashes: HashMap<u64, u64>,
    /// Final report vectors by program key, at most [`PROGRAM_MEMO_CAP`].
    programs: HashMap<u64, Arc<ProgramRecord>>,
}

/// The most program records an engine keeps in memory; past it the table
/// is cleared wholesale. Exact repeats within the bound (an edit and its
/// revert) still replay without a disk cache.
const PROGRAM_MEMO_CAP: usize = 64;

impl CheckEngine {
    /// Creates an engine with no on-disk cache (memoization only lives for
    /// the engine's lifetime — the `--watch` configuration).
    pub fn in_memory() -> CheckEngine {
        CheckEngine::default()
    }

    /// Creates an engine backed by a disk cache.
    pub fn with_disk(disk: DiskCache) -> CheckEngine {
        CheckEngine {
            disk: Some(disk),
            ..CheckEngine::default()
        }
    }

    /// The disk cache, if one is attached.
    pub fn disk(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Puts the engine in shard mode (`Some((i, n))`, `i < n`) or back to
    /// full mode (`None`).
    ///
    /// A shard partitions *work*, not correctness: it parses and
    /// fingerprints every input (cheap, and required so component keys
    /// match across shards), but runs the expensive local pass only for
    /// dirty units whose content key hashes to `i` mod `n`, claiming each
    /// through [`DiskCache::claim`] first so overlapping writers split
    /// instead of duplicating. Shards skip whole-program passes and never
    /// store a program record — their reports are *partial* by design.
    /// The shared cache accumulates every file and summary record;
    /// a subsequent full run over the same cache (`mcheck merge`) finds
    /// all of them warm and produces output byte-identical to a
    /// single-process run.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `i >= n`.
    pub fn set_shard(&mut self, shard: Option<(u32, u32)>) -> &mut Self {
        if let Some((i, n)) = shard {
            assert!(
                n > 0 && i < n,
                "shard index {i} out of range for {n} shards"
            );
        }
        self.shard = shard;
        self
    }

    /// The configured shard, if any.
    pub fn shard(&self) -> Option<(u32, u32)> {
        self.shard
    }

    /// Loads a file's record: memo first, then disk. A corrupt disk record
    /// is a counted miss, never an error — the engine simply re-checks the
    /// whole unit and overwrites the record.
    fn lookup_fn_index(&mut self, key: u64, stats: &mut RunStats) -> Option<Arc<FnIndexRecord>> {
        if let Some(rec) = self.fn_index.get(&key) {
            return Some(rec.clone());
        }
        match self.disk.as_ref().map(|d| d.load_fn_index(key)) {
            Some(FnIndexLoad::Hit(rec)) => {
                let rec = Arc::new(rec);
                self.fn_index.insert(key, rec.clone());
                Some(rec)
            }
            Some(FnIndexLoad::Corrupt) => {
                stats.fn_index_corrupt += 1;
                None
            }
            Some(FnIndexLoad::Miss) | None => None,
        }
    }

    fn store_fn_index(&mut self, rec: FnIndexRecord) -> Arc<FnIndexRecord> {
        let rec = Arc::new(rec);
        if let Some(d) = &self.disk {
            d.store_fn_index(&rec);
        }
        self.fn_index.insert(rec.key, rec.clone());
        rec
    }

    /// The content hash of `name`'s summary in component `comp_key`'s
    /// store, or `None` when the store has no entry for it. Memoized per
    /// `(component, name)` — the store behind a component key is immutable
    /// by construction.
    fn summary_hash(
        &mut self,
        comp_key: u64,
        store: Option<&Summaries>,
        name: &str,
    ) -> Option<u64> {
        let summary = store?.get(name)?;
        let mk = {
            let mut h = Fnv1a::new();
            h.write_u64(comp_key).write_str(name);
            h.finish()
        };
        if let Some(&h) = self.sum_hashes.get(&mk) {
            return Some(h);
        }
        let h = summary_content_hash(summary);
        self.sum_hashes.insert(mk, h);
        Some(h)
    }

    fn lookup_component(&mut self, key: u64) -> Option<Arc<ComponentRecord>> {
        if let Some(rec) = self.components.get(&key) {
            return Some(rec.clone());
        }
        let rec = Arc::new(self.disk.as_ref()?.load_component(key)?);
        self.components.insert(key, rec.clone());
        Some(rec)
    }

    fn lookup_program(&mut self, key: u64) -> Option<Arc<ProgramRecord>> {
        if let Some(rec) = self.programs.get(&key) {
            return Some(rec.clone());
        }
        let rec = Arc::new(self.disk.as_ref()?.load_program(key)?);
        self.memo_program(rec.clone());
        Some(rec)
    }

    fn memo_program(&mut self, rec: Arc<ProgramRecord>) {
        if self.programs.len() >= PROGRAM_MEMO_CAP {
            self.programs.clear();
        }
        self.programs.insert(rec.key, rec);
    }

    /// A component's summary store from memory or disk, without computing
    /// it (which needs every member parsed).
    fn cached_summaries(&mut self, key: u64) -> Option<Arc<Summaries>> {
        if let Some(s) = self.summaries.get(&key) {
            return Some(s.clone());
        }
        let rec = self.disk.as_ref()?.load_summaries(key)?;
        let mut store = Summaries::empty();
        for fs in rec.summaries {
            store.insert(fs);
        }
        let store = Arc::new(store);
        self.summaries.insert(key, store.clone());
        Some(store)
    }

    /// The summary store of one component: memoized, then disk, then
    /// computed from the (already parsed) member units. Replaying a cached
    /// store is unobservable because [`SummaryRecord`] round-trips every
    /// field of every summary.
    fn component_summaries(
        &mut self,
        driver: &Driver,
        key: u64,
        members: &[&CheckedUnit],
    ) -> Arc<Summaries> {
        if let Some(s) = self.cached_summaries(key) {
            return s;
        }
        // Function granularity extends to summaries: functions whose
        // inputs are unchanged replay from the per-function memo instead of
        // re-running every checker's summarize pass.
        let store = Summaries::compute_memoized(
            driver,
            members,
            driver.interproc_enabled(),
            &mut self.fn_summaries,
        );
        if let Some(d) = &self.disk {
            d.store_summaries(&SummaryRecord {
                key,
                summaries: store.iter().cloned().collect(),
            });
        }
        let store = Arc::new(store);
        self.summaries.insert(key, store.clone());
        store
    }

    /// Checks `(source, file-name)` pairs as one program, reusing every
    /// cached artifact whose key still matches.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Parse`] on the first file in input order
    /// that fails to parse. Only changed files are ever re-parsed: a file
    /// whose cached record is still valid parsed successfully when the
    /// record was created, and its bytes have not changed since.
    pub fn check_sources(
        &mut self,
        driver: &Driver,
        sources: &[(String, String)],
    ) -> Result<(Vec<Report>, RunStats), DriverError> {
        let suite = driver.suite_key();
        let n = sources.len();
        let mut stats = RunStats {
            units: n,
            ..RunStats::default()
        };

        let src_fps: Vec<u64> = sources
            .iter()
            .map(|(src, _)| Fingerprint::of_source(src))
            .collect();
        let content_keys: Vec<u64> = sources
            .iter()
            .zip(&src_fps)
            .map(|((_, file), fp)| {
                let mut h = Fnv1a::new();
                h.write_str(file).write_u64(*fp);
                h.finish()
            })
            .collect();
        let src_keys: Vec<u64> = content_keys
            .iter()
            .map(|ck| {
                let mut h = Fnv1a::new();
                h.write_u64(suite).write_u64(*ck);
                h.finish()
            })
            .collect();
        let prog_key = {
            let mut h = Fnv1a::new();
            h.write_u64(suite);
            for k in &src_keys {
                h.write_u64(*k);
            }
            h.finish()
        };

        // Tier 1: nothing changed at all. Shards skip this tier — their
        // contract is partial output plus cache population, not a full
        // report set.
        if self.shard.is_none() {
            if let Some(rec) = self.lookup_program(prog_key) {
                stats.program_hit = true;
                stats.source_hits = n;
                return Ok((rec.reports.clone(), stats));
            }
        }

        // Tier 2: each file's one record, at its file slot, answers the
        // file unparsed when it was stored for these exact bytes. Every
        // other file is parsed and diffed against that same record.
        let slots: Vec<u64> = sources
            .iter()
            .map(|(_, file)| fn_index_key(suite, file))
            .collect();
        let mut priors: Vec<Option<Arc<FnIndexRecord>>> = Vec::with_capacity(n);
        for &slot in &slots {
            priors.push(self.lookup_fn_index(slot, &mut stats));
        }
        let mut recs: Vec<Option<Arc<FnIndexRecord>>> = priors
            .iter()
            .zip(&src_keys)
            .map(|(prior, &key)| prior.clone().filter(|r| r.src_key == key))
            .collect();
        stats.source_hits = recs.iter().flatten().count();

        let mut parsed: Vec<Option<ParsedUnit>> = vec![None; n];
        let mut dirty: Vec<usize> = (0..n).filter(|&i| recs[i].is_none()).collect();
        self.parse_into(
            driver,
            sources,
            &content_keys,
            &dirty,
            &mut parsed,
            &mut stats,
        )?;

        // Partition into call-graph components *before* checking anything:
        // under interprocedural analysis a unit's local reports depend on
        // its whole component, so component keys participate in record
        // validation. AST keys and call infos come from the records of
        // clean units and from the fresh parse of dirty ones — no extra
        // parsing.
        let ast_keys: Vec<u64> = (0..n)
            .map(|i| match &recs[i] {
                Some(r) => r.ast_key,
                None => {
                    let pu = parsed[i].as_ref().expect("dirty units are parsed");
                    ast_key_of(suite, &sources[i].1, pu.ast_fp)
                }
            })
            .collect();
        let mut infos: Vec<CallInfo> = (0..n)
            .map(|i| match &recs[i] {
                Some(r) => CallInfo {
                    defines: r.functions.iter().map(|e| e.name.clone()).collect(),
                    calls: r.calls.clone(),
                },
                None => parsed[i].as_ref().expect("parsed").unit.call_info(),
            })
            .collect();
        let comps = call_components(&infos);
        stats.components = comps.len();
        let mut comp_of = vec![0usize; n];
        for (c, comp) in comps.iter().enumerate() {
            for &i in comp {
                comp_of[i] = c;
            }
        }
        let comp_keys: Vec<u64> = comps
            .iter()
            .map(|comp| {
                let mut keys: Vec<u64> = comp.iter().map(|&i| ast_keys[i]).collect();
                keys.sort_unstable();
                let mut h = Fnv1a::new();
                h.write_u64(suite);
                for k in keys {
                    h.write_u64(k);
                }
                h.finish()
            })
            .collect();

        let interproc = driver.interproc_enabled();
        if interproc {
            // Demote records whose reports were computed under a different
            // component content: a changed neighbour means changed callee
            // summaries, so the unit's local reports may change even though
            // its own source did not. The unit is diffed against the same
            // record, so only functions whose summary reads changed re-check.
            let mut demoted: Vec<usize> = (0..n)
                .filter(|&i| {
                    recs[i]
                        .as_ref()
                        .is_some_and(|r| r.summary_key != comp_keys[comp_of[i]])
                })
                .collect();
            if !demoted.is_empty() {
                for &i in &demoted {
                    recs[i] = None;
                }
                self.parse_into(
                    driver,
                    sources,
                    &content_keys,
                    &demoted,
                    &mut parsed,
                    &mut stats,
                )?;
                dirty.append(&mut demoted);
                dirty.sort_unstable();
            }
        }

        // Shard filter: once the dirty list is final (source misses and
        // interproc demotion applied), a shard keeps only the dirty units
        // it owns — partitioned by the suite-independent unit-fingerprint
        // hash, so every shard of the same input agrees on ownership — and
        // claims each one's content so a concurrent writer racing on the
        // same bytes backs off. Unowned dirty units stay unchecked
        // (`recs[i]` remains `None`); the merge run computes or finds them
        // later.
        if let Some((si, sn)) = self.shard {
            let before = dirty.len();
            let mut kept: Vec<usize> = Vec::with_capacity(dirty.len());
            for &i in &dirty {
                if content_keys[i] % u64::from(sn) != u64::from(si) {
                    continue;
                }
                let key = src_keys[i];
                let mine = self.claimed.contains(&key)
                    || self.disk.as_ref().is_none_or(|d| d.claim(key, slots[i]));
                if mine {
                    self.claimed.insert(key);
                    kept.push(i);
                }
            }
            dirty = kept;
            stats.units_deferred = before - dirty.len();
        }

        // Find (or build) the summary store of every component that will
        // run local checks. A stored summary record needs nothing parsed;
        // only the clean members of components whose store missed are.
        let mut unit_summaries: Vec<Option<Arc<Summaries>>> = vec![None; n];
        if interproc && !dirty.is_empty() {
            let mut touched: Vec<usize> = dirty.iter().map(|&i| comp_of[i]).collect();
            touched.sort_unstable();
            touched.dedup();
            let mut missed: Vec<usize> = Vec::new();
            for c in touched {
                match self.cached_summaries(comp_keys[c]) {
                    Some(store) => {
                        for &i in &comps[c] {
                            unit_summaries[i] = Some(store.clone());
                        }
                    }
                    None => missed.push(c),
                }
            }
            let missing: Vec<usize> = missed
                .iter()
                .flat_map(|&c| comps[c].iter().copied())
                .filter(|&i| parsed[i].is_none())
                .collect();
            self.parse_into(
                driver,
                sources,
                &content_keys,
                &missing,
                &mut parsed,
                &mut stats,
            )?;
            for &c in &missed {
                let members: Vec<&CheckedUnit> = comps[c]
                    .iter()
                    .map(|&i| parsed[i].as_ref().expect("parsed above").unit.as_ref())
                    .collect();
                let store = self.component_summaries(driver, comp_keys[c], &members);
                for &i in &comps[c] {
                    unit_summaries[i] = Some(store.clone());
                }
            }
        }

        // Tier 3: diff every dirty unit against its record, red/green per
        // function, and store the new record in the same slot.
        if !dirty.is_empty() {
            let entries = self.check_dirty_fn(
                driver,
                &parsed,
                &dirty,
                &priors,
                &unit_summaries,
                &comp_keys,
                &comp_of,
                &mut stats,
            );
            for (&i, functions) in dirty.iter().zip(entries) {
                // `infos[i]` came from this unit's parse or from a record of
                // the same content: either way it is this unit's call info.
                let rec = FnIndexRecord {
                    key: slots[i],
                    src_key: src_keys[i],
                    ast_key: ast_keys[i],
                    summary_key: if interproc { comp_keys[comp_of[i]] } else { 0 },
                    env_fp: parsed[i].as_ref().expect("parsed above").unit.env_fp(),
                    calls: std::mem::take(&mut infos[i].calls),
                    functions,
                };
                recs[i] = Some(self.store_fn_index(rec));
            }
        }

        let mut reports: Vec<Report> = recs
            .iter()
            .flatten()
            .flat_map(|rec| &rec.functions)
            .flat_map(|e| e.reports.iter().cloned())
            .collect();

        // Whole-program passes need every member unit, which a shard by
        // definition does not have; they run once, at merge time (or in
        // any full-mode run), over the complete unit set.
        if driver.has_program_checkers() && self.shard.is_none() {
            // Decide per component: replay or re-run. The key folds every
            // member's AST key, so a hit replays even when a member's bytes
            // changed without moving a token.
            let mut rerun: Vec<usize> = Vec::new();
            let mut comp_reports: Vec<Option<Arc<ComponentRecord>>> = vec![None; comps.len()];
            for (c, &key) in comp_keys.iter().enumerate() {
                match self.lookup_component(key) {
                    Some(rec) => {
                        stats.component_hits += 1;
                        comp_reports[c] = Some(rec);
                    }
                    None => rerun.push(c),
                }
            }
            stats.components_rechecked = rerun.len();

            if !rerun.is_empty() {
                // Every member of a re-run component needs its parsed unit:
                // the program pass walks real CFGs.
                let missing: Vec<usize> = rerun
                    .iter()
                    .flat_map(|&c| comps[c].iter().copied())
                    .filter(|&i| parsed[i].is_none())
                    .collect();
                self.parse_into(
                    driver,
                    sources,
                    &content_keys,
                    &missing,
                    &mut parsed,
                    &mut stats,
                )?;

                // Program passes read summaries (the lane checker always,
                // every checker under interproc). Components fan out over
                // the pool; outputs merge in component order.
                let mut comp_stores: Vec<Option<Arc<Summaries>>> = vec![None; rerun.len()];
                if driver.needs_summaries() {
                    for (j, &c) in rerun.iter().enumerate() {
                        let members: Vec<&CheckedUnit> = comps[c]
                            .iter()
                            .map(|&i| parsed[i].as_ref().expect("parsed above").unit.as_ref())
                            .collect();
                        comp_stores[j] =
                            Some(self.component_summaries(driver, comp_keys[c], &members));
                    }
                }
                let outs: Vec<Vec<Report>> = driver.pool_map(rerun.len(), |j| {
                    let members: Vec<&CheckedUnit> = comps[rerun[j]]
                        .iter()
                        .map(|&i| parsed[i].as_ref().expect("parsed above").unit.as_ref())
                        .collect();
                    driver.run_program_passes(&members, comp_stores[j].as_deref())
                });
                for (&c, out) in rerun.iter().zip(outs) {
                    let rec = Arc::new(ComponentRecord {
                        key: comp_keys[c],
                        reports: out,
                    });
                    self.components.insert(rec.key, rec.clone());
                    if let Some(d) = &self.disk {
                        d.store_component(&rec);
                    }
                    comp_reports[c] = Some(rec);
                }
            }

            for rec in comp_reports.into_iter().flatten() {
                reports.extend(rec.reports.iter().cloned());
            }
        }

        reports.sort();
        reports.dedup();

        // A shard's report vector is partial; recording it under the
        // program key would poison tier 1 for every full run.
        if self.shard.is_none() {
            let prog = Arc::new(ProgramRecord {
                key: prog_key,
                reports: reports.clone(),
            });
            if let Some(d) = &self.disk {
                d.store_program(&prog);
            }
            self.memo_program(prog);
        }

        // Bound memo growth across watch iterations: keep only the parse,
        // file, component and summary artifacts of the program we just saw.
        let live: HashSet<u64> = content_keys.iter().copied().collect();
        self.checked.retain(|k, _| live.contains(k));
        let live_comps: HashSet<u64> = comp_keys.iter().copied().collect();
        self.summaries.retain(|k, _| live_comps.contains(k));
        self.components.retain(|k, _| live_comps.contains(k));
        let live_slots: HashSet<u64> = slots.iter().copied().collect();
        self.fn_index.retain(|k, _| live_slots.contains(k));
        // The per-function memos are content-addressed and cheap per
        // entry; clear them wholesale only if a pathological watch session
        // ever grows them without bound.
        if self.fn_summaries.len() > 200_000 {
            self.fn_summaries.clear();
        }
        if self.sum_hashes.len() > 100_000 {
            self.sum_hashes.clear();
        }

        Ok((reports, stats))
    }

    /// Parses each unit in `need` over the worker pool, filling `parsed`,
    /// reusing the parse memo where the content is already known.
    ///
    /// # Errors
    ///
    /// Returns the first parse error in input order (callers pass `need`
    /// in ascending order).
    fn parse_into(
        &mut self,
        driver: &Driver,
        sources: &[(String, String)],
        content_keys: &[u64],
        need: &[usize],
        parsed: &mut [Option<ParsedUnit>],
        stats: &mut RunStats,
    ) -> Result<(), DriverError> {
        let todo: Vec<usize> = need
            .iter()
            .copied()
            .filter(|&i| {
                if parsed[i].is_some() {
                    return false;
                }
                if let Some(pu) = self.checked.get(&content_keys[i]) {
                    parsed[i] = Some(pu.clone());
                    return false;
                }
                true
            })
            .collect();
        if todo.is_empty() {
            return Ok(());
        }
        stats.parses += todo.len();

        let outputs = driver.pool_map(todo.len(), |k| {
            let (src, file) = &sources[todo[k]];
            ParsedUnit::parse(src, file)
        });
        for (&i, out) in todo.iter().zip(outputs) {
            let pu = out.map_err(DriverError::Parse)?;
            self.checked.insert(content_keys[i], pu.clone());
            parsed[i] = Some(pu);
        }
        Ok(())
    }

    /// The tier-3 pass: diffs every dirty unit against its prior file
    /// record, replays green functions' cached report slices verbatim,
    /// re-checks red ones over the worker pool, recording fresh dependency
    /// edges, and returns each unit's new entries for the next record.
    ///
    /// A function is **green** when its body fingerprint matches its
    /// recorded entry, the unit environment hash matches, and every read
    /// the entry recorded still resolves to identical content: same-unit
    /// callee body fingerprints under refutation, callee summary content
    /// hashes under interprocedural resolution. Any doubt — no prior
    /// record, a changed environment, a duplicate function name making
    /// name-matching ambiguous, a registered
    /// [`unit_sensitive`](crate::Checker::unit_sensitive) checker reading
    /// what the index does not fingerprint — is red.
    #[allow(clippy::too_many_arguments)]
    fn check_dirty_fn(
        &mut self,
        driver: &Driver,
        parsed: &[Option<ParsedUnit>],
        dirty: &[usize],
        priors: &[Option<Arc<FnIndexRecord>>],
        unit_summaries: &[Option<Arc<Summaries>>],
        comp_keys: &[u64],
        comp_of: &[usize],
        stats: &mut RunStats,
    ) -> Vec<Vec<FnEntry>> {
        let refute = driver.refute_enabled();
        let interproc = driver.interproc_enabled();
        let unit_sensitive = driver.has_unit_sensitive_checkers();

        // Per dirty unit, per function in definition order: the replayed
        // entry (green) or `None` (red, re-checked below).
        let mut plans: Vec<Vec<Option<FnEntry>>> = Vec::with_capacity(dirty.len());
        let mut red: Vec<(usize, usize)> = Vec::new();
        for &i in dirty {
            let cu = &parsed[i].as_ref().expect("parsed above").unit;
            let env = cu.env_fp();
            let fps = cu.fn_fingerprints();
            let names: Vec<&str> = cu.unit.functions().map(|f| f.name.as_str()).collect();
            // Name-matching is only sound when names are unique on both
            // sides; a duplicate definition poisons every green in the
            // unit.
            let unique = {
                let mut seen = HashSet::new();
                names.iter().all(|n| seen.insert(*n))
            };
            let prior = priors[i].as_ref().filter(|p| {
                !unit_sensitive && unique && p.env_fp == env && {
                    let mut seen = HashSet::new();
                    p.functions.iter().all(|e| seen.insert(e.name.as_str()))
                }
            });
            let cur_fp: HashMap<&str, u64> = names
                .iter()
                .copied()
                .zip(fps.iter().map(|fp| fp.body))
                .collect();
            let mut green: Vec<Option<FnEntry>> = Vec::with_capacity(names.len());
            for (f, nm) in names.iter().enumerate() {
                let entry = prior
                    .and_then(|p| p.functions.iter().find(|e| e.name == *nm))
                    .filter(|e| {
                        e.body_fp == fps[f].body
                            && (!refute
                                || e.local_deps
                                    .iter()
                                    .all(|(n, fp)| cur_fp.get(n.as_str()) == Some(fp)))
                    });
                // Summary reads validate against the *new* store: equal
                // content hashes mean the re-check would read identical
                // inputs, so the cached slice replays.
                let entry = entry.filter(|e| {
                    !interproc
                        || e.summary_deps.iter().all(|(n, h)| {
                            self.summary_hash(
                                comp_keys[comp_of[i]],
                                unit_summaries[i].as_deref(),
                                n,
                            ) == *h
                        })
                });
                match entry {
                    Some(e) => {
                        stats.functions_replayed += 1;
                        green.push(Some(e.clone()));
                    }
                    None => {
                        stats.functions_rechecked += 1;
                        red.push((i, f));
                        green.push(None);
                    }
                }
            }
            if prior.is_none() || green.iter().any(Option::is_none) {
                stats.units_checked += 1;
            }
            plans.push(green);
        }

        // The batch is in `(unit, function)` order, which is the order the
        // merge below consumes it in.
        let mut fresh = map_functions(driver, parsed, unit_summaries, &red, |cu, f, cfg, s| {
            driver.check_one_function(cu, f, cfg, s)
        })
        .into_iter();

        let mut units: Vec<Vec<FnEntry>> = Vec::with_capacity(dirty.len());
        for (plan, &i) in plans.into_iter().zip(dirty) {
            let cu = &parsed[i].as_ref().expect("parsed above").unit;
            let fps = cu.fn_fingerprints();
            let calls = cu.fn_call_names();
            let names: Vec<&str> = cu.unit.functions().map(|f| f.name.as_str()).collect();
            let index_of: HashMap<&str, usize> =
                names.iter().enumerate().map(|(k, n)| (*n, k)).collect();
            let mut entries: Vec<FnEntry> = Vec::with_capacity(names.len());
            for (f, green) in plan.into_iter().enumerate() {
                match green {
                    Some(entry) => entries.push(entry),
                    None => {
                        let fo = fresh.next().expect("red function checked");
                        let mut slice: Vec<Report> = fo.metal;
                        for sink in fo.native {
                            slice.extend(sink.reports);
                        }
                        let local_deps = if refute {
                            local_call_closure(f, &names, &index_of, calls, fps)
                        } else {
                            Vec::new()
                        };
                        let summary_deps = if interproc {
                            let mut callees: Vec<&str> =
                                calls[f].iter().map(|s| s.as_str()).collect();
                            callees.sort_unstable();
                            callees.dedup();
                            callees
                                .into_iter()
                                .map(|n| {
                                    let h = self.summary_hash(
                                        comp_keys[comp_of[i]],
                                        unit_summaries[i].as_deref(),
                                        n,
                                    );
                                    (n.to_string(), h)
                                })
                                .collect()
                        } else {
                            Vec::new()
                        };
                        entries.push(FnEntry {
                            name: names[f].to_string(),
                            body_fp: fps[f].body,
                            sig_fp: fps[f].sig,
                            reports: slice,
                            local_deps,
                            summary_deps,
                        });
                    }
                }
            }
            units.push(entries);
        }
        units
    }
}

fn ast_key_of(suite: u64, file: &str, ast_fp: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(suite).write_str(file).write_u64(ast_fp);
    h.finish()
}

/// The mutable-slot key of a file's function index: suite plus file name,
/// deliberately *not* content — the record is a snapshot that each run
/// diffs against and overwrites.
fn fn_index_key(suite: u64, file: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(suite).write_str(file);
    h.finish()
}

/// The names and body fingerprints of every same-unit function
/// transitively reachable from `start` through call edges — the exact
/// callee-body set witness refutation may inline while replaying one of
/// `start`'s reports.
fn local_call_closure(
    start: usize,
    names: &[&str],
    index_of: &HashMap<&str, usize>,
    calls: &[Vec<String>],
    fps: &[mc_ast::FnFingerprint],
) -> Vec<(String, u64)> {
    let mut seen: HashSet<usize> = HashSet::new();
    seen.insert(start);
    let mut stack = vec![start];
    while let Some(k) = stack.pop() {
        for callee in &calls[k] {
            if let Some(&t) = index_of.get(callee.as_str()) {
                if seen.insert(t) {
                    stack.push(t);
                }
            }
        }
    }
    seen.remove(&start);
    let mut deps: Vec<(String, u64)> = seen
        .into_iter()
        .map(|t| (names[t].to_string(), fps[t].body))
        .collect();
    deps.sort_unstable();
    deps
}

#[cfg(test)]
mod tests {
    use super::*;

    const SM: &str = r#"
        sm wait_for_db {
            decl { scalar } addr, buf;
            start:
                { WAIT_FOR_DB_FULL(addr); } ==> stop
              | { MISCBUS_READ_DB(addr, buf); } ==> { err("Buffer not synchronized"); }
            ;
        }
    "#;

    fn driver() -> Driver {
        let mut d = Driver::new();
        d.add_metal_source(SM).unwrap();
        d
    }

    fn sources() -> Vec<(String, String)> {
        (0..6)
            .map(|i| {
                (
                    format!(
                        "void f{i}(void) {{ MISCBUS_READ_DB(a, b); }}\n\
                         void g{i}(void) {{ WAIT_FOR_DB_FULL(x); MISCBUS_READ_DB(x, y); }}"
                    ),
                    format!("u{i}.c"),
                )
            })
            .collect()
    }

    /// The reference every run must reproduce: a fresh, cold engine.
    fn oracle(d: &Driver, srcs: &[(String, String)]) -> Vec<Report> {
        CheckEngine::in_memory().check_sources(d, srcs).unwrap().0
    }

    #[test]
    fn engine_matches_the_cold_oracle_and_memoizes() {
        let d = driver();
        let srcs = sources();
        let expected = oracle(&d, &srcs);

        let mut engine = CheckEngine::in_memory();
        let (cold, s1) = engine.check_sources(&d, &srcs).unwrap();
        assert_eq!(cold, expected);
        assert!(!s1.program_hit);
        assert_eq!(s1.units_checked, srcs.len());

        let (warm, s2) = engine.check_sources(&d, &srcs).unwrap();
        assert_eq!(warm, expected);
        assert!(s2.program_hit);
        assert_eq!(s2.units_checked, 0);
        assert_eq!(s2.parses, 0);
    }

    #[test]
    fn one_dirty_unit_rechecks_only_itself() {
        let d = driver();
        let mut srcs = sources();
        let mut engine = CheckEngine::in_memory();
        engine.check_sources(&d, &srcs).unwrap();

        srcs[2]
            .0
            .push_str("\nvoid extra2(void) { MISCBUS_READ_DB(p, q); }\n");
        let (reports, stats) = engine.check_sources(&d, &srcs).unwrap();
        assert_eq!(stats.units_checked, 1);
        assert_eq!(stats.source_hits, srcs.len() - 1);
        assert_eq!(reports, oracle(&d, &srcs));
    }

    #[test]
    fn layout_only_edit_replays_every_function_green() {
        let d = driver();
        let mut srcs = sources();
        let mut engine = CheckEngine::in_memory();
        let (cold, _) = engine.check_sources(&d, &srcs).unwrap();

        // Trailing whitespace displaces no token: every span-folded body
        // fingerprint is unchanged, so the unit's record replays in full.
        srcs[0].0.push_str("   \n");
        let (warm, stats) = engine.check_sources(&d, &srcs).unwrap();
        assert_eq!(stats.source_hits, srcs.len() - 1);
        assert_eq!(stats.functions_rechecked, 0);
        assert_eq!(stats.functions_replayed, 2);
        assert_eq!(stats.units_checked, 0);
        assert_eq!(warm, cold);
    }

    /// Reports nothing but keeps the default program pass, so a driver
    /// with it has component records.
    struct ComponentCount;

    impl crate::Checker for ComponentCount {
        fn name(&self) -> &str {
            "component_count"
        }
        fn check_function(&self, _: &crate::FunctionContext<'_>, _: &mut crate::CheckSink) {}
    }

    #[test]
    fn memo_tables_stay_bounded_across_many_distinct_edits() {
        let mut d = driver();
        d.add_checker(Box::new(ComponentCount));
        let mut srcs = sources();
        let mut engine = CheckEngine::in_memory();
        let (primed, _) = engine.check_sources(&d, &srcs).unwrap();
        let pristine = srcs[0].0.clone();
        let comps = srcs.len();
        for k in 0..2 * PROGRAM_MEMO_CAP + 10 {
            srcs[0].0 = format!("{pristine}\nvoid edit{k}(void) {{ a(); }}\n");
            let (reports, stats) = engine.check_sources(&d, &srcs).unwrap();
            assert!(!stats.program_hit, "edit {k} is new");
            assert_eq!(stats.component_hits, comps - 1, "edit {k}: {stats:?}");
            assert_eq!(reports, primed, "edit {k} adds no report");
            assert!(engine.programs.len() <= PROGRAM_MEMO_CAP, "edit {k}");
            assert!(engine.components.len() <= comps, "edit {k}");
        }
        // An in-memory revert within the bound still replays the program.
        let last = srcs[0].0.clone();
        srcs[0].0 = pristine;
        engine.check_sources(&d, &srcs).unwrap();
        srcs[0].0 = last;
        assert!(engine.check_sources(&d, &srcs).unwrap().1.program_hit);
    }

    #[test]
    fn suite_change_misses_everything() {
        let srcs = sources();
        let mut engine = CheckEngine::in_memory();
        let d1 = driver();
        engine.check_sources(&d1, &srcs).unwrap();

        let mut d2 = driver();
        d2.prune(false);
        assert_ne!(d1.suite_key(), d2.suite_key());
        let (reports, stats) = engine.check_sources(&d2, &srcs).unwrap();
        assert!(!stats.program_hit);
        assert_eq!(stats.units_checked, srcs.len());
        assert_eq!(reports, oracle(&d2, &srcs));
    }

    #[test]
    fn config_epoch_invalidates() {
        let srcs = sources();
        let mut engine = CheckEngine::in_memory();
        let d1 = driver();
        engine.check_sources(&d1, &srcs).unwrap();

        let mut d2 = driver();
        d2.set_config_epoch(7);
        let (_, stats) = engine.check_sources(&d2, &srcs).unwrap();
        assert!(!stats.program_hit);
        assert_eq!(stats.units_checked, srcs.len());
    }

    #[test]
    fn refuted_and_sat_verdicts_survive_the_cache() {
        // Verdicts are decided inside the local pass, so cached file
        // records carry them: warm runs must replay refuted/sat reports
        // byte-identically, without re-running the solver.
        let mut d = driver();
        d.refute(true);
        let srcs: Vec<(String, String)> = vec![
            (
                "void inf(void) {\n\
                 nak = gCredit - gDebit;\n\
                 if (gCredit == gDebit) {\n\
                 if (nak > 0) { MISCBUS_READ_DB(a, b); }\n\
                 }\n\
                 }"
                .into(),
                "inf.c".into(),
            ),
            (
                "void sat(void) { if (gLen > 4) { MISCBUS_READ_DB(x, y); } }".into(),
                "sat.c".into(),
            ),
        ];
        let expected = oracle(&d, &srcs);
        assert!(expected
            .iter()
            .any(|r| r.verdict == crate::report::Verdict::Refuted));
        assert!(expected
            .iter()
            .any(|r| r.verdict == crate::report::Verdict::Sat && !r.model.is_empty()));

        let mut engine = CheckEngine::in_memory();
        let (cold, s1) = engine.check_sources(&d, &srcs).unwrap();
        assert_eq!(cold, expected);
        assert_eq!(s1.units_checked, srcs.len());
        let (warm, s2) = engine.check_sources(&d, &srcs).unwrap();
        assert!(s2.program_hit);
        assert_eq!(warm, expected);
    }

    #[test]
    fn parse_error_only_surfaces_for_dirty_units() {
        let d = driver();
        let mut srcs = sources();
        let mut engine = CheckEngine::in_memory();
        engine.check_sources(&d, &srcs).unwrap();

        srcs[3].0 = "void broken( {".into();
        let err = engine.check_sources(&d, &srcs).unwrap_err();
        assert!(matches!(err, DriverError::Parse(_)));
        assert!(err.to_string().contains("u3.c"));

        // Fixing the file recovers, and clean units were never re-parsed.
        srcs[3].0 = "void fixed(void) { a(); }".into();
        let (_, stats) = engine.check_sources(&d, &srcs).unwrap();
        assert_eq!(stats.units_checked, 1);
    }

    /// Reports, on `reader`, the statement count of its sibling function
    /// — read through `ctx.unit`, a dependency the function index does not
    /// record.
    struct SiblingSize;

    impl crate::Checker for SiblingSize {
        fn name(&self) -> &str {
            "sibling_size"
        }
        fn check_function(&self, ctx: &crate::FunctionContext<'_>, sink: &mut crate::CheckSink) {
            if ctx.function.name != "reader" {
                return;
            }
            let n = ctx
                .unit
                .functions()
                .find(|f| f.name == "sibling")
                .map_or(0, |f| f.body.len());
            sink.push(Report::warning(
                self.name(),
                ctx.file,
                &ctx.function.name,
                ctx.function.span,
                format!("sibling has {n} statement(s)"),
            ));
        }
        fn unit_sensitive(&self) -> bool {
            true
        }
    }

    #[test]
    fn unit_sensitive_checker_rechecks_every_function_of_a_dirty_unit() {
        let mut d = driver();
        d.add_checker(Box::new(SiblingSize));
        let unit = |sibling: &str| {
            format!(
                "void reader(void) {{ a(); }}\n\
                 void sibling(void) {{ {sibling} }}\n\
                 void other(void) {{ MISCBUS_READ_DB(p, q); }}\n"
            )
        };
        let mut srcs = sources();
        srcs.push((unit("b();"), "s.c".into()));
        let mut engine = CheckEngine::in_memory();
        engine.check_sources(&d, &srcs).unwrap();

        // Only the sibling's body changes: `reader`'s own fingerprint and
        // the unit environment stay the same.
        srcs.last_mut().unwrap().0 = unit("b(); c();");
        let (warm, stats) = engine.check_sources(&d, &srcs).unwrap();
        assert_eq!(warm, oracle(&d, &srcs));
        assert!(warm
            .iter()
            .any(|r| r.message == "sibling has 2 statement(s)"));
        assert_eq!(stats.units_checked, 1);
        assert_eq!(stats.functions_rechecked, 3, "{stats:?}");
        assert_eq!(stats.functions_replayed, 0, "{stats:?}");
    }
}
