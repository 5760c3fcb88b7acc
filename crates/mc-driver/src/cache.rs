//! On-disk cache records for the incremental check engine.
//!
//! Every record is one mc-json document in one file under the cache
//! directory, named after the content-addressed key it answers
//! (`usrc-<key>.json`, `uast-<key>.json`, `comp-<key>.json`,
//! `sumy-<key>.json`, `prog-<key>.json`). Keys already fold the driver's
//! [`suite_key`](crate::Driver::suite_key), so one directory can be shared
//! by different checker suites, configurations, and crate versions without
//! cross-talk.
//!
//! The directory can be size-bounded ([`DiskCache::set_cap_bytes`]):
//! every store then evicts record files oldest-first until the directory
//! fits. Eviction only costs future hits — a capped cache produces
//! byte-identical reports to an unbounded one.
//!
//! The cache is *safety-first*: loads validate the record kind, format
//! version, and embedded key against the file they came from, and **any**
//! failure — missing file, unreadable file, JSON syntax error, wrong shape,
//! mismatched key — is a miss, never an error. Stores are best-effort
//! (write to a temp file, then rename into place; failures are swallowed):
//! a broken disk degrades a warm run into a cold run, nothing worse.

use crate::report::Report;
use mc_cfg::{CycleWarning, FnSummary};
use mc_json::{field, object, FromJson, Json, JsonError, ToJson};
use std::io;
use std::path::{Path, PathBuf};

pub use crate::driver::CACHE_FORMAT_VERSION;

/// Formats a cache key the way record files and fields spell it.
///
/// Keys are 64-bit hashes and routinely exceed `i64::MAX`, which mc-json
/// integers cannot hold losslessly, so keys are stored as fixed-width hex
/// strings.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

fn key_from_json(v: &Json, name: &str) -> Result<u64, JsonError> {
    let s: String = field(v, name)?;
    if s.len() != 16 {
        return Err(JsonError::expected("16-digit hex key"));
    }
    u64::from_str_radix(&s, 16).map_err(|_| JsonError::expected("hex key"))
}

fn check_tag(v: &Json, kind: &str) -> Result<(), JsonError> {
    let k: String = field(v, "kind")?;
    if k != kind {
        return Err(JsonError(format!("record kind `{k}`, expected `{kind}`")));
    }
    let version: u32 = field(v, "version")?;
    if version != CACHE_FORMAT_VERSION {
        return Err(JsonError(format!("cache format version {version}")));
    }
    Ok(())
}

/// The cached local results of one translation unit.
///
/// Keyed two ways: by `src_key` (hash of the raw source text — the fast
/// path, no parsing needed) and by `ast_key` (hash of the parsed AST
/// including every node span — hit when only layout that displaces no
/// token changed). `defines`/`calls` are the unit's [`CallInfo`]
/// (`crate::call_info`), stored so the engine can rebuild the unit-level
/// call graph without re-parsing clean units.
///
/// [`CallInfo`]: crate::CallInfo
#[derive(Debug, Clone, PartialEq)]
pub struct UnitRecord {
    /// Key of the unit's raw source text (suite-scoped).
    pub src_key: u64,
    /// Key of the unit's parsed AST (suite-scoped).
    pub ast_key: u64,
    /// The component key the unit's local reports were computed under when
    /// interprocedural call-site resolution was on, `0` otherwise.
    ///
    /// With summaries in play a unit's local reports depend on its whole
    /// call-graph component, not just its own source: the engine compares
    /// this against the component key of the current run and demotes the
    /// record to dirty on mismatch.
    pub summary_key: u64,
    /// Function names the unit defines, in definition order.
    pub defines: Vec<String>,
    /// Function names the unit calls, sorted.
    pub calls: Vec<String>,
    /// The unit's local diagnostics, in `(function, checker)` order,
    /// exactly as a cold run produces them.
    pub reports: Vec<Report>,
}

impl ToJson for UnitRecord {
    fn to_json(&self) -> Json {
        object(vec![
            ("kind", Json::Str("unit".into())),
            ("version", CACHE_FORMAT_VERSION.to_json()),
            ("src_key", Json::Str(key_hex(self.src_key))),
            ("ast_key", Json::Str(key_hex(self.ast_key))),
            ("summary_key", Json::Str(key_hex(self.summary_key))),
            ("defines", self.defines.to_json()),
            ("calls", self.calls.to_json()),
            ("reports", self.reports.to_json()),
        ])
    }
}

impl FromJson for UnitRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        check_tag(v, "unit")?;
        Ok(UnitRecord {
            src_key: key_from_json(v, "src_key")?,
            ast_key: key_from_json(v, "ast_key")?,
            summary_key: key_from_json(v, "summary_key")?,
            defines: field(v, "defines")?,
            calls: field(v, "calls")?,
            reports: field(v, "reports")?,
        })
    }
}

/// The cached reports of one call-graph component's program passes.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentRecord {
    /// Key folding the suite key and every member unit's AST key.
    pub key: u64,
    /// The component's program-pass diagnostics in checker order.
    pub reports: Vec<Report>,
}

impl ToJson for ComponentRecord {
    fn to_json(&self) -> Json {
        object(vec![
            ("kind", Json::Str("component".into())),
            ("version", CACHE_FORMAT_VERSION.to_json()),
            ("key", Json::Str(key_hex(self.key))),
            ("reports", self.reports.to_json()),
        ])
    }
}

impl FromJson for ComponentRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        check_tag(v, "component")?;
        Ok(ComponentRecord {
            key: key_from_json(v, "key")?,
            reports: field(v, "reports")?,
        })
    }
}

/// The cached function summaries of one call-graph component.
///
/// Keyed exactly like [`ComponentRecord`] (suite key + every member
/// unit's AST key): summaries are a pure function of the component's
/// sources and the checker suite. Replaying a cached store instead of
/// recomputing it must be unobservable, so the full [`FnSummary`]
/// round-trips — counters, traces, transfers, clobbers, warnings.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRecord {
    /// Key folding the suite key and every member unit's AST key.
    pub key: u64,
    /// The component's function summaries, in function-name order.
    pub summaries: Vec<FnSummary>,
}

fn warning_to_json(w: &CycleWarning) -> Json {
    object(vec![
        ("function", Json::Str(w.function.clone())),
        ("keys", w.keys.to_json()),
        ("description", Json::Str(w.description.clone())),
    ])
}

fn warning_from_json(v: &Json) -> Result<CycleWarning, JsonError> {
    Ok(CycleWarning {
        function: field(v, "function")?,
        keys: field(v, "keys")?,
        description: field(v, "description")?,
    })
}

fn summary_to_json(s: &FnSummary) -> Json {
    object(vec![
        ("function", Json::Str(s.function.clone())),
        ("file", Json::Str(s.file.clone())),
        ("calls", s.calls.to_json()),
        ("counters", s.counters.to_json()),
        ("traces", s.traces.to_json()),
        ("transfers", s.transfers.to_json()),
        ("clobbers", s.clobbers.to_json()),
        (
            "warnings",
            Json::Array(s.warnings.iter().map(warning_to_json).collect()),
        ),
    ])
}

fn summary_from_json(v: &Json) -> Result<FnSummary, JsonError> {
    let warnings = v
        .get("warnings")
        .and_then(|w| w.as_array())
        .ok_or_else(|| JsonError::expected("warnings array"))?
        .iter()
        .map(warning_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FnSummary {
        function: field(v, "function")?,
        file: field(v, "file")?,
        calls: field(v, "calls")?,
        counters: field(v, "counters")?,
        traces: field(v, "traces")?,
        transfers: field(v, "transfers")?,
        clobbers: field(v, "clobbers")?,
        warnings,
    })
}

impl ToJson for SummaryRecord {
    fn to_json(&self) -> Json {
        object(vec![
            ("kind", Json::Str("summaries".into())),
            ("version", CACHE_FORMAT_VERSION.to_json()),
            ("key", Json::Str(key_hex(self.key))),
            (
                "summaries",
                Json::Array(self.summaries.iter().map(summary_to_json).collect()),
            ),
        ])
    }
}

impl FromJson for SummaryRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        check_tag(v, "summaries")?;
        let summaries = v
            .get("summaries")
            .and_then(|s| s.as_array())
            .ok_or_else(|| JsonError::expected("summaries array"))?
            .iter()
            .map(summary_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SummaryRecord {
            key: key_from_json(v, "key")?,
            summaries,
        })
    }
}

/// Stable content hash of one function summary — the *interface hash* a
/// dependent function records when its reports consult this summary.
///
/// Hashing the serialized summary (rather than the inputs that produced
/// it) is what lets a callee body edit that leaves the summary unchanged
/// green-light every dependent.
pub fn summary_content_hash(s: &FnSummary) -> u64 {
    mc_ast::fnv1a(mc_json::to_string(&summary_to_json(s)).as_bytes())
}

/// One function's cached check results plus the reads they depended on,
/// as recorded by the function-granular red/green engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FnEntry {
    /// Function name.
    pub name: String,
    /// Span-folded body fingerprint ([`mc_ast::FnFingerprint::body`]).
    pub body_fp: u64,
    /// Signature/interface fingerprint ([`mc_ast::FnFingerprint::sig`]).
    pub sig_fp: u64,
    /// This function's local diagnostics, in checker order, exactly the
    /// slice a cold run contributes for it.
    pub reports: Vec<Report>,
    /// Program-pass facts emitted per native checker (registration
    /// order). Facts are opaque and never cached; the *counts* let the
    /// engine skip fact regeneration entirely for functions that emit
    /// none.
    pub fact_counts: Vec<u64>,
    /// Recorded same-unit reads: every function in this unit transitively
    /// reachable from this one through call edges, with its body
    /// fingerprint at check time. Witness refutation inlines same-file
    /// callee bodies, so a change to any of these can change this
    /// function's verdicts.
    pub local_deps: Vec<(String, u64)>,
    /// Recorded summary reads: every callee name this function's checks
    /// could resolve through the summary store, with the callee's summary
    /// content hash at check time ([`summary_content_hash`]), or `None`
    /// if the name had no summary (so a *newly appearing* summary also
    /// turns this function red).
    pub summary_deps: Vec<(String, Option<u64>)>,
}

fn dep_to_json(name: &str, hash: Option<u64>) -> Json {
    object(vec![
        ("name", Json::Str(name.into())),
        ("hash", Json::Str(hash.map(key_hex).unwrap_or_default())),
    ])
}

fn dep_from_json(v: &Json) -> Result<(String, Option<u64>), JsonError> {
    let name: String = field(v, "name")?;
    let s: String = field(v, "hash")?;
    if s.is_empty() {
        return Ok((name, None));
    }
    if s.len() != 16 {
        return Err(JsonError::expected("16-digit hex key"));
    }
    let h = u64::from_str_radix(&s, 16).map_err(|_| JsonError::expected("hex key"))?;
    Ok((name, Some(h)))
}

fn fn_entry_to_json(e: &FnEntry) -> Json {
    object(vec![
        ("name", Json::Str(e.name.clone())),
        ("body_fp", Json::Str(key_hex(e.body_fp))),
        ("sig_fp", Json::Str(key_hex(e.sig_fp))),
        ("reports", e.reports.to_json()),
        ("fact_counts", e.fact_counts.to_json()),
        (
            "local_deps",
            Json::Array(
                e.local_deps
                    .iter()
                    .map(|(n, fp)| dep_to_json(n, Some(*fp)))
                    .collect(),
            ),
        ),
        (
            "summary_deps",
            Json::Array(
                e.summary_deps
                    .iter()
                    .map(|(n, h)| dep_to_json(n, *h))
                    .collect(),
            ),
        ),
    ])
}

fn fn_entry_from_json(v: &Json) -> Result<FnEntry, JsonError> {
    let deps = |name: &str| -> Result<Vec<(String, Option<u64>)>, JsonError> {
        v.get(name)
            .and_then(|d| d.as_array())
            .ok_or_else(|| JsonError::expected("dep array"))?
            .iter()
            .map(dep_from_json)
            .collect()
    };
    let local_deps = deps("local_deps")?
        .into_iter()
        .map(|(n, h)| {
            h.map(|h| (n, h))
                .ok_or_else(|| JsonError::expected("body fp"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FnEntry {
        name: field(v, "name")?,
        body_fp: key_from_json(v, "body_fp")?,
        sig_fp: key_from_json(v, "sig_fp")?,
        reports: field(v, "reports")?,
        fact_counts: field(v, "fact_counts")?,
        local_deps,
        summary_deps: deps("summary_deps")?,
    })
}

/// The per-function dependency index of one source file — the red/green
/// baseline a dirty file is diffed against.
///
/// Unlike the other records, which are immutable values at
/// content-addressed keys, this one lives at a *file-addressed* slot
/// (`H(suite, file name)`) and is overwritten whenever the file's checked
/// state moves: it always describes the latest snapshot the engine
/// produced for that file under that suite.
#[derive(Debug, Clone, PartialEq)]
pub struct FnIndexRecord {
    /// Key folding the suite key and the file name.
    pub key: u64,
    /// The unit's source key at snapshot time, for freshness checks
    /// without a parse.
    pub src_key: u64,
    /// The unit's environment hash at snapshot time
    /// ([`mc_ast::Fingerprint::of_unit_env`] plus the unit's written-global
    /// set).
    pub env_fp: u64,
    /// Per-function entries in definition order.
    pub functions: Vec<FnEntry>,
}

impl ToJson for FnIndexRecord {
    fn to_json(&self) -> Json {
        object(vec![
            ("kind", Json::Str("fnindex".into())),
            ("version", CACHE_FORMAT_VERSION.to_json()),
            ("key", Json::Str(key_hex(self.key))),
            ("src_key", Json::Str(key_hex(self.src_key))),
            ("env_fp", Json::Str(key_hex(self.env_fp))),
            (
                "functions",
                Json::Array(self.functions.iter().map(fn_entry_to_json).collect()),
            ),
        ])
    }
}

impl FromJson for FnIndexRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        check_tag(v, "fnindex")?;
        let functions = v
            .get("functions")
            .and_then(|f| f.as_array())
            .ok_or_else(|| JsonError::expected("functions array"))?
            .iter()
            .map(fn_entry_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FnIndexRecord {
            key: key_from_json(v, "key")?,
            src_key: key_from_json(v, "src_key")?,
            env_fp: key_from_json(v, "env_fp")?,
            functions,
        })
    }
}

/// The result of a function-index load: a corrupt record is still a miss
/// (any doubt ⇒ miss, never a panic), but the engine counts it loudly in
/// [`RunStats::fn_index_corrupt`](crate::RunStats::fn_index_corrupt).
#[derive(Debug)]
pub enum FnIndexLoad {
    /// A validated record.
    Hit(FnIndexRecord),
    /// No record stored under this key.
    Miss,
    /// A record file exists but fails to parse or validate.
    Corrupt,
}

/// The cached final report vector of one whole program run.
///
/// A hit short-circuits everything: when no source changed (and the suite
/// key matches), the engine returns these reports without parsing a single
/// file.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramRecord {
    /// Key folding the suite key and every unit's source key, in input
    /// order.
    pub key: u64,
    /// The sorted, deduplicated report vector of the whole run.
    pub reports: Vec<Report>,
}

impl ToJson for ProgramRecord {
    fn to_json(&self) -> Json {
        object(vec![
            ("kind", Json::Str("program".into())),
            ("version", CACHE_FORMAT_VERSION.to_json()),
            ("key", Json::Str(key_hex(self.key))),
            ("reports", self.reports.to_json()),
        ])
    }
}

impl FromJson for ProgramRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        check_tag(v, "program")?;
        Ok(ProgramRecord {
            key: key_from_json(v, "key")?,
            reports: field(v, "reports")?,
        })
    }
}

/// How long a claim file marks its record as in-flight. A claim older
/// than this belongs to a dead writer and may be taken over or evicted.
const CLAIM_TTL: std::time::Duration = std::time::Duration::from_secs(600);

/// The current time on `dir`'s filesystem clock: the mtime of a scratch
/// file created there and removed again.
///
/// Record mtimes come from the kernel's file-timestamp clock, which can lag
/// `SystemTime::now()` by up to a scheduler tick. A `run_start` taken from
/// `now()` could therefore be *later* than the mtime of a record another
/// writer stores just after this handle opens, and eviction would treat
/// that fresh record as old. Stamping from the same clock as the records
/// rules this out. Falls back to `now()` if the scratch file cannot be
/// made (stores will then fail too and every load is a miss).
fn fs_now(dir: &Path) -> std::time::SystemTime {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = dir.join(format!("open-{}-{seq}.stamp", std::process::id()));
    let stamp = std::fs::File::create(&path)
        .and_then(|f| f.metadata())
        .and_then(|m| m.modified());
    let _ = std::fs::remove_file(&path);
    stamp.unwrap_or_else(|_| std::time::SystemTime::now())
}

/// A directory of cache record files.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
    cap_bytes: Option<u64>,
    /// When this handle was opened, read from the filesystem's clock (see
    /// [`fs_now`]). Eviction never removes files modified at or after this
    /// stamp **unless this handle wrote them**, so
    /// concurrent writers sharing the directory (the shard farm) cannot
    /// evict each other's fresh records out from under a merge, while a
    /// single capped run still trims its own output to the bound.
    run_start: std::time::SystemTime,
    /// Record paths this handle wrote, shared across clones so a cloned
    /// handle keeps the same eviction identity.
    own: std::sync::Arc<std::sync::Mutex<std::collections::HashSet<PathBuf>>>,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created. This is
    /// the only cache operation that reports failure — a cache dir the
    /// user asked for but cannot exist is a configuration error, while
    /// individual record problems later are silently treated as misses.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskCache {
            run_start: fs_now(&dir),
            dir,
            cap_bytes: None,
            own: std::sync::Arc::new(std::sync::Mutex::new(std::collections::HashSet::new())),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bounds the total size of record files in the directory.
    ///
    /// After every store, record files are evicted oldest-first (by
    /// modification time, ties broken by file name) until the directory is
    /// within `cap` bytes. `None` removes the bound. Eviction is invisible
    /// to correctness — an evicted record is simply a future miss.
    pub fn set_cap_bytes(&mut self, cap: Option<u64>) -> &mut Self {
        self.cap_bytes = cap;
        self
    }

    /// The configured size bound, if any.
    pub fn cap_bytes(&self) -> Option<u64> {
        self.cap_bytes
    }

    /// Evicts record files oldest-first until the directory fits the cap.
    ///
    /// Two classes of file are never evicted, so concurrent writers on a
    /// shared cache directory cannot starve each other:
    ///
    /// * files modified at or after this handle's `run_start` that this
    ///   handle did *not* write itself — a fresh record another shard
    ///   just stored may be read back momentarily (this handle's own
    ///   writes stay evictable, so a single capped run still honors the
    ///   bound);
    /// * records whose key is covered by a live claim file (see
    ///   [`DiskCache::claim`]) — the claiming writer is still working on
    ///   or relying on them. Claims older than [`CLAIM_TTL`] are dead and
    ///   protect nothing.
    ///
    /// The directory may therefore exceed the cap transiently during a
    /// concurrent run; the next store after the writers finish trims it.
    fn enforce_cap(&self) {
        let Some(cap) = self.cap_bytes else {
            return;
        };
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let now = std::time::SystemTime::now();
        let mut claimed: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
        for e in entries.flatten() {
            let path = e.path();
            if path.extension().is_none_or(|x| x != "json") {
                continue;
            }
            let Ok(meta) = e.metadata() else { continue };
            let Ok(mtime) = meta.modified() else { continue };
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                if let Some(key) = stem.strip_prefix("clm-") {
                    let fresh = now
                        .duration_since(mtime)
                        .map(|age| age < CLAIM_TTL)
                        .unwrap_or(true);
                    if fresh {
                        claimed.insert(key.to_string());
                    }
                }
            }
            files.push((mtime, path, meta.len()));
        }
        let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
        if total <= cap {
            return;
        }
        files.sort();
        let own = self.own.lock().expect("own-writes lock");
        for (mtime, path, len) in files {
            if total <= cap {
                break;
            }
            if mtime >= self.run_start && !own.contains(&path) {
                continue;
            }
            let protected = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|stem| stem.rsplit('-').next())
                .is_some_and(|key| claimed.contains(key));
            if protected {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                total -= len;
            }
        }
    }

    /// Claims `key` for this writer: returns `true` when the caller now
    /// holds the claim and should compute (and store) the record, `false`
    /// when another live writer already holds it.
    ///
    /// The claim is a `clm-<key>.json` file created with `create_new`, so
    /// exactly one concurrent writer wins a fresh key. A claim whose
    /// mtime is older than `CLAIM_TTL` (ten minutes) belongs to a dead
    /// writer and is taken over. Claims are purely an optimization plus an eviction
    /// guard — never a correctness dependency: records are
    /// content-addressed and stored via tmp+rename, so two writers
    /// computing the same key merely duplicate work, and the last rename
    /// wins with identical bytes.
    pub fn claim(&self, key: u64) -> bool {
        let path = self.dir.join(format!("clm-{}.json", key_hex(key)));
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(_) => true,
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let stale = std::fs::metadata(&path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|mt| std::time::SystemTime::now().duration_since(mt).ok())
                    .is_some_and(|age| age >= CLAIM_TTL);
                // Taking over a stale claim can race another taker; the
                // worst case is duplicated work, which is harmless.
                stale && std::fs::write(&path, b"").is_ok()
            }
            Err(_) => false,
        }
    }

    fn path(&self, prefix: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{prefix}-{}.json", key_hex(key)))
    }

    /// Loads and validates one record file; any failure is a miss.
    fn load<T: FromJson>(&self, prefix: &str, key: u64) -> Option<T> {
        let text = std::fs::read_to_string(self.path(prefix, key)).ok()?;
        mc_json::from_str(&text).ok()
    }

    /// Writes `text` to `path` via a temp file + rename so concurrent
    /// readers never observe a half-written record. Best-effort: failures
    /// only cost future hits.
    fn store(&self, path: PathBuf, text: &str) {
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        if std::fs::write(&tmp, text).is_ok() {
            if std::fs::rename(&tmp, &path).is_err() {
                let _ = std::fs::remove_file(&tmp);
            } else {
                self.own.lock().expect("own-writes lock").insert(path);
            }
        }
        self.enforce_cap();
    }

    /// Looks a unit up by the hash of its raw source text.
    pub fn load_unit_by_source(&self, src_key: u64) -> Option<UnitRecord> {
        let rec: UnitRecord = self.load("usrc", src_key)?;
        (rec.src_key == src_key).then_some(rec)
    }

    /// Looks a unit up by the hash of its parsed AST (the fallback when
    /// only layout changed).
    pub fn load_unit_by_ast(&self, ast_key: u64) -> Option<UnitRecord> {
        let rec: UnitRecord = self.load("uast", ast_key)?;
        (rec.ast_key == ast_key).then_some(rec)
    }

    /// Stores a unit record under both of its keys.
    pub fn store_unit(&self, rec: &UnitRecord) {
        let text = mc_json::to_string(rec);
        self.store(self.path("usrc", rec.src_key), &text);
        self.store(self.path("uast", rec.ast_key), &text);
    }

    /// Looks up a component's program-pass reports.
    pub fn load_component(&self, key: u64) -> Option<ComponentRecord> {
        let rec: ComponentRecord = self.load("comp", key)?;
        (rec.key == key).then_some(rec)
    }

    /// Stores a component record.
    pub fn store_component(&self, rec: &ComponentRecord) {
        self.store(self.path("comp", rec.key), &mc_json::to_string(rec));
    }

    /// Looks up a component's cached function summaries.
    pub fn load_summaries(&self, key: u64) -> Option<SummaryRecord> {
        let rec: SummaryRecord = self.load("sumy", key)?;
        (rec.key == key).then_some(rec)
    }

    /// Stores a component's function summaries.
    pub fn store_summaries(&self, rec: &SummaryRecord) {
        self.store(self.path("sumy", rec.key), &mc_json::to_string(rec));
    }

    /// Looks up a file's per-function dependency index, distinguishing a
    /// missing record from a corrupt one so the engine can surface the
    /// latter as a stat.
    pub fn load_fn_index(&self, key: u64) -> FnIndexLoad {
        let Ok(text) = std::fs::read_to_string(self.path("fnidx", key)) else {
            return FnIndexLoad::Miss;
        };
        match mc_json::from_str::<FnIndexRecord>(&text) {
            Ok(rec) if rec.key == key => FnIndexLoad::Hit(rec),
            _ => FnIndexLoad::Corrupt,
        }
    }

    /// Stores (overwriting) a file's per-function dependency index.
    pub fn store_fn_index(&self, rec: &FnIndexRecord) {
        self.store(self.path("fnidx", rec.key), &mc_json::to_string(rec));
    }

    /// Looks up a whole run's final reports.
    pub fn load_program(&self, key: u64) -> Option<ProgramRecord> {
        let rec: ProgramRecord = self.load("prog", key)?;
        (rec.key == key).then_some(rec)
    }

    /// Stores a program record.
    pub fn store_program(&self, rec: &ProgramRecord) {
        self.store(self.path("prog", rec.key), &mc_json::to_string(rec));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_ast::Span;

    fn sample_unit() -> UnitRecord {
        UnitRecord {
            src_key: 0xdead_beef_dead_beef,
            ast_key: 0x1234_5678_9abc_def0,
            summary_key: 0,
            defines: vec!["NILocalGet".into(), "helper".into()],
            calls: vec!["NI_SEND".into(), "helper".into()],
            reports: vec![Report::error(
                "lanes",
                "p.c",
                "NILocalGet",
                Span::new(3, 5),
                "over quota",
            )],
        }
    }

    #[test]
    fn unit_record_roundtrip_exact() {
        let rec = sample_unit();
        let text = mc_json::to_string(&rec);
        let back: UnitRecord = mc_json::from_str(&text).unwrap();
        assert_eq!(rec, back);
        // Keys above i64::MAX survive (they are hex strings, not numbers).
        assert!(text.contains("deadbeefdeadbeef"));
    }

    #[test]
    fn wrong_kind_or_version_rejected() {
        let rec = sample_unit();
        let text = mc_json::to_string(&rec);
        let as_comp: Result<ComponentRecord, _> = mc_json::from_str(&text);
        assert!(as_comp.is_err());
        let current = format!("\"version\":{CACHE_FORMAT_VERSION}");
        assert!(text.contains(&current), "{text}");
        let bumped = text.replace(&current, "\"version\":999");
        let back: Result<UnitRecord, _> = mc_json::from_str(&bumped);
        assert!(back.is_err());
    }

    #[test]
    fn summary_record_roundtrip_exact() {
        let mut s = FnSummary {
            function: "NIRemoteGet".into(),
            file: "p.c".into(),
            calls: vec!["NI_SEND".into(), "helper".into()],
            clobbers: vec!["gLen".into(), "h->len".into()],
            ..FnSummary::default()
        };
        s.counters.insert("lane2".into(), 2);
        s.traces.insert(
            "lane2".into(),
            vec![mc_cfg::PathStep {
                file: "p.c".into(),
                span: mc_ast::Span::new(3, 5),
                note: "lane2 in helper".into(),
            }],
        );
        let mut per_state = std::collections::BTreeMap::new();
        per_state.insert("zero_len".into(), vec!["nonzero_len".into()]);
        per_state.insert("all".into(), Vec::new());
        s.transfers.insert("msglen".into(), per_state);
        s.warnings.push(CycleWarning {
            function: "helper".into(),
            keys: vec!["lane2".into()],
            description: "cycle with side effects in `helper`".into(),
        });
        let rec = SummaryRecord {
            key: 0xfeed_face_feed_face,
            summaries: vec![s],
        };
        let text = mc_json::to_string(&rec);
        let back: SummaryRecord = mc_json::from_str(&text).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn cap_evicts_oldest_record_files_first() {
        let dir = std::env::temp_dir().join(format!("mc-cache-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rec = sample_unit();
        // First run: store the soon-to-be-old pair.
        DiskCache::open(&dir).unwrap().store_unit(&rec);
        let one = mc_json::to_string(&rec).len() as u64;
        // Each store writes two files (usrc + uast); a cap below three
        // files' worth forces the older pair out when the new one lands.
        let cap = one * 3 - 1;
        // Second run (fresh handle, later run_start): files from the
        // first run are older than this run and evictable.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut cache = DiskCache::open(&dir).unwrap();
        cache.set_cap_bytes(Some(cap));
        rec.src_key += 1;
        rec.ast_key += 1;
        cache.store_unit(&rec);
        // The newer record survives; the older pair was evicted.
        assert_eq!(cache.load_unit_by_source(rec.src_key), Some(rec.clone()));
        assert_eq!(cache.load_unit_by_source(rec.src_key - 1), None);
        let total: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert!(total <= cap, "{total}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cap_never_evicts_a_concurrent_writers_fresh_records() {
        // Two concurrent writers share a directory; writer `a` has a cap
        // far below what the pair stores. `a` may trim its *own* records
        // to honor the cap, but must never remove `b`'s fresh files — a
        // concurrent shard's record has to survive until the merge can
        // read it.
        let dir = std::env::temp_dir().join(format!("mc-cache-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut a = DiskCache::open(&dir).unwrap();
        a.set_cap_bytes(Some(1));
        let b = DiskCache::open(&dir).unwrap();
        let base = sample_unit();
        for i in 0..3u64 {
            let mut rec = base.clone();
            rec.src_key = base.src_key + i;
            rec.ast_key = base.ast_key + i;
            b.store_unit(&rec);
        }
        // `a`'s store triggers its eviction pass; `b`'s records are newer
        // than `a.run_start` and not `a`'s own, so all three survive.
        let mut own = base.clone();
        own.src_key = base.src_key + 100;
        own.ast_key = base.ast_key + 100;
        a.store_unit(&own);
        for i in 0..3u64 {
            assert!(
                b.load_unit_by_source(base.src_key + i).is_some(),
                "record {i} of a concurrent writer was evicted"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cap_never_evicts_claimed_records() {
        let dir = std::env::temp_dir().join(format!("mc-cache-clm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Run 1: store two records; claim the first one (a live writer
        // still depends on it).
        let old = DiskCache::open(&dir).unwrap();
        let kept = sample_unit();
        let mut gone = sample_unit();
        gone.src_key += 100;
        gone.ast_key += 100;
        old.store_unit(&kept);
        old.store_unit(&gone);
        assert!(old.claim(kept.src_key));
        // Run 2: a tiny cap forces eviction of run-1 files — but the
        // claimed record (and the claim itself) must survive.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut cache = DiskCache::open(&dir).unwrap();
        cache.set_cap_bytes(Some(1));
        let mut fresh = sample_unit();
        fresh.src_key += 200;
        fresh.ast_key += 200;
        cache.store_unit(&fresh);
        assert!(
            cache.load_unit_by_source(kept.src_key).is_some(),
            "claimed record was evicted"
        );
        assert!(cache.load_unit_by_source(gone.src_key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn claim_is_exclusive_per_key() {
        let dir = std::env::temp_dir().join(format!("mc-cache-claimx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = DiskCache::open(&dir).unwrap();
        let b = DiskCache::open(&dir).unwrap();
        assert!(a.claim(42));
        assert!(!b.claim(42), "second writer must lose a fresh claim");
        assert!(b.claim(43));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn sample_fn_index() -> FnIndexRecord {
        FnIndexRecord {
            key: 0xabcd_ef01_2345_6789,
            src_key: 0x1111_2222_3333_4444,
            env_fp: 0x5555_6666_7777_8888,
            functions: vec![FnEntry {
                name: "NILocalGet".into(),
                body_fp: 0x9999_aaaa_bbbb_cccc,
                sig_fp: 0xdddd_eeee_ffff_0000,
                reports: vec![Report::error(
                    "buffer_mgmt",
                    "p.c",
                    "NILocalGet",
                    Span::new(9, 3),
                    "buffer used after free",
                )],
                fact_counts: vec![0, 2, 0],
                local_deps: vec![("helper".into(), 0x0123_4567_89ab_cdef)],
                summary_deps: vec![
                    ("NI_SEND".into(), None),
                    ("helper".into(), Some(0xfedc_ba98_7654_3210)),
                ],
            }],
        }
    }

    #[test]
    fn fn_index_roundtrip_exact() {
        let rec = sample_fn_index();
        let text = mc_json::to_string(&rec);
        let back: FnIndexRecord = mc_json::from_str(&text).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn fn_index_corrupt_record_is_a_loud_miss_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("mc-cache-fnidx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::open(&dir).unwrap();
        let rec = sample_fn_index();
        assert!(matches!(cache.load_fn_index(rec.key), FnIndexLoad::Miss));
        cache.store_fn_index(&rec);
        match cache.load_fn_index(rec.key) {
            FnIndexLoad::Hit(back) => assert_eq!(back, rec),
            other => panic!("expected hit, got {other:?}"),
        }
        // Truncated JSON, wrong embedded key, wrong version: all corrupt.
        let path = dir.join(format!("fnidx-{}.json", key_hex(rec.key)));
        std::fs::write(&path, "{\"kind\":\"fnindex\",garbage").unwrap();
        assert!(matches!(cache.load_fn_index(rec.key), FnIndexLoad::Corrupt));
        let mut other = rec.clone();
        other.key += 1;
        std::fs::write(&path, mc_json::to_string(&other)).unwrap();
        assert!(matches!(cache.load_fn_index(rec.key), FnIndexLoad::Corrupt));
        let bumped = mc_json::to_string(&rec).replace(
            &format!("\"version\":{CACHE_FORMAT_VERSION}"),
            "\"version\":999",
        );
        std::fs::write(&path, bumped).unwrap();
        assert!(matches!(cache.load_fn_index(rec.key), FnIndexLoad::Corrupt));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_content_hash_tracks_summary_content_only() {
        let mut a = FnSummary {
            function: "helper".into(),
            file: "p.c".into(),
            ..FnSummary::default()
        };
        let b = a.clone();
        assert_eq!(summary_content_hash(&a), summary_content_hash(&b));
        a.counters.insert("lane2".into(), 1);
        assert_ne!(summary_content_hash(&a), summary_content_hash(&b));
    }

    #[test]
    fn disk_roundtrip_and_key_validation() {
        let dir = std::env::temp_dir().join(format!("mc-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::open(&dir).unwrap();
        let rec = sample_unit();
        cache.store_unit(&rec);
        assert_eq!(cache.load_unit_by_source(rec.src_key), Some(rec.clone()));
        assert_eq!(cache.load_unit_by_ast(rec.ast_key), Some(rec.clone()));
        assert_eq!(cache.load_unit_by_source(rec.src_key + 1), None);

        // Corrupt the stored file: load degrades to a miss.
        let path = dir.join(format!("usrc-{}.json", key_hex(rec.src_key)));
        std::fs::write(&path, "{\"kind\":\"unit\",garbage").unwrap();
        assert_eq!(cache.load_unit_by_source(rec.src_key), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
