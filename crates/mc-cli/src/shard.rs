//! `mcheck --shard i/N` and the manifest validation of `mcheck merge`.

use crate::{build_driver, engine_for, read_sources, CliError, Options};
use mc_driver::Driver;

/// One `--shard i/N` run: check only the dirty units this shard owns,
/// populating the shared `--cache-dir`, then record a
/// `shard-<i>-of-<N>.json` manifest (shard coordinates, suite key, unit
/// counts) so `mcheck merge` can validate that every shard ran the same
/// checker suite. Prints a one-line summary to `err` and exits 0 — a
/// shard's report set is partial by design, so nothing is rendered.
pub(crate) fn run_shard(
    opts: &Options,
    si: u32,
    sn: u32,
    err: &mut dyn std::io::Write,
) -> Result<u8, CliError> {
    let driver = build_driver(opts)?;
    let sources = read_sources(&opts.files)?;
    let mut engine = engine_for(opts)?;
    engine.set_shard(Some((si, sn)));
    let (_, stats) = engine.check_sources(&driver, &sources)?;
    let dir = opts
        .cache_dir
        .as_ref()
        .expect("parse_args requires --cache-dir with --shard");
    let manifest = mc_json::object(vec![
        ("shard", mc_json::Json::Int(i64::from(si))),
        ("shards", mc_json::Json::Int(i64::from(sn))),
        (
            "suite_key",
            mc_json::Json::Str(format!("{:016x}", driver.suite_key())),
        ),
        ("units", mc_json::Json::Int(stats.units as i64)),
        (
            "units_checked",
            mc_json::Json::Int(stats.units_checked as i64),
        ),
        (
            "units_deferred",
            mc_json::Json::Int(stats.units_deferred as i64),
        ),
    ]);
    let path = dir.join(format!("shard-{si}-of-{sn}.json"));
    std::fs::write(&path, manifest.to_pretty())
        .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
    let _ = writeln!(
        err,
        "shard {si}/{sn}: {} unit(s) checked, {} owned elsewhere; run `mcheck merge` to fold",
        stats.units_checked, stats.units_deferred
    );
    Ok(0)
}

/// Validates every `shard-*.json` manifest in the cache directory against
/// this invocation's suite key, returning how many were found.
///
/// # Errors
///
/// Returns [`CliError`] when no manifest exists (nothing to merge) or any
/// manifest records a different suite key — merging shards checked under a
/// different checker suite would silently mix incompatible cached results.
pub(crate) fn validate_shard_manifests(opts: &Options, driver: &Driver) -> Result<usize, CliError> {
    let dir = opts
        .cache_dir
        .as_ref()
        .expect("parse_args requires --cache-dir with merge");
    let want = format!("{:016x}", driver.suite_key());
    let no_manifests = || {
        CliError(format!(
            "merge: no shard manifests in {}; run `mcheck --shard i/N` first",
            dir.display()
        ))
    };
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(no_manifests()),
        Err(e) => return Err(CliError(format!("{}: {e}", dir.display()))),
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("shard-") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(no_manifests());
    }
    for name in &names {
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
        let json = mc_json::Json::parse(&text)
            .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
        let got = json
            .get("suite_key")
            .and_then(|v| v.as_str())
            .ok_or_else(|| CliError(format!("{}: missing suite_key", path.display())))?;
        if got != want {
            return Err(CliError(format!(
                "merge: {name} was produced by a different checker suite \
                 (suite key {got}, this run is {want}); re-run the shards \
                 with the same options"
            )));
        }
    }
    Ok(names.len())
}
