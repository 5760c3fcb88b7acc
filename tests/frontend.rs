//! The C front end's identity pin and no-panic property.
//!
//! The pin parses every file of the scale-3 fleet, the seed corpus and the
//! C sources embedded in `examples/`, and folds the `Debug` form of each
//! parse result (the whole `TranslationUnit`: spans, literal text,
//! preprocessor lines; or the error) into one FNV-1a digest per corpus.
//! A rewrite of the lexer or parser must leave all three digests alone.
//!
//! The property feeds arbitrary strings (multi-byte characters included)
//! and byte-mutated corpus files through `Lexer::tokenize` and
//! `parse_translation_unit`: each must return `Ok` or `Err`, never panic.

use flash_mc::ast::{parse_translation_unit, Fnv1a, Lexer};
use flash_mc::corpus::{generate_all, generate_fleet, DEFAULT_SEED};
use proptest::prelude::*;
use std::fmt::Write;
use std::sync::OnceLock;

/// Streams `Debug` output into a hasher, so the fleet's multi-megabyte
/// AST dumps are never materialised.
struct DigestWriter(Fnv1a);

impl Write for DigestWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// Digest of the parse results of `files` (`(source, name)` pairs), in
/// order.
fn digest(files: &[(String, String)]) -> u64 {
    let mut w = DigestWriter(Fnv1a::new());
    for (src, name) in files {
        w.0.write_str(name);
        write!(w, "{:?}", parse_translation_unit(src, name)).unwrap();
    }
    w.0.finish()
}

/// Every raw string literal (`r#"…"#`) of every file in `examples/`,
/// plus the MSI protocol the `msi_coherence` example includes. Metal
/// programs among them pin their parse errors.
fn example_sources() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap();
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let mut rest = text.as_str();
        let mut i = 0;
        while let Some(open) = rest.find("r#\"") {
            let body = &rest[open + 3..];
            let close = body.find("\"#").expect("unterminated raw string");
            out.push((body[..close].to_string(), format!("{stem}#{i}.c")));
            rest = &body[close + 2..];
            i += 1;
        }
    }
    out.push((
        include_str!("../crates/mc-sim/tests/msi_protocol.c").to_string(),
        "msi_protocol.c".to_string(),
    ));
    out
}

#[test]
fn front_end_output_is_pinned_on_fleet_seed_corpus_and_examples() {
    let fleet = generate_fleet(61861, 3)
        .iter()
        .flat_map(|p| p.sources())
        .collect::<Vec<_>>();
    assert_eq!(fleet.len(), 96);
    let seed = generate_all(DEFAULT_SEED)
        .iter()
        .flat_map(|p| p.sources())
        .collect::<Vec<_>>();
    let examples = example_sources();
    assert!(
        examples.len() >= 6,
        "found {} example sources",
        examples.len()
    );
    let got = [digest(&fleet), digest(&seed), digest(&examples)];
    assert_eq!(
        got,
        [FLEET_DIGEST, SEED_DIGEST, EXAMPLES_DIGEST],
        "front-end output changed: {got:#018x?}"
    );
}

/// Recorded with the front end before its tokens borrowed from the source.
const FLEET_DIGEST: u64 = 0x8dfb_08c4_f704_c0be;
const SEED_DIGEST: u64 = 0xbc9a_e434_8832_8a6f;
const EXAMPLES_DIGEST: u64 = 0x10b9_cf4b_5c21_e23c;

/// Lexes and parses `src`; the property is that this returns at all.
fn front_end(src: &str) {
    let _ = Lexer::new(src).tokenize();
    let _ = parse_translation_unit(src, "fuzz.c");
}

/// Fragments that sit on the lexer's edges: literal and comment openers,
/// escapes, line continuations, multi-byte characters, number shapes.
const PIECES: &[&str] = &[
    "\"",
    "'",
    "\\",
    "/*",
    "*/",
    "//",
    "#",
    "\\\n",
    "\n",
    " ",
    "\0",
    "é",
    "日本",
    "\u{1F600}",
    "Ã",
    "0x",
    "0x1f",
    "1e",
    "1.",
    "2.5f",
    "10UL",
    "==>",
    "<<=",
    "...",
    "->",
    "(",
    ")",
    "{",
    "}",
    ";",
    "int",
    "void",
    "f",
    "x",
    "if",
    "=",
    "+",
    "-",
];

fn soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PIECES.len(), 0..40)
        .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn front_end_never_panics_on_arbitrary_strings(
        s in prop::collection::vec(any::<char>(), 0..120)
    ) {
        front_end(&s.into_iter().collect::<String>());
    }

    #[test]
    fn front_end_never_panics_on_token_soup(s in soup()) {
        front_end(&s);
    }
}

/// The seed corpus's sources, generated once per test binary.
fn seed_files() -> &'static [String] {
    static FILES: OnceLock<Vec<String>> = OnceLock::new();
    FILES.get_or_init(|| {
        generate_all(DEFAULT_SEED)
            .into_iter()
            .flat_map(|p| p.files)
            .map(|f| f.source)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Each case overwrites a few bytes of one seed-corpus file (possibly
    /// splitting a character; the result is decoded lossily, so the
    /// lexer sees U+FFFD) and splices one multi-byte piece in.
    #[test]
    fn front_end_never_panics_on_mutated_corpus_files(
        (file, edits, splice) in (
            any::<usize>(),
            prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
            (any::<usize>(), 0usize..PIECES.len()),
        )
    ) {
        let files = seed_files();
        let mut bytes = files[file % files.len()].clone().into_bytes();
        for (at, b) in edits {
            let n = bytes.len();
            bytes[at % n] = b;
        }
        let mut src = String::from_utf8_lossy(&bytes).into_owned();
        let mut at = splice.0 % src.len();
        while !src.is_char_boundary(at) {
            at -= 1;
        }
        src.insert_str(at, PIECES[splice.1]);
        front_end(&src);
    }
}
