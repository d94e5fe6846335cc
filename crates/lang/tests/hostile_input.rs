//! Truncated and corrupted model text gets an error, never a panic.
//!
//! The lexer walks the source by byte offset, so a slice that lands
//! inside a multi-byte character would panic. Every prefix of every
//! shipped model and mark file, and every such file with a multi-byte
//! character spliced in at each character boundary, must parse to `Ok`
//! or `Err`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use xtuml_lang::{parse_domain, parse_marks};

/// Every `.xtuml` and `.marks` file under `models/`, with its text.
fn shipped() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models");
    let mut files = Vec::new();
    for dir in ["", "fuzz-corpus", "lints"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("models directory") {
            let path = entry.expect("directory entry").path();
            if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("xtuml" | "marks")
            ) {
                let text = std::fs::read_to_string(&path).expect("model text");
                files.push((path.display().to_string(), text));
            }
        }
    }
    files.sort();
    files
}

/// Parses `src` with the parser for `file`'s kind, failing the test with
/// `what` if it panics.
fn survives(file: &str, src: &str, what: &str) {
    let parsed = catch_unwind(AssertUnwindSafe(|| {
        if file.ends_with(".marks") {
            let _ = parse_marks(src);
        } else {
            let _ = parse_domain(src);
        }
    }));
    assert!(parsed.is_ok(), "{file}: parsing {what} panicked");
}

#[test]
fn every_prefix_parses_or_errs() {
    let files = shipped();
    assert!(files.len() >= 10, "found only {} model files", files.len());
    for (file, text) in &files {
        for (at, _) in text.char_indices().chain([(text.len(), ' ')]) {
            survives(
                file,
                &text[..at],
                &format!("the prefix ending at byte {at}"),
            );
        }
    }
}

#[test]
fn a_multibyte_character_anywhere_parses_or_errs() {
    // Two-, three- and four-byte characters: an identifier letter, a
    // symbol the lexer rejects, and one outside the basic plane.
    const SPLICES: [char; 3] = ['é', '€', '😀'];
    for (file, text) in &shipped() {
        for (at, _) in text.char_indices() {
            for c in SPLICES {
                let spliced = format!("{}{c}{}", &text[..at], &text[at..]);
                survives(file, &spliced, &format!("`{c}` spliced at byte {at}"));
            }
        }
    }
}
