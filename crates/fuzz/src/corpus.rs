//! Corpus artifacts: each fuzz case serializes to a
//! `.xtuml`/`.marks`/`.stim` triple that the standard toolchain can
//! consume (`xtuml run model.xtuml --marks m.marks stim.stim` replays a
//! case byte-for-byte), plus load/replay helpers for the checked-in
//! regression corpus.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use xtuml_core::testcase::TestCase;
use xtuml_core::value::Value;
use xtuml_core::CoreError;
use xtuml_lang::stim;
use xtuml_lang::{print_domain, print_literal, print_marks};

use crate::spec::FuzzSpec;

/// One serialized case.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// Base file name (no extension), e.g. `seed42-pair-order`.
    pub name: String,
    /// The model source (`.xtuml`).
    pub model: String,
    /// The mark file (`.marks`).
    pub marks: String,
    /// The stimulus script (`.stim`), in the CLI `run` grammar.
    pub stim: String,
}

/// Serializes a spec into a corpus entry.
///
/// # Errors
///
/// Returns the lowering error if the spec no longer validates.
pub fn entry(spec: &FuzzSpec, name: &str) -> Result<CorpusEntry, CoreError> {
    let domain = spec.lower()?;
    Ok(CorpusEntry {
        name: name.to_owned(),
        model: print_domain(&domain),
        marks: print_marks(&domain.name, &spec.marks()),
        stim: render_stim(&spec.testcase()),
    })
}

/// Renders a test case in the CLI `run` stimulus grammar: `create`,
/// `relate` and `at` lines with `i<ordinal>` instance names.
///
/// # Panics
///
/// If a string argument contains whitespace, which the grammar cannot
/// spell.
pub fn render_stim(tc: &TestCase) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# conformance-fuzz case {}", tc.name);
    for (i, class) in tc.creates.iter().enumerate() {
        let _ = writeln!(out, "create i{i} {class}");
    }
    for (a, b, assoc) in &tc.relates {
        let _ = writeln!(out, "relate i{a} i{b} {assoc}");
    }
    for s in tc.stimuli_in_order() {
        let _ = write!(out, "at {} i{} {}", s.time, s.inst, s.event);
        for (k, v) in s.args.iter().enumerate() {
            match v {
                // The grammar takes a string's text between its quotes as
                // it stands and splits words on whitespace, so a string is
                // written raw, and one with whitespace has no spelling.
                Value::Str(text) => {
                    assert!(
                        !text.contains(char::is_whitespace),
                        "argument {k} of `{}`, {text:?}, contains whitespace",
                        s.event
                    );
                    let _ = write!(out, " \"{text}\"");
                }
                v => {
                    let _ = write!(out, " {}", print_literal(v));
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Parses a stimulus script back into a [`TestCase`]: [`stim::drive`]
/// recording into it.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_stim(src: &str) -> Result<TestCase, String> {
    let mut tc = TestCase::new("replay");
    stim::drive(src, &mut tc).map_err(|e| format!("stim {e}"))?;
    Ok(tc)
}

/// Writes an entry's three files into `dir` (created if needed); returns
/// the paths written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_entry(dir: &Path, e: &CorpusEntry) -> io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for (ext, content) in [("xtuml", &e.model), ("marks", &e.marks), ("stim", &e.stim)] {
        let path = dir.join(format!("{}.{ext}", e.name));
        fs::write(&path, content)?;
        written.push(path);
    }
    Ok(written)
}

/// Loads every case (by `.xtuml` base name) from a corpus directory, in
/// sorted order for determinism.
///
/// # Errors
///
/// Propagates filesystem errors; a `.xtuml` without its `.marks`/`.stim`
/// siblings is reported as [`io::ErrorKind::NotFound`].
pub fn load_dir(dir: &Path) -> io::Result<Vec<CorpusEntry>> {
    let mut names: Vec<String> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "xtuml") {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                names.push(stem.to_owned());
            }
        }
    }
    names.sort();
    names
        .into_iter()
        .map(|name| {
            Ok(CorpusEntry {
                model: fs::read_to_string(dir.join(format!("{name}.xtuml")))?,
                marks: fs::read_to_string(dir.join(format!("{name}.marks")))?,
                stim: fs::read_to_string(dir.join(format!("{name}.stim")))?,
                name,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtuml_core::value::Value;

    #[test]
    fn stim_round_trips() {
        let mut tc = TestCase::new("replay");
        tc.create("C0");
        tc.create("C1");
        tc.relate(0, 1, "R1");
        tc.inject(3, 0, "Ev0", vec![Value::Int(-7), Value::Bool(true)]);
        tc.inject(0, 0, "Ev1", vec![]);
        let text = render_stim(&tc);
        let back = parse_stim(&text).unwrap();
        assert_eq!(back.creates, tc.creates);
        assert_eq!(back.relates, tc.relates);
        assert!(back.stimuli.iter().eq(tc.stimuli_in_order()));
    }

    #[test]
    fn malformed_stim_lines_are_reported() {
        assert!(parse_stim("create onlytwo").is_err());
        assert!(parse_stim("relate a b R1").is_err());
        assert!(parse_stim("at x i0 Ev").is_err());
        assert!(parse_stim("create i0 C0\nat 0 i0 Ev frob").is_err());
        assert!(parse_stim("banana").is_err());
    }
}
