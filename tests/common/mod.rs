//! Fixtures shared by the integration suites.

use std::path::Path;
use xtuml_core::Domain;
use xtuml_fuzz::{generate, load_dir, parse_stim};
use xtuml_lang::parse_domain;
use xtuml_verify::TestCase;

/// Every checked-in fuzz corpus case, then the generated models of seeds
/// `0..seeds`, each with its test case.
pub fn cases(seeds: u64) -> Vec<(String, Domain, TestCase)> {
    let mut out = Vec::new();
    for e in load_dir(Path::new("models/fuzz-corpus")).expect("corpus dir is readable") {
        let domain = parse_domain(&e.model)
            .unwrap_or_else(|err| panic!("{}: corpus model does not parse: {err}", e.name));
        let tc = parse_stim(&e.stim)
            .unwrap_or_else(|err| panic!("{}: corpus stim does not parse: {err}", e.name));
        out.push((e.name.clone(), domain, tc));
    }
    assert!(!out.is_empty(), "fuzz corpus must not be empty");
    for seed in 0..seeds {
        let spec = generate(seed);
        let domain = spec.lower().expect("generated specs lower by construction");
        out.push((format!("seed{seed}"), domain, spec.testcase()));
    }
    out
}
