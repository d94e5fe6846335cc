//! Pretty-printer: renders a [`Domain`] back to canonical model-file text.
//!
//! `parse_domain(print_domain(d)) == d` for every valid domain — the
//! property tests in `tests/` rely on this round trip, and the experiment
//! harness uses the printed form when reporting model sizes.

use std::fmt::Write as _;
use xtuml_core::model::{Domain, Multiplicity, TransitionTarget};
use xtuml_core::value::{DataType, Value};

fn type_name(ty: DataType) -> &'static str {
    match ty {
        DataType::Bool => "bool",
        DataType::Int => "int",
        DataType::Real => "real",
        DataType::Str => "string",
        // Scalars only in the surface language; instance-typed
        // attributes cannot be declared, so this is unreachable for
        // parseable domains.
        DataType::Inst(_) => "inst",
        DataType::Set(_) => "set",
    }
}

/// Renders a scalar as a literal that reads back as the same value:
/// strings quoted and escaped, whole reals with their `.0`.
pub fn print_literal(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("{s:?}"),
        Value::Real(r) if r.fract() == 0.0 && r.is_finite() => format!("{r:.1}"),
        other => other.to_string(),
    }
}

fn params(out: &mut String, ps: &[(String, DataType)]) {
    out.push('(');
    for (i, (n, t)) in ps.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{n}: {}", type_name(*t));
    }
    out.push(')');
}

fn mult(m: Multiplicity) -> &'static str {
    match m {
        Multiplicity::One => "one",
        Multiplicity::ZeroOne => "maybe",
        Multiplicity::Many => "many",
    }
}

/// Renders a domain as model-file text accepted by
/// [`parse_domain`](crate::parse_domain).
pub fn print_domain(domain: &Domain) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "domain {};", domain.name);

    for actor in &domain.actors {
        let _ = writeln!(out, "\nactor {} {{", actor.name);
        for ev in &actor.events {
            out.push_str("    signal ");
            out.push_str(&ev.name);
            params(&mut out, &ev.params);
            out.push_str(";\n");
        }
        for f in &actor.funcs {
            out.push_str("    func ");
            out.push_str(&f.name);
            params(&mut out, &f.params);
            if let Some(r) = f.ret {
                let _ = write!(out, " -> {}", type_name(r));
            }
            out.push_str(";\n");
        }
        out.push_str("}\n");
    }

    for class in &domain.classes {
        let _ = writeln!(out, "\nclass {} {{", class.name);
        for attr in &class.attributes {
            let _ = write!(out, "    attr {}: {}", attr.name, type_name(attr.ty));
            if attr.default != Value::default_for(attr.ty) {
                let _ = write!(out, " = {}", print_literal(&attr.default));
            }
            out.push_str(";\n");
        }
        for ev in &class.events {
            out.push_str("    event ");
            out.push_str(&ev.name);
            params(&mut out, &ev.params);
            out.push_str(";\n");
        }
        if let Some(machine) = &class.state_machine {
            let _ = writeln!(
                out,
                "\n    initial {};",
                machine.state(machine.initial).name
            );
            for state in &machine.states {
                let _ = writeln!(out, "\n    state {} {{", state.name);
                let body = state.action.to_string();
                for line in body.lines() {
                    let _ = writeln!(out, "        {line}");
                }
                out.push_str("    }\n");
            }
            out.push('\n');
            for t in &machine.transitions {
                let from = &machine.state(t.from).name;
                let event = &class.events[t.event.index()].name;
                match t.target {
                    TransitionTarget::To(s) => {
                        let _ =
                            writeln!(out, "    on {from}: {event} -> {};", machine.state(s).name);
                    }
                    TransitionTarget::Ignore => {
                        let _ = writeln!(out, "    on {from}: {event} ignore;");
                    }
                    TransitionTarget::CantHappen => {
                        // Implicit default; never printed.
                    }
                }
            }
        }
        out.push_str("}\n");
    }

    for assoc in &domain.associations {
        let _ = writeln!(
            out,
            "\nassoc {}: {} {} -- {} {};",
            assoc.name,
            domain.class(assoc.from).name,
            mult(assoc.from_mult),
            domain.class(assoc.to).name,
            mult(assoc.to_mult),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{parse_domain, print_domain};
    use xtuml_core::builder::pipeline_domain;

    const SRC: &str = r#"
domain Roundtrip;

actor ENV {
    signal out(v: int);
    func clock() -> int;
}

class Worker {
    attr count: int = 3;
    attr label: string = "w";

    event Go(step: int);
    event Halt();

    initial Idle;

    state Idle {
    }
    state Running {
        self.count = self.count + rcvd.step;
        if (self.count > 10) {
            gen out(self.count) to ENV;
        }
        gen Halt() to self after 5;
    }
    state Stopped {
        cancel Halt;
    }

    on Idle: Go -> Running;
    on Running: Go -> Running;
    on Running: Halt -> Stopped;
    on Stopped: Go ignore;
}

class Peer {
}

assoc R1: Worker one -- Peer many;
"#;

    #[test]
    fn print_parse_round_trip() {
        let d = parse_domain(SRC).unwrap();
        let printed = print_domain(&d);
        let reparsed = parse_domain(&printed).unwrap();
        assert_eq!(d, reparsed, "printed:\n{printed}");
    }

    #[test]
    fn builder_models_round_trip_too() {
        for n in [1, 3, 6] {
            let d = pipeline_domain(n).unwrap();
            let printed = print_domain(&d);
            let reparsed = parse_domain(&printed).unwrap();
            assert_eq!(d, reparsed, "printed:\n{printed}");
        }
    }

    #[test]
    fn non_zero_defaults_are_printed() {
        let d = parse_domain("domain D; class C { attr x: int = 7; attr y: int; }").unwrap();
        let printed = print_domain(&d);
        assert!(printed.contains("attr x: int = 7;"));
        assert!(printed.contains("attr y: int;"));
        assert!(!printed.contains("y: int = 0"));
    }
}
