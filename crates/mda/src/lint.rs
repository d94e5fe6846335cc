//! Mark and partition lints (`X0012`–`X0014`).
//!
//! Marks live outside the model (paper §3), which means nothing in the
//! model's own validation can notice a mark gone stale: a mark naming a
//! class that was renamed away, an `isHardware` placement the VHDL
//! generator cannot honour, or a partition cut that severs a signal path
//! whose payload cannot be marshalled. These lints close that gap by
//! checking the *pair* (model, marks) the same way [`InterfaceSpec`]
//! derivation does — but accumulating span-tagged diagnostics instead of
//! stopping at the first mapping error.
//!
//! [`InterfaceSpec`]: crate::interface::InterfaceSpec

use crate::analysis;
use crate::partition::Partition;
use std::collections::BTreeSet;
use xtuml_core::diag::{Code, Diagnostic, Diagnostics, SourceMap};
use xtuml_core::effects::ModelEffects;
use xtuml_core::error::Pos;
use xtuml_core::ids::ClassId;
use xtuml_core::marks::{ElemKind, ElemRef, MarkSet};
use xtuml_core::model::Domain;
use xtuml_core::value::DataType;

/// Where one mark was declared in its mark file.
///
/// This mirrors the lang crate's `MarkSpan` without depending on it: the
/// lint layer only needs the element, the key and the position, whoever
/// parsed them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkSite {
    /// The element the mark is attached to.
    pub elem: ElemRef,
    /// The mark key (free-form by design).
    pub key: String,
    /// Position of the declaration in the mark file.
    pub pos: Pos,
}

/// Runs every mark/partition lint, appending findings to `diags`.
///
/// * `X0012` `unknown-mark-target` — a mark names a class, actor or
///   association the domain does not declare (reported once per element,
///   in `marks_file`).
/// * `X0013` `hardware-string-payload` — a class marked `isHardware`
///   declares string-typed attributes or event parameters; `vgen` has no
///   string type to synthesize them with.
/// * `X0014` `unmarshallable-channel` — an event crosses the partition
///   boundary but carries a payload with no marshalling (no ICD entry is
///   possible), so [`InterfaceSpec`](crate::InterfaceSpec) derivation
///   would fail.
///
/// `spans` carries the *model* file's declaration positions; `sites`
/// carries the mark file's. Diagnostics about marks are tagged with
/// `marks_file`; diagnostics about model elements stay in the primary
/// (model) file.
pub fn lint_marks(
    domain: &Domain,
    marks: &MarkSet,
    sites: &[MarkSite],
    marks_file: &str,
    spans: &SourceMap,
    diags: &mut Diagnostics,
) {
    lint_unknown_targets(domain, sites, marks_file, diags);
    lint_hardware_payloads(domain, marks, spans, diags);
    lint_partition_channels(domain, marks, spans, diags);
}

/// `X0012` — marks whose target element does not exist in the domain.
fn lint_unknown_targets(
    domain: &Domain,
    sites: &[MarkSite],
    marks_file: &str,
    diags: &mut Diagnostics,
) {
    let mut reported: BTreeSet<&ElemRef> = BTreeSet::new();
    for site in sites {
        let exists = match site.elem.kind {
            ElemKind::Domain => true,
            ElemKind::Class => domain.class_id(&site.elem.name).is_ok(),
            ElemKind::Actor => domain.actor_id(&site.elem.name).is_ok(),
            ElemKind::Assoc => domain.assoc_id(&site.elem.name).is_ok(),
        };
        if exists || !reported.insert(&site.elem) {
            continue;
        }
        diags.push(
            Diagnostic::new(
                Code::UnknownMarkTarget,
                site.pos,
                format!(
                    "mark `{}` targets unknown {} `{}`",
                    site.key, site.elem.kind, site.elem.name
                ),
            )
            .with_element(site.elem.to_string())
            .with_note(format!(
                "domain `{}` declares no {} with this name; every mapping rule \
                 will silently ignore this mark",
                domain.name, site.elem.kind
            ))
            .in_file(marks_file),
        );
    }
}

/// `X0013` — `isHardware` classes with string-typed state.
fn lint_hardware_payloads(
    domain: &Domain,
    marks: &MarkSet,
    spans: &SourceMap,
    diags: &mut Diagnostics,
) {
    for class in &domain.classes {
        if !marks.is_hardware(&class.name) {
            continue;
        }
        for attr in &class.attributes {
            if attr.ty != DataType::Str {
                continue;
            }
            diags.push(
                Diagnostic::new(
                    Code::HardwareStringPayload,
                    spans.get(&SourceMap::attr_key(&class.name, &attr.name)),
                    format!(
                        "class `{}` is marked `isHardware` but attribute `{}` has type \
                         string, which the VHDL generator cannot synthesize",
                        class.name, attr.name
                    ),
                )
                .with_element(format!("class {}", class.name))
                .with_note(
                    "hardware registers hold fixed-width scalars (bool, int, real); \
                     move the class to software or drop the string attribute",
                ),
            );
        }
        for event in &class.events {
            for (pname, ty) in &event.params {
                if *ty != DataType::Str {
                    continue;
                }
                diags.push(
                    Diagnostic::new(
                        Code::HardwareStringPayload,
                        spans.get(&SourceMap::event_key(&class.name, &event.name)),
                        format!(
                            "class `{}` is marked `isHardware` but event `{}` carries a \
                             string parameter `{pname}`, which the VHDL generator cannot \
                             synthesize",
                            class.name, event.name
                        ),
                    )
                    .with_element(format!("class {}", class.name))
                    .with_note(
                        "hardware event queues hold fixed-width payload words; \
                         strings have no marshalling",
                    ),
                );
            }
        }
    }
}

/// `X0014` — cross-partition sends whose payload has no ICD entry.
fn lint_partition_channels(
    domain: &Domain,
    marks: &MarkSet,
    spans: &SourceMap,
    diags: &mut Diagnostics,
) {
    let partition = Partition::from_marks(domain, marks);
    if partition.is_homogeneous() {
        return; // no boundary, no channels
    }
    // (target, event) pairs reported already, so two senders of the same
    // unmarshallable event yield one diagnostic (one channel, one ICD row).
    let mut reported = BTreeSet::new();
    let usage = analysis::class_usage(domain, &ModelEffects::gather(domain));
    for (ci, (sender_class, usage)) in domain.classes.iter().zip(&usage).enumerate() {
        let sender = ClassId::new(ci as u32);
        // Analysis fails only on hand-built ASTs the surface language
        // cannot produce; such blocks are beyond mark linting.
        let Ok(usage) = usage else {
            continue;
        };
        for &(target, event) in &usage.sends {
            if partition.side(sender) == partition.side(target) {
                continue;
            }
            let decl = &domain.class(target).events[event.index()];
            let bad: Vec<&str> = decl
                .params
                .iter()
                .filter(|(_, ty)| matches!(ty, DataType::Str))
                .map(|(name, _)| name.as_str())
                .collect();
            if bad.is_empty() || !reported.insert((target, event)) {
                continue;
            }
            let target_class = domain.class(target);
            diags.push(
                Diagnostic::new(
                    Code::UnmarshallableChannel,
                    spans.get(&SourceMap::event_key(&target_class.name, &decl.name)),
                    format!(
                        "event `{}.{}` crosses the partition boundary ({} \u{2192} {}) \
                         but parameter `{}` has type string: no ICD entry is possible",
                        target_class.name,
                        decl.name,
                        partition.side(sender),
                        partition.side(target),
                        bad[0]
                    ),
                )
                .with_element(format!("class {}, event {}", target_class.name, decl.name))
                .with_note(format!(
                    "sent from class `{}` ({}); interface derivation will reject \
                     this model",
                    sender_class.name,
                    partition.side(sender)
                )),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtuml_core::diag::Severity;

    fn lint_src(model: &str, marks_src: &str) -> Diagnostics {
        let (domain, spans) = xtuml_lang::parse_domain_for_lint(model).unwrap();
        let (_, marks, mark_spans) = xtuml_lang::parse_marks_spanned(marks_src).unwrap();
        let sites: Vec<MarkSite> = mark_spans
            .into_iter()
            .map(|s| MarkSite {
                elem: s.elem,
                key: s.key,
                pos: s.pos,
            })
            .collect();
        let mut diags = Diagnostics::new();
        lint_marks(&domain, &marks, &sites, "test.marks", &spans, &mut diags);
        diags
    }

    const MODEL: &str = "domain D;\n\
        actor BUS { signal put(v: int); }\n\
        class Ctrl { attr n: int; event Go();\n\
          initial S; state S { select any d from Dev; gen Config(\"fast\") to d; }\n\
          on S: Go -> S; }\n\
        class Dev { attr label: string; event Config(mode: string);\n\
          initial I; state I { } on I: Config -> I; }\n";

    #[test]
    fn unknown_mark_targets_are_reported_once_per_element() {
        let diags = lint_src(
            MODEL,
            "marks for D;\n\
             mark class Turbo isHardware = true;\n\
             mark class Turbo queueDepth = 4;\n\
             mark actor NET label = \"x\";\n\
             mark assoc R9 weight = 1;\n\
             mark actor BUS label = \"ok\";\n",
        );
        let unknown: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::UnknownMarkTarget)
            .collect();
        assert_eq!(unknown.len(), 3, "{diags:?}");
        assert!(unknown[0].message.contains("unknown class `Turbo`"));
        assert!(unknown
            .iter()
            .all(|d| d.file.as_deref() == Some("test.marks")));
        // Two marks on Turbo, one diagnostic, pointing at the first.
        assert_eq!(
            unknown
                .iter()
                .filter(|d| d.message.contains("Turbo"))
                .count(),
            1
        );
        assert_eq!(unknown[0].pos.line, 2);
    }

    #[test]
    fn hardware_class_with_strings_is_flagged() {
        let diags = lint_src(MODEL, "marks for D;\nmark class Dev isHardware = true;\n");
        let hw: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::HardwareStringPayload)
            .collect();
        assert_eq!(hw.len(), 2, "{diags:?}");
        assert!(hw[0].message.contains("attribute `label`"));
        assert!(hw[1].message.contains("string parameter `mode`"));
        // Model-file diagnostics stay in the primary file.
        assert!(hw.iter().all(|d| d.file.is_none()));
        assert!(hw[0].pos.line > 0, "span should come from the model parse");
    }

    #[test]
    fn cross_partition_string_event_is_an_error() {
        let diags = lint_src(MODEL, "marks for D;\nmark class Dev isHardware = true;\n");
        let chans: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::UnmarshallableChannel)
            .collect();
        assert_eq!(chans.len(), 1, "{diags:?}");
        assert_eq!(chans[0].severity, Severity::Error);
        assert!(chans[0].message.contains("Dev.Config"));
        assert!(chans[0].message.contains("software \u{2192} hardware"));
        assert!(chans[0].notes[0].contains("class `Ctrl`"));
    }

    #[test]
    fn homogeneous_partition_has_no_channel_lints() {
        // Same string-carrying event, but everything on one side.
        let diags = lint_src(MODEL, "marks for D;\nmark domain cpuKhz = 1000;\n");
        assert!(
            diags
                .iter()
                .all(|d| d.code != Code::UnmarshallableChannel
                    && d.code != Code::HardwareStringPayload),
            "{diags:?}"
        );
    }
}
