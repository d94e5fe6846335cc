//! The `xtuml` command-line tool, as testable library functions.
//!
//! Subcommands:
//!
//! * `check <model.xtuml>` — parse, validate and summarise a model,
//!   reporting *every* error with line/column, not just the first;
//! * `lint <model.xtuml> [marks.marks]` — run the full static-analysis
//!   suite (validation, dead-model, signal-race, signal-cycle and mark
//!   lints) and render the findings in rustc style or as JSON;
//! * `print <model.xtuml>` — re-emit the model in canonical form;
//! * `interface <model.xtuml> <marks.marks>` — show the generated
//!   channel table and register map;
//! * `compile <model.xtuml> <marks.marks> [out_dir]` — run the model
//!   compiler and write `<domain>.c` / `<domain>.vhd`;
//! * `run <model.xtuml> <script.stim>` — execute a stimulus script
//!   against the abstract model and print the observable trace; state
//!   actions execute on the register bytecode VM;
//! * `bc <model.xtuml>` — disassemble the register bytecode lowered
//!   from the model's state actions, with superinstruction annotations;
//! * `fuzz [--seeds N] [--start S] [--shrink] [--corpus DIR]` — run the
//!   conformance fuzzer: generated models are executed on the reference
//!   interpreter, the model interpreter and the partitioned cosim, and
//!   their observable traces must agree (see
//!   `xtuml_fuzz`). The undocumented `--ablate pair-order` flag injects
//!   a scheduler fault for self-testing the oracle.
//!
//! The stimulus script format is line-oriented, and `xtuml_lang::stim`
//! is its one reader (DESIGN §17):
//!
//! ```text
//! create oven Oven          # bind name `oven` to a new Oven instance
//! relate oven lamp R1       # link two bound instances
//! at 100 oven Start 3       # inject Start(3) at time 100
//! ```

use std::fmt::Write as _;
use std::sync::Arc;
use xtuml_core::diag::{Code, Diagnostic, Diagnostics, LintLevels};
use xtuml_core::error::Pos;
use xtuml_core::marks::MarkSet;
use xtuml_core::model::Domain;
use xtuml_core::{lint, validate};
use xtuml_lang::stim;
use xtuml_lang::{
    parse_domain, parse_domain_for_lint, parse_marks, parse_marks_spanned, print_domain,
};
use xtuml_mda::lint::MarkSite;
use xtuml_mda::ModelCompiler;

/// A CLI failure, rendered to stderr by the binary.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<xtuml_core::CoreError> for CliError {
    fn from(e: xtuml_core::CoreError) -> CliError {
        CliError(e.to_string())
    }
}

impl From<xtuml_mda::MdaError> for CliError {
    fn from(e: xtuml_mda::MdaError) -> CliError {
        CliError(e.to_string())
    }
}

/// `check`: parse + validate, return a summary.
///
/// Unlike a fail-fast parse, `check` accumulates *every* validation
/// finding — a single bad action block with three independent type errors
/// produces three rendered diagnostics, each with its line and column.
///
/// # Errors
///
/// Returns the rendered diagnostics (rustc style, with source snippets)
/// when the model has any error-level finding.
pub fn cmd_check(model_file: &str, model_src: &str) -> Result<String, CliError> {
    let mut diags = Diagnostics::new();
    let (domain, spans) = match parse_domain_for_lint(model_src) {
        Ok(parsed) => parsed,
        Err(e) => {
            diags.push(Diagnostic::from_core_error(&e, Pos::UNKNOWN));
            return Err(CliError(diags.render_human(&[(model_file, model_src)])));
        }
    };
    validate::validate_into(&domain, &spans, &mut diags);
    if diags.has_errors() {
        diags.sort();
        return Err(CliError(diags.render_human(&[(model_file, model_src)])));
    }
    let machines = domain
        .classes
        .iter()
        .filter(|c| c.state_machine.is_some())
        .count();
    let states: usize = domain
        .classes
        .iter()
        .filter_map(|c| c.state_machine.as_ref())
        .map(|m| m.states.len())
        .sum();
    let transitions: usize = domain
        .classes
        .iter()
        .filter_map(|c| c.state_machine.as_ref())
        .map(|m| m.transitions.len())
        .sum();
    let mut out = String::new();
    let _ = writeln!(out, "domain {}: OK", domain.name);
    let _ = writeln!(
        out,
        "  {} class(es) ({} with state machines), {} actor(s), {} association(s)",
        domain.classes.len(),
        machines,
        domain.actors.len(),
        domain.associations.len()
    );
    let _ = writeln!(
        out,
        "  {} state(s), {} transition(s), {} action statement(s)",
        states,
        transitions,
        domain.action_weight()
    );
    if !diags.is_empty() {
        diags.sort();
        out.push_str(&diags.render_human(&[(model_file, model_src)]));
    }
    Ok(out)
}

/// Output format for [`cmd_lint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintFormat {
    /// Rustc-style rendering with source snippets.
    #[default]
    Human,
    /// One machine-readable JSON document.
    Json,
}

/// Options for [`cmd_lint`], mirroring the `lint` subcommand's flags.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Output format (`--format json`).
    pub format: LintFormat,
    /// Codes or lint names promoted to errors (`--deny X0010`,
    /// `--deny signal-race`, `--deny all`).
    pub deny: Vec<String>,
    /// Codes or lint names suppressed entirely (`--allow X0009`).
    pub allow: Vec<String>,
}

fn resolve_code(s: &str) -> Result<Code, CliError> {
    Code::parse(s).ok_or_else(|| {
        CliError(format!(
            "unknown lint `{s}` (expected a code like X0010 or a name like signal-race)"
        ))
    })
}

/// `lint`: run the full static-analysis suite over a model (and its marks,
/// when given) and render the findings.
///
/// Returns the rendered report plus a flag that is `true` when any
/// error-level diagnostic remains after `--deny`/`--allow` promotion —
/// the binary turns that flag into a failing exit code.
///
/// Parse failures are not a separate error path: they are rendered as a
/// single diagnostic in the requested format, so `--format json` consumers
/// never see free-form text.
///
/// # Errors
///
/// Returns [`CliError`] only for unusable *options* (an unknown lint code
/// in `--deny`/`--allow`).
pub fn cmd_lint(
    model_file: &str,
    model_src: &str,
    marks: Option<(&str, &str)>,
    opts: &LintOptions,
) -> Result<(String, bool), CliError> {
    let mut levels = LintLevels::new();
    for name in &opts.deny {
        if name == "all" {
            levels.deny_all();
        } else {
            levels.deny(resolve_code(name)?);
        }
    }
    for name in &opts.allow {
        levels.allow(resolve_code(name)?);
    }

    let mut diags = Diagnostics::new();
    let mut sources: Vec<(&str, &str)> = vec![(model_file, model_src)];
    match parse_domain_for_lint(model_src) {
        Err(e) => diags.push(Diagnostic::from_core_error(&e, Pos::UNKNOWN)),
        Ok((domain, spans)) => {
            validate::validate_into(&domain, &spans, &mut diags);
            // One effect walk serves the model lints and the mark lints.
            let plan = xtuml_core::effects::analyze(&domain);
            lint::lint_domain(&domain, &plan, &spans, &mut diags);
            if let Some((marks_file, marks_src)) = marks {
                sources.push((marks_file, marks_src));
                match parse_marks_spanned(marks_src) {
                    Err(e) => {
                        diags.push(
                            Diagnostic::from_core_error(&e, Pos::UNKNOWN).in_file(marks_file),
                        );
                    }
                    Ok((marks_for, _, _)) if marks_for != domain.name => {
                        diags.push(
                            Diagnostic::new(
                                Code::UnresolvedReference,
                                Pos::UNKNOWN,
                                format!(
                                    "mark file targets domain `{marks_for}`, model is `{}`",
                                    domain.name
                                ),
                            )
                            .in_file(marks_file),
                        );
                    }
                    Ok((_, mark_set, mark_spans)) => {
                        let sites: Vec<MarkSite> = mark_spans
                            .into_iter()
                            .map(|s| MarkSite {
                                elem: s.elem,
                                key: s.key,
                                pos: s.pos,
                            })
                            .collect();
                        xtuml_mda::lint::lint_marks(
                            &domain,
                            &plan.effects,
                            &mark_set,
                            &sites,
                            marks_file,
                            &spans,
                            &mut diags,
                        );
                    }
                }
            }
        }
    }

    levels.apply(&mut diags);
    // Pin implicit attributions to the model file before sorting, so the
    // finding order is a pure function of (rendered file, span, code) —
    // not of which analysis pass happened to produce each diagnostic.
    diags.resolve_files(model_file);
    diags.sort();
    let deny_hit = diags.has_errors();
    let rendered = match opts.format {
        LintFormat::Human => diags.render_human(&sources),
        LintFormat::Json => diags.render_json(model_file),
    };
    Ok((rendered, deny_hit))
}

/// `print`: canonical form.
///
/// # Errors
///
/// Returns parse/validation diagnostics.
pub fn cmd_print(model_src: &str) -> Result<String, CliError> {
    let domain = parse_domain(model_src)?;
    Ok(print_domain(&domain))
}

/// `interface`: the generated channel table.
///
/// # Errors
///
/// Returns parse, mark-mismatch and mapping diagnostics.
pub fn cmd_interface(model_src: &str, marks_src: &str) -> Result<String, CliError> {
    let (domain, marks) = load(model_src, marks_src)?;
    let design = ModelCompiler::new().compile(&domain, &marks)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "generated interface for {} ({} hw / {} sw classes):",
        domain.name,
        design.partition.hw_count(),
        design.partition.sw_count()
    );
    if design.interface.channels.is_empty() {
        let _ = writeln!(out, "  (homogeneous partition: no channels)");
    }
    for ch in &design.interface.channels {
        let class = &domain.class(ch.target_class).name;
        let event = &domain.class(ch.target_class).events[ch.event.index()].name;
        let _ = writeln!(
            out,
            "  channel {:>2}  {}  {}.{}  [{} word(s)]",
            ch.id, ch.dir, class, event, ch.payload_words
        );
    }
    Ok(out)
}

/// `compile`: generated C and VHDL texts, keyed by suggested file name.
///
/// # Errors
///
/// Returns parse, mark-mismatch and mapping diagnostics.
pub fn cmd_compile(model_src: &str, marks_src: &str) -> Result<Vec<(String, String)>, CliError> {
    let (domain, marks) = load(model_src, marks_src)?;
    let design = ModelCompiler::new().compile(&domain, &marks)?;
    Ok(vec![
        (format!("{}.c", domain.name), design.c_code),
        (format!("{}.vhd", domain.name), design.vhdl_code),
        (format!("{}_icd.md", domain.name), design.icd),
    ])
}

/// Options for [`cmd_run_with`], mirroring the `run` subcommand's flags.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Scheduler seed (`--seed S`).
    pub seed: u64,
    /// Worker threads (`--jobs J`); `1` is the guaranteed-sequential
    /// path. Workers are pure mechanism: the output never depends on
    /// this, only wall-clock does.
    pub jobs: usize,
    /// Shard count (`--shards S`); `None` means 1 (the sequential
    /// schedule). Together with the seed this *defines* the schedule —
    /// the trace is a pure function of `(seed, shards)` — which is why
    /// the default is a constant rather than following `jobs` or the
    /// host's core count: an unflagged `run` must print the same bytes
    /// on every machine and across releases. Models that fail the
    /// shard-safety analysis fall back to one shard with a note.
    pub shards: Option<usize>,
    /// Trace recording (`--trace full|off`). `Off` skips the trace ring
    /// entirely for pure-throughput runs; the transcript then reports no
    /// dispatch count or observable events. Differential and golden
    /// comparisons must run with `Full` (the default) — `Off` makes
    /// traces trivially, meaninglessly equal.
    pub trace: xtuml_exec::TraceMode,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            seed: 0,
            jobs: 1,
            shards: None,
            trace: xtuml_exec::TraceMode::default(),
        }
    }
}

/// `run`: execute a stimulus script against the abstract model
/// (sequentially, with the default seed).
///
/// # Errors
///
/// Returns parse, script and execution diagnostics.
pub fn cmd_run(model_src: &str, script_src: &str) -> Result<String, CliError> {
    cmd_run_with(model_src, script_src, RunOptions::default())
}

/// `run` with explicit seed/jobs options. Runs go through the sharded
/// engine, which runs its sequential simulation in place when the
/// effective shard count is 1 — the default whenever `--shards` is not
/// given, so unflagged runs reproduce historical output exactly on any
/// host; `--jobs` is pure mechanism and only matters once `--shards`
/// opts into a sharded schedule.
///
/// # Errors
///
/// Returns parse, script and execution diagnostics.
pub fn cmd_run_with(
    model_src: &str,
    script_src: &str,
    opts: RunOptions,
) -> Result<String, CliError> {
    cmd_run_full(model_src, script_src, opts, &ObsOptions::default()).map(|o| o.text)
}

/// Telemetry options for [`cmd_run_full`] (`--profile`, `--metrics`,
/// `stats`). Everything defaults to off, which is the zero-cost path:
/// no recorder is attached and the engines take one predictable branch
/// per instrumented site.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsOptions {
    /// Record the deterministic counter/gauge/histogram snapshot.
    pub counters: bool,
    /// Capture wall-clock spans for a Chrome trace-event profile
    /// (implies counters).
    pub profile: bool,
    /// Append per-epoch rows to the snapshot (JSONL streaming).
    pub stream_epochs: bool,
}

impl ObsOptions {
    fn on(&self) -> bool {
        self.counters || self.profile || self.stream_epochs
    }
}

/// Everything a telemetry-enabled run produces.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The human-readable transcript (what [`cmd_run_with`] returns).
    pub text: String,
    /// Chrome trace-event JSON, when [`ObsOptions::profile`] was set.
    pub profile_json: Option<String>,
    /// The deterministic metrics snapshot, when any telemetry was on.
    /// A pure function of `(seed, shards)` — never of `--jobs` or the
    /// host.
    pub metrics: Option<xtuml_obs::Metrics>,
    /// Wall-clock measurements (segregated from `metrics`; these *do*
    /// vary run to run).
    pub timing: Option<xtuml_obs::Timing>,
    /// Effective shard count after the shard-safety fallback (static
    /// X0015 offenses, or a violated runtime colocation precondition).
    pub shards: usize,
    /// The scheduler seed (echoed for metric sinks).
    pub seed: u64,
    /// Final simulation time.
    pub now: u64,
    /// Total dispatch steps.
    pub dispatches: u64,
}

/// [`cmd_run_with`] plus telemetry: attaches a recorder per
/// [`ObsOptions`], renders the Chrome trace profile, and surfaces the
/// deterministic metrics snapshot. A shard-safety fallback is reported
/// as diagnostic X0015 (`shard-unsafe`) in the transcript and counted
/// under `shard_fallbacks` / `fallback_*` in the snapshot.
///
/// # Errors
///
/// Returns parse, script and execution diagnostics.
pub fn cmd_run_full(
    model_src: &str,
    script_src: &str,
    opts: RunOptions,
    obs: &ObsOptions,
) -> Result<RunOutput, CliError> {
    let domain = parse_domain(model_src)?;
    let program = Arc::new(xtuml_exec::Program::new(&domain));
    let mut note = None;
    let mut offenses = &[][..];
    let requested = opts.shards.unwrap_or(1).max(1);
    let shards = if requested > 1 {
        offenses = &program.plan().offenses;
        if offenses.is_empty() {
            requested
        } else {
            let described: Vec<String> = offenses.iter().map(|o| o.describe()).collect();
            note = Some(format!(
                "note: running sequentially — {} shard-unsafe: {}",
                Code::ShardUnsafe.as_str(),
                described.join("; ")
            ));
            1
        }
    } else {
        1
    };
    let policy = xtuml_exec::SchedPolicy::seeded(opts.seed).with_shards(shards);
    let mut sim = xtuml_exec::ShardedSimulation::with_program(Arc::clone(&program), policy);
    sim.set_trace_mode(opts.trace);
    if obs.on() {
        let mut rec = if obs.profile {
            xtuml_obs::Recorder::with_spans(xtuml_obs::Clock::start())
        } else {
            xtuml_obs::Recorder::new()
        };
        rec.stream_epochs = obs.stream_epochs;
        sim.attach_recorder(rec);
    }
    stim::drive(script_src, &mut sim).map_err(|e| CliError(format!("script {e}")))?;

    let run_t0 = obs.on().then(std::time::Instant::now);
    sim.run_to_quiescence(opts.jobs)?;
    // The effect analysis may admit a model conditionally, on a
    // colocation precondition over the instance population; when the
    // actual links violate it, the engine delegated to the sequential
    // schedule and says why.
    let runtime_note = sim
        .runtime_fallback()
        .map(|why| format!("note: running sequentially — {why}"));
    let shards = if runtime_note.is_some() { 1 } else { shards };
    let mut out = String::new();
    if let Some(n) = note {
        let _ = writeln!(out, "{n}");
    }
    if let Some(n) = runtime_note {
        let _ = writeln!(out, "{n}");
    }
    let _ = writeln!(
        out,
        "ran to quiescence at t={} ({} dispatches)",
        sim.now(),
        sim.trace().dispatch_count()
    );
    for ev in sim.trace().observable(&domain) {
        let _ = writeln!(out, "{ev}");
    }

    let mut profile_json = None;
    let mut metrics = None;
    let mut timing = None;
    if let Some(mut rec) = sim.take_recorder() {
        if let Some(t0) = run_t0 {
            rec.timing.run_wall_ns = t0.elapsed().as_nanos() as u64;
        }
        // The fallback is part of the deterministic story: it depends
        // only on the model, so the snapshot records it.
        if !offenses.is_empty() {
            use xtuml_obs::Counter;
            rec.metrics.add(Counter::ShardFallbacks, 1);
            for o in offenses {
                let c = match o.reason.key() {
                    "create" => Counter::FallbackCreate,
                    "delete" => Counter::FallbackDelete,
                    "relate" => Counter::FallbackRelate,
                    "unrelate" => Counter::FallbackUnrelate,
                    "non_self_read" => Counter::FallbackNonSelfRead,
                    _ => Counter::FallbackNonSelfWrite,
                };
                rec.metrics.add(c, 1);
            }
        }
        if obs.profile {
            let mut tracks: Vec<(u32, String)> = vec![(
                0,
                if shards > 1 { "coordinator" } else { "main" }.to_owned(),
            )];
            if shards > 1 {
                for k in 0..shards {
                    tracks.push((k as u32 + 1, format!("shard {k}")));
                }
            }
            profile_json = rec.to_chrome_json(&domain.name, &tracks);
        }
        timing = Some(rec.timing);
        metrics = Some(rec.metrics);
    }
    Ok(RunOutput {
        text: out,
        profile_json,
        metrics,
        timing,
        shards,
        seed: opts.seed,
        now: sim.now(),
        dispatches: sim.trace().dispatch_count() as u64,
    })
}

/// `stats`: run a stimulus script with counters on and report the full
/// telemetry catalogue (human-readable, or one JSON document with
/// `--format json`). The counter snapshot is deterministic — a pure
/// function of `(seed, shards)` — so two hosts disagree only in the
/// clearly-marked wall-clock section.
///
/// # Errors
///
/// Returns parse, script and execution diagnostics.
pub fn cmd_stats(
    model_src: &str,
    script_src: &str,
    opts: RunOptions,
    format: LintFormat,
) -> Result<String, CliError> {
    let obs = ObsOptions {
        counters: true,
        ..ObsOptions::default()
    };
    let out = cmd_run_full(model_src, script_src, opts, &obs)?;
    let m = out.metrics.as_ref().expect("counters were requested");
    match format {
        LintFormat::Human => {
            let mut s = String::new();
            let _ = writeln!(
                s,
                "run: t={} dispatches={} seed={} shards={} (deterministic)",
                out.now, out.dispatches, out.seed, out.shards
            );
            s.push_str(&m.render_human());
            if let Some(t) = &out.timing {
                let _ = writeln!(s, "wall-clock (not deterministic):");
                let _ = writeln!(s, "  run_wall_us           {:>12}", t.run_wall_ns / 1_000);
                let _ = writeln!(
                    s,
                    "  barrier_wait_us       {:>12}",
                    t.barrier_wait_ns / 1_000
                );
                let _ = writeln!(s, "  epochs_timed          {:>12}", t.epochs_timed);
            }
            Ok(s)
        }
        LintFormat::Json => {
            let mut s = String::new();
            s.push_str("{\n");
            let _ = writeln!(s, "  \"seed\": {},", out.seed);
            let _ = writeln!(s, "  \"shards\": {},", out.shards);
            let _ = writeln!(s, "  \"now\": {},", out.now);
            let _ = writeln!(s, "  \"dispatches\": {},", out.dispatches);
            let _ = writeln!(s, "  \"deterministic\": true,");
            let _ = write!(s, "  \"metrics\": ");
            let body = m.to_json();
            let mut lines = body.lines();
            if let Some(first) = lines.next() {
                let _ = writeln!(s, "{first}");
            }
            for line in lines {
                let _ = writeln!(s, "  {line}");
            }
            s.pop();
            s.push_str("\n}\n");
            Ok(s)
        }
    }
}

/// `analyze`: run the whole-model effect analysis and report per-action
/// effect summaries, the class partition (shard-local / shard-safe /
/// unsafe-with-witness), any cross-shard race witnesses, and the final
/// sharding verdict (human-readable, or one JSON document with
/// `--format json`).
///
/// # Errors
///
/// Returns parse diagnostics.
pub fn cmd_analyze(model_src: &str, format: LintFormat) -> Result<String, CliError> {
    let domain = parse_domain(model_src)?;
    let plan = xtuml_core::effects::analyze(&domain);
    Ok(match format {
        LintFormat::Human => plan.render_human(&domain),
        LintFormat::Json => plan.render_json(&domain),
    })
}

/// `bc`: disassemble the register bytecode lowered from a model's state
/// actions — one block per (class, state, event) entry, with fused
/// superinstructions annotated, and the X0016 reason for any action the
/// lowering cannot encode. This is the stream `run` executes.
///
/// # Errors
///
/// Returns parse/validation diagnostics.
pub fn cmd_bc(model_src: &str) -> Result<String, CliError> {
    let domain = parse_domain(model_src)?;
    let program = xtuml_exec::Program::new(&domain);
    let bc = program.bc();
    let mut out = xtuml_core::bc::disasm(&domain, bc);
    let _ = writeln!(
        out,
        "{} action(s) lowered, {} not lowered",
        bc.vm_entries(),
        bc.errors().count()
    );
    Ok(out)
}

/// `stats --check-profile`: validate that a file is a well-formed Chrome
/// trace-event document (the shape Perfetto loads).
///
/// # Errors
///
/// Describes the first structural problem found.
pub fn cmd_check_profile(src: &str) -> Result<String, CliError> {
    match xtuml_obs::check_chrome_trace(src) {
        Ok(n) => Ok(format!("ok: {n} trace event(s)\n")),
        Err(e) => Err(CliError(format!("invalid trace profile: {e}"))),
    }
}

/// Options for [`cmd_fuzz`], mirroring the `fuzz` subcommand's flags.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of seeds to run (`--seeds N`).
    pub seeds: u64,
    /// First seed (`--start S`).
    pub start: u64,
    /// Minimize failing cases before reporting (`--shrink`).
    pub shrink: bool,
    /// Injected scheduler fault (`--ablate pair-order`, self-test only).
    pub ablation: xtuml_fuzz::Ablation,
    /// Worker threads for the seed sweep (`--jobs J`); the report is
    /// byte-identical for any value.
    pub jobs: usize,
    /// Add the snapshot/restore checkpoint leg (`--checkpoint`): the
    /// interpreter runs a second time, serializing and rebuilding itself
    /// every few dispatches, and the case fails unless the restored
    /// run's trace is byte-identical to the uninterrupted one.
    pub checkpoint: bool,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            seeds: 100,
            start: 0,
            shrink: false,
            ablation: xtuml_fuzz::Ablation::None,
            jobs: 1,
            checkpoint: false,
        }
    }
}

/// `fuzz`: run a differential-conformance fuzzing campaign.
///
/// Returns the full report (render with [`xtuml_fuzz::FuzzReport::render`],
/// stream with `render_jsonl`, gate on `ok()`) and the corpus entries for
/// every failing case that can be serialized (minimized when `--shrink`
/// was given) — the binary writes the entries under `--corpus DIR`.
///
/// # Errors
///
/// Currently infallible; the `Result` mirrors the other subcommands.
pub fn cmd_fuzz(
    opts: &FuzzOptions,
) -> Result<(xtuml_fuzz::FuzzReport, Vec<xtuml_fuzz::CorpusEntry>), CliError> {
    let cfg = xtuml_fuzz::FuzzConfig {
        start: opts.start,
        count: opts.seeds,
        shrink: opts.shrink,
        ablation: opts.ablation,
        jobs: opts.jobs,
        checkpoint: opts.checkpoint,
    };
    let report = xtuml_fuzz::fuzz(&cfg);
    let mut entries = Vec::new();
    for f in &report.failures {
        // A spec whose failure *is* the lowering can't be serialized;
        // the rendered report still names the seed.
        if let Ok(e) = xtuml_fuzz::entry(&f.spec, &format!("seed{}", f.seed)) {
            entries.push(e);
        }
    }
    Ok((report, entries))
}

/// Options for [`cmd_serve`], mirroring the `serve` subcommand's flags.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// TCP port on loopback (`--port P`; 0 picks an ephemeral port).
    pub port: u16,
    /// Maximum concurrent sessions (`--sessions N`).
    pub sessions: usize,
    /// Per-session pending-stimulus cap (`--queue-cap N`); a stimulate
    /// beyond it gets an explicit backpressure reply.
    pub queue_cap: usize,
    /// Default per-session dispatch budget (`--fuel N`).
    pub fuel: u64,
    /// Idle-eviction threshold in request ticks (`--idle-evict N`,
    /// 0 disables): untouched sessions are snapshotted to the spool
    /// directory and revived transparently on their next touch.
    pub idle_evict: u64,
    /// Spool directory for evicted sessions (`--spool DIR`).
    pub spool: Option<String>,
    /// Maximum live client connections (`--max-conns N`); one past it
    /// gets an error frame and is closed.
    pub max_conns: usize,
    /// Run the deterministic smoke transcript instead of serving
    /// (`--smoke`): in-process server, golden request/response log on
    /// stdout, exit.
    pub smoke: bool,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            port: 7711,
            sessions: 1024,
            queue_cap: 1024,
            fuel: 1_000_000,
            idle_evict: 0,
            spool: None,
            max_conns: 256,
            smoke: false,
        }
    }
}

/// `serve`: host the multi-tenant simulation daemon (DESIGN §15).
///
/// With `--smoke`, runs the golden transcript against an in-process
/// server and returns it; otherwise binds the requested port and serves
/// until killed (this call never returns).
///
/// # Errors
///
/// Bind/socket failures, or a smoke transcript that diverged after
/// restore.
pub fn cmd_serve(opts: &ServeOptions) -> Result<String, CliError> {
    if opts.smoke {
        return xtuml_serve::smoke().map_err(|e| CliError(format!("smoke failed: {e}")));
    }
    let mut session = xtuml_serve::SessionCfg {
        max_sessions: opts.sessions,
        queue_cap: opts.queue_cap,
        fuel: opts.fuel,
        idle_evict: opts.idle_evict,
        max_conns: opts.max_conns,
        ..xtuml_serve::SessionCfg::default()
    };
    if let Some(dir) = &opts.spool {
        session.spool = std::path::PathBuf::from(dir);
    }
    let server = xtuml_serve::Server::start(xtuml_serve::ServeConfig {
        port: opts.port,
        session,
    })
    .map_err(|e| CliError(format!("cannot bind port {}: {e}", opts.port)))?;
    println!("xtuml serve: listening on {}", server.addr());
    loop {
        std::thread::park();
    }
}

fn load(model_src: &str, marks_src: &str) -> Result<(Domain, MarkSet), CliError> {
    let domain = parse_domain(model_src)?;
    let (marks_for, marks) = parse_marks(marks_src)?;
    if marks_for != domain.name {
        return Err(CliError(format!(
            "mark file targets domain `{marks_for}`, model is `{}`",
            domain.name
        )));
    }
    Ok((domain, marks))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODEL: &str = "domain D;\n\
        actor OUT { signal done(v: int); }\n\
        class C { attr n: int; event E(v: int); initial S;\n\
        state S { } state T { self.n = rcvd.v; gen done(self.n) to OUT; }\n\
        on S: E -> T; on T: E -> T; }";

    #[test]
    fn check_summarises() {
        let out = cmd_check("m.xtuml", MODEL).unwrap();
        assert!(out.contains("domain D: OK"));
        assert!(out.contains("1 class(es)"));
        assert!(out.contains("2 state(s)"));
    }

    #[test]
    fn check_reports_errors() {
        assert!(cmd_check("m.xtuml", "domain D; class C { initial X; }").is_err());
    }

    #[test]
    fn check_accumulates_every_error_with_positions() {
        // One action block, three independent errors; the old fail-fast
        // check stopped at the first.
        let src = "domain D;\n\
            class C { attr n: int; event E();\n\
            initial S;\n\
            state S {\n\
            self.n = true;\n\
            self.bogus = 1;\n\
            self.n = \"s\";\n\
            }\n\
            on S: E -> S; }\n";
        let err = cmd_check("m.xtuml", src).unwrap_err().to_string();
        assert_eq!(err.matches("error[").count(), 3, "{err}");
        assert!(err.contains("m.xtuml:5:"), "{err}");
        assert!(err.contains("m.xtuml:6:"), "{err}");
        assert!(err.contains("m.xtuml:7:"), "{err}");
        assert!(err.contains("3 error(s)"), "{err}");
    }

    #[test]
    fn check_renders_warnings_after_summary() {
        let src = "domain D;\n\
            class C { event E(); initial S;\n\
            state S { } state Orphan { }\n\
            on S: E -> S; }\n";
        let out = cmd_check("m.xtuml", src).unwrap();
        assert!(out.contains("domain D: OK"));
        assert!(out.contains("warning[X0005]"), "{out}");
        assert!(out.contains("Orphan"), "{out}");
    }

    #[test]
    fn print_is_canonical() {
        let printed = cmd_print(MODEL).unwrap();
        let again = cmd_print(&printed).unwrap();
        assert_eq!(printed, again);
    }

    #[test]
    fn interface_reports_channels() {
        let marks = "marks for D;\nmark class C isHardware = true;\n";
        let out = cmd_interface(MODEL, marks).unwrap();
        assert!(out.contains("1 hw / 0 sw"));
        // C's events are only ever sent by the environment → no channels.
        assert!(out.contains("no channels"));
    }

    #[test]
    fn interface_rejects_mismatched_marks() {
        let err = cmd_interface(MODEL, "marks for Other;").unwrap_err();
        assert!(err.to_string().contains("targets domain"));
    }

    #[test]
    fn compile_emits_c_vhdl_and_icd() {
        let files = cmd_compile(MODEL, "marks for D;").unwrap();
        assert_eq!(files.len(), 3);
        assert_eq!(files[0].0, "D.c");
        assert!(files[0].1.contains("#include"));
        assert_eq!(files[1].0, "D.vhd");
        assert!(files[1].1.contains("library ieee;"));
        assert_eq!(files[2].0, "D_icd.md");
        assert!(files[2].1.contains("Interface Control Document"));
    }

    #[test]
    fn run_executes_script() {
        let script = "\
# bind and stimulate
create c C
at 0 c E 41
at 1 c E 42
";
        let out = cmd_run(MODEL, script).unwrap();
        assert!(out.contains("OUT.done(41)"));
        assert!(out.contains("OUT.done(42)"));
    }

    #[test]
    fn run_rejects_a_deeply_nested_action_with_a_parse_error() {
        // ~200 KB of model text: small enough for one serve `create`. The
        // parser builds the sum in a loop, but every later pass would
        // recurse 100,000 levels down its tree.
        let n = 100_000;
        for body in [
            format!("self.n = {}rcvd.v{};", "(".repeat(n), ")".repeat(n)),
            format!("self.n = rcvd.v{};", " + 1".repeat(n)),
        ] {
            let model = MODEL.replace("self.n = rcvd.v;", &body);
            let err = cmd_run(&model, "create c C\nat 0 c E 1\n").unwrap_err();
            assert!(err.to_string().contains("nesting"), "{err}");
        }
    }

    #[test]
    fn the_deepest_accepted_nesting_runs_through_every_pass() {
        // The state body's braces take one level, the statement's
        // expression another, and the innermost `+` (or `.n`) a third.
        // The printer parenthesises every `+`, so the sum's printed form
        // is as deep as `deep_expr`.
        let k = xtuml_core::parse::MAX_NESTING - 3;
        let long_sum = format!("self.n = rcvd.v{};", " + 1".repeat(k));
        let deep_expr = format!("self.n = {}rcvd.v{};", "(".repeat(k), " + 1)".repeat(k));
        let deep_blocks = format!(
            "{}self.n = rcvd.v;{}",
            "if (true) { ".repeat(k),
            " }".repeat(k)
        );
        for body in [deep_expr, long_sum, deep_blocks] {
            let model = MODEL.replace("self.n = rcvd.v;", &body);
            cmd_check("m.xtuml", &model).unwrap();
            cmd_lint("m.xtuml", &model, None, &LintOptions::default()).unwrap();
            assert_eq!(
                cmd_print(&cmd_print(&model).unwrap()).unwrap(),
                cmd_print(&model).unwrap()
            );
            cmd_analyze(&model, LintFormat::Human).unwrap();
            cmd_bc(&model).unwrap();
            cmd_compile(&model, "marks for D;").unwrap();
            let out = cmd_run(&model, "create c C\nat 0 c E 1\n").unwrap();
            assert!(out.contains("OUT.done("), "{out}");
        }
    }

    #[test]
    fn bc_disassembles_the_model() {
        let out = cmd_bc(MODEL).unwrap();
        assert!(out.contains("C · T <- E:"), "{out}");
        assert!(out.contains("0 not lowered"), "{out}");
    }

    #[test]
    fn run_script_errors_have_line_numbers() {
        let err = cmd_run(MODEL, "create c C\nat x c E\n").unwrap_err();
        assert!(err.to_string().contains("line 2"));
        let err = cmd_run(MODEL, "explode\n").unwrap_err();
        assert!(err.to_string().contains("unknown verb"));
    }

    // A model that triggers X0006 (dead event) but nothing error-level.
    const DEAD_EVENT_MODEL: &str = "domain D;\n\
        class C { attr n: int; event E(); event Unused();\n\
        initial S; state S { self.n = self.n + 1; }\n\
        on S: E -> S; }\n";

    #[test]
    fn lint_reports_warnings_without_failing() {
        let (out, deny_hit) =
            cmd_lint("m.xtuml", DEAD_EVENT_MODEL, None, &LintOptions::default()).unwrap();
        assert!(!deny_hit);
        assert!(out.contains("warning[X0006]"), "{out}");
        assert!(out.contains("m.xtuml:2:"), "{out}");
    }

    #[test]
    fn lint_clean_model_reports_no_diagnostics() {
        let (out, deny_hit) = cmd_lint("m.xtuml", MODEL, None, &LintOptions::default()).unwrap();
        assert!(!deny_hit, "{out}");
        assert!(out.contains("no diagnostics"), "{out}");
    }

    #[test]
    fn lint_deny_promotes_and_allow_suppresses() {
        let deny = LintOptions {
            deny: vec!["dead-event".into()],
            ..LintOptions::default()
        };
        let (out, deny_hit) = cmd_lint("m.xtuml", DEAD_EVENT_MODEL, None, &deny).unwrap();
        assert!(deny_hit, "{out}");
        assert!(out.contains("error[X0006]"), "{out}");

        let allow = LintOptions {
            allow: vec!["X0006".into()],
            ..LintOptions::default()
        };
        let (out, deny_hit) = cmd_lint("m.xtuml", DEAD_EVENT_MODEL, None, &allow).unwrap();
        assert!(!deny_hit);
        assert!(out.contains("no diagnostics"), "{out}");
    }

    #[test]
    fn lint_rejects_unknown_code() {
        let opts = LintOptions {
            deny: vec!["X9999".into()],
            ..LintOptions::default()
        };
        let err = cmd_lint("m.xtuml", MODEL, None, &opts).unwrap_err();
        assert!(err.to_string().contains("unknown lint"));
    }

    #[test]
    fn lint_json_is_machine_readable() {
        let opts = LintOptions {
            format: LintFormat::Json,
            ..LintOptions::default()
        };
        let (out, _) = cmd_lint("m.xtuml", DEAD_EVENT_MODEL, None, &opts).unwrap();
        assert!(out.contains("\"code\": \"X0006\""), "{out}");
        assert!(out.contains("\"name\": \"dead-event\""), "{out}");
        assert!(out.contains("\"file\": \"m.xtuml\""), "{out}");
    }

    #[test]
    fn lint_parse_failure_is_a_rendered_diagnostic() {
        let (out, deny_hit) =
            cmd_lint("m.xtuml", "domain ???", None, &LintOptions::default()).unwrap();
        assert!(deny_hit);
        assert!(out.contains("error["), "{out}");
    }

    #[test]
    fn lint_covers_marks() {
        let marks = "marks for D;\nmark class Ghost isHardware = true;\n";
        let (out, deny_hit) = cmd_lint(
            "m.xtuml",
            MODEL,
            Some(("m.marks", marks)),
            &LintOptions::default(),
        )
        .unwrap();
        assert!(!deny_hit);
        assert!(out.contains("warning[X0012]"), "{out}");
        assert!(out.contains("m.marks:2:"), "{out}");
    }

    #[test]
    fn lint_flags_mismatched_mark_domain() {
        let (out, deny_hit) = cmd_lint(
            "m.xtuml",
            MODEL,
            Some(("m.marks", "marks for Other;\n")),
            &LintOptions::default(),
        )
        .unwrap();
        assert!(deny_hit);
        assert!(out.contains("targets domain `Other`"), "{out}");
    }

    #[test]
    fn arg_parsing() {
        use xtuml_core::value::Value;
        use xtuml_lang::stim::argument;
        assert_eq!(argument("true").unwrap(), Value::Bool(true));
        assert_eq!(argument("-3").unwrap(), Value::Int(-3));
        assert_eq!(argument("2.5").unwrap(), Value::Real(2.5));
        assert_eq!(argument("\"hi\"").unwrap(), Value::Str("hi".into()));
        assert!(argument("@").is_err());
    }
}
