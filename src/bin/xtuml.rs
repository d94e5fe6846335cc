//! The `xtuml` command-line tool. See `xtuml::cli` for the subcommands.

use std::process::ExitCode;
use xtuml::cli;

fn usage() -> String {
    "usage:\n\
     \x20 xtuml check     <model.xtuml>\n\
     \x20 xtuml lint      <model.xtuml> [marks.marks] [--format json]\n\
     \x20                 [--deny <code|name|all>]... [--allow <code|name>]...\n\
     \x20 xtuml print     <model.xtuml>\n\
     \x20 xtuml interface <model.xtuml> <marks.marks>\n\
     \x20 xtuml compile   <model.xtuml> <marks.marks> [out_dir]\n\
     \x20 xtuml run       <model.xtuml> <script.stim> [--seed S] [--jobs J] [--shards N]\n\
     \x20                 [--trace full|off] [--profile out.json] [--metrics out.jsonl]\n\
     \x20 xtuml bc        <model.xtuml>\n\
     \x20 xtuml analyze   <model.xtuml> [--format json]\n\
     \x20 xtuml stats     <model.xtuml> <script.stim> [--seed S] [--jobs J] [--shards N]\n\
     \x20                 [--trace full|off] [--format json]\n\
     \x20 xtuml stats     --check-profile <trace.json>\n\
     \x20 xtuml fuzz      [--seeds N] [--start S] [--jobs J] [--shrink] [--corpus DIR]\n\
     \x20                 [--checkpoint] [--metrics out.jsonl]\n\
     \x20 xtuml serve     [--port P] [--sessions N] [--queue-cap N] [--fuel N]\n\
     \x20                 [--idle-evict N] [--spool DIR] [--smoke]\n"
        .to_owned()
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

// `off` exists for pure-throughput runs only; goldens and differential
// legs must keep the default `full` (an empty trace compares equal to
// an empty trace, which proves nothing).
fn parse_trace(word: Option<&str>) -> Result<xtuml_exec::TraceMode, String> {
    match word {
        Some("full") => Ok(xtuml_exec::TraceMode::Full),
        Some("off") => Ok(xtuml_exec::TraceMode::Off),
        _ => Err("--trace takes `full` or `off`".to_owned()),
    }
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("check") => {
            let path = it.next().ok_or_else(usage)?;
            let model = read(path)?;
            print!(
                "{}",
                cli::cmd_check(path, &model).map_err(|e| e.to_string())?
            );
        }
        Some("lint") => {
            let mut paths: Vec<&str> = Vec::new();
            let mut opts = cli::LintOptions::default();
            let mut rest = it;
            while let Some(arg) = rest.next() {
                match arg {
                    "--format" => match rest.next() {
                        Some("json") => opts.format = cli::LintFormat::Json,
                        Some("human") => opts.format = cli::LintFormat::Human,
                        _ => return Err("--format takes `human` or `json`".to_owned()),
                    },
                    "--deny" => opts
                        .deny
                        .push(rest.next().ok_or("--deny takes a lint code")?.to_owned()),
                    "--allow" => opts
                        .allow
                        .push(rest.next().ok_or("--allow takes a lint code")?.to_owned()),
                    flag if flag.starts_with("--") => {
                        return Err(format!("unknown flag `{flag}`\n{}", usage()))
                    }
                    path => paths.push(path),
                }
            }
            let (model_path, marks_path) = match paths.as_slice() {
                [m] => (*m, None),
                [m, k] => (*m, Some(*k)),
                _ => return Err(usage()),
            };
            let model = read(model_path)?;
            let marks_src = marks_path.map(read).transpose()?;
            let marks = marks_path.zip(marks_src.as_deref());
            let (report, deny_hit) =
                cli::cmd_lint(model_path, &model, marks, &opts).map_err(|e| e.to_string())?;
            print!("{report}");
            if deny_hit {
                return Err(String::new());
            }
        }
        Some("print") => {
            let model = read(it.next().ok_or_else(usage)?)?;
            print!("{}", cli::cmd_print(&model).map_err(|e| e.to_string())?);
        }
        Some("interface") => {
            let model = read(it.next().ok_or_else(usage)?)?;
            let marks = read(it.next().ok_or_else(usage)?)?;
            print!(
                "{}",
                cli::cmd_interface(&model, &marks).map_err(|e| e.to_string())?
            );
        }
        Some("compile") => {
            let model = read(it.next().ok_or_else(usage)?)?;
            let marks = read(it.next().ok_or_else(usage)?)?;
            let out_dir = it.next().unwrap_or(".");
            std::fs::create_dir_all(out_dir)
                .map_err(|e| format!("cannot create {out_dir}: {e}"))?;
            for (name, text) in cli::cmd_compile(&model, &marks).map_err(|e| e.to_string())? {
                let path = std::path::Path::new(out_dir).join(&name);
                std::fs::write(&path, text).map_err(|e| format!("cannot write {name}: {e}"))?;
                println!("wrote {}", path.display());
            }
        }
        Some("run") => {
            let mut paths: Vec<&str> = Vec::new();
            let mut opts = cli::RunOptions {
                jobs: xtuml_pool::default_jobs(),
                ..cli::RunOptions::default()
            };
            let mut profile_path: Option<&str> = None;
            let mut metrics_path: Option<&str> = None;
            let mut rest = it;
            while let Some(arg) = rest.next() {
                match arg {
                    "--seed" => {
                        opts.seed = rest
                            .next()
                            .and_then(|n| n.parse().ok())
                            .ok_or("--seed takes a number")?;
                    }
                    "--jobs" => {
                        opts.jobs = rest
                            .next()
                            .and_then(|n| n.parse().ok())
                            .filter(|&j| j >= 1)
                            .ok_or("--jobs takes a thread count (>= 1)")?;
                    }
                    "--shards" => {
                        opts.shards = Some(
                            rest.next()
                                .and_then(|n| n.parse().ok())
                                .filter(|&s| s >= 1)
                                .ok_or("--shards takes a shard count (>= 1)")?,
                        );
                    }
                    "--trace" => opts.trace = parse_trace(rest.next())?,
                    "--profile" => {
                        profile_path = Some(rest.next().ok_or("--profile takes a file path")?);
                    }
                    "--metrics" => {
                        metrics_path = Some(rest.next().ok_or("--metrics takes a file path")?);
                    }
                    flag if flag.starts_with("--") => {
                        return Err(format!("unknown flag `{flag}`\n{}", usage()))
                    }
                    path => paths.push(path),
                }
            }
            let [model_path, script_path] = paths.as_slice() else {
                return Err(usage());
            };
            let model = read(model_path)?;
            let script = read(script_path)?;
            let obs = cli::ObsOptions {
                counters: metrics_path.is_some(),
                profile: profile_path.is_some(),
                stream_epochs: metrics_path.is_some(),
            };
            let out = cli::cmd_run_full(&model, &script, opts, &obs).map_err(|e| e.to_string())?;
            print!("{}", out.text);
            if let Some(path) = profile_path {
                let json = out
                    .profile_json
                    .as_deref()
                    .ok_or("internal: profile requested but not produced")?;
                std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("wrote {path}");
            }
            if let Some(path) = metrics_path {
                let m = out
                    .metrics
                    .as_ref()
                    .ok_or("internal: metrics requested but not produced")?;
                let header = [
                    ("model", format!("\"{}\"", xtuml_obs::escape(model_path))),
                    ("seed", out.seed.to_string()),
                    ("shards", out.shards.to_string()),
                    ("dispatches", out.dispatches.to_string()),
                ];
                let mut doc = m.to_jsonl(&header);
                if let Some(t) = &out.timing {
                    doc.push_str(&t.to_jsonl());
                }
                std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("wrote {path}");
            }
        }
        Some("bc") => {
            let model = read(it.next().ok_or_else(usage)?)?;
            print!("{}", cli::cmd_bc(&model).map_err(|e| e.to_string())?);
        }
        Some("analyze") => {
            let mut path: Option<&str> = None;
            let mut format = cli::LintFormat::Human;
            let mut rest = it;
            while let Some(arg) = rest.next() {
                match arg {
                    "--format" => match rest.next() {
                        Some("json") => format = cli::LintFormat::Json,
                        Some("human") => format = cli::LintFormat::Human,
                        _ => return Err("--format takes `human` or `json`".to_owned()),
                    },
                    flag if flag.starts_with("--") => {
                        return Err(format!("unknown flag `{flag}`\n{}", usage()))
                    }
                    p => path = Some(p),
                }
            }
            let model = read(path.ok_or_else(usage)?)?;
            print!(
                "{}",
                cli::cmd_analyze(&model, format).map_err(|e| e.to_string())?
            );
        }
        Some("stats") => {
            let mut paths: Vec<&str> = Vec::new();
            let mut opts = cli::RunOptions {
                jobs: xtuml_pool::default_jobs(),
                ..cli::RunOptions::default()
            };
            let mut format = cli::LintFormat::Human;
            let mut check_profile: Option<&str> = None;
            let mut rest = it;
            while let Some(arg) = rest.next() {
                match arg {
                    "--seed" => {
                        opts.seed = rest
                            .next()
                            .and_then(|n| n.parse().ok())
                            .ok_or("--seed takes a number")?;
                    }
                    "--jobs" => {
                        opts.jobs = rest
                            .next()
                            .and_then(|n| n.parse().ok())
                            .filter(|&j| j >= 1)
                            .ok_or("--jobs takes a thread count (>= 1)")?;
                    }
                    "--shards" => {
                        opts.shards = Some(
                            rest.next()
                                .and_then(|n| n.parse().ok())
                                .filter(|&s| s >= 1)
                                .ok_or("--shards takes a shard count (>= 1)")?,
                        );
                    }
                    "--trace" => opts.trace = parse_trace(rest.next())?,
                    "--format" => match rest.next() {
                        Some("json") => format = cli::LintFormat::Json,
                        Some("human") => format = cli::LintFormat::Human,
                        _ => return Err("--format takes `human` or `json`".to_owned()),
                    },
                    "--check-profile" => {
                        check_profile =
                            Some(rest.next().ok_or("--check-profile takes a file path")?);
                    }
                    flag if flag.starts_with("--") => {
                        return Err(format!("unknown flag `{flag}`\n{}", usage()))
                    }
                    path => paths.push(path),
                }
            }
            if let Some(path) = check_profile {
                let src = read(path)?;
                print!(
                    "{}",
                    cli::cmd_check_profile(&src).map_err(|e| e.to_string())?
                );
                return Ok(());
            }
            let [model_path, script_path] = paths.as_slice() else {
                return Err(usage());
            };
            let model = read(model_path)?;
            let script = read(script_path)?;
            print!(
                "{}",
                cli::cmd_stats(&model, &script, opts, format).map_err(|e| e.to_string())?
            );
        }
        Some("fuzz") => {
            let mut opts = cli::FuzzOptions {
                jobs: xtuml_pool::default_jobs(),
                ..cli::FuzzOptions::default()
            };
            let mut corpus_dir: Option<&str> = None;
            let mut metrics_path: Option<&str> = None;
            let mut rest = it;
            while let Some(arg) = rest.next() {
                match arg {
                    "--seeds" => {
                        opts.seeds = rest
                            .next()
                            .and_then(|n| n.parse().ok())
                            .ok_or("--seeds takes a count")?;
                    }
                    "--start" => {
                        opts.start = rest
                            .next()
                            .and_then(|n| n.parse().ok())
                            .ok_or("--start takes a seed")?;
                    }
                    "--jobs" => {
                        opts.jobs = rest
                            .next()
                            .and_then(|n| n.parse().ok())
                            .filter(|&j| j >= 1)
                            .ok_or("--jobs takes a thread count (>= 1)")?;
                    }
                    "--shrink" => opts.shrink = true,
                    "--checkpoint" => opts.checkpoint = true,
                    "--corpus" => {
                        corpus_dir = Some(rest.next().ok_or("--corpus takes a directory")?);
                    }
                    "--metrics" => {
                        metrics_path = Some(rest.next().ok_or("--metrics takes a file path")?);
                    }
                    // Self-test hook: inject a scheduler fault so the
                    // oracle itself can be exercised end to end.
                    "--ablate" => {
                        opts.ablation = xtuml::fuzz::Ablation::parse(
                            rest.next().ok_or("--ablate takes a fault name")?,
                        )?;
                    }
                    flag => return Err(format!("unknown flag `{flag}`\n{}", usage())),
                }
            }
            let (report, entries) = cli::cmd_fuzz(&opts).map_err(|e| e.to_string())?;
            let ok = report.ok();
            print!("{}", report.render());
            if let Some(path) = metrics_path {
                std::fs::write(path, report.render_jsonl())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("wrote {path}");
            }
            if let Some(dir) = corpus_dir {
                for e in &entries {
                    let written = xtuml::fuzz::write_entry(std::path::Path::new(dir), e)
                        .map_err(|e| format!("cannot write corpus: {e}"))?;
                    for path in written {
                        println!("wrote {}", path.display());
                    }
                }
            }
            if !ok {
                return Err(String::new());
            }
        }
        Some("serve") => {
            let mut opts = cli::ServeOptions::default();
            let mut rest = it;
            while let Some(arg) = rest.next() {
                match arg {
                    "--port" => {
                        opts.port = rest
                            .next()
                            .and_then(|n| n.parse().ok())
                            .ok_or("--port takes a port number")?;
                    }
                    "--sessions" => {
                        opts.sessions = rest
                            .next()
                            .and_then(|n| n.parse().ok())
                            .filter(|&n| n >= 1)
                            .ok_or("--sessions takes a count (>= 1)")?;
                    }
                    "--queue-cap" => {
                        opts.queue_cap = rest
                            .next()
                            .and_then(|n| n.parse().ok())
                            .filter(|&n| n >= 1)
                            .ok_or("--queue-cap takes a count (>= 1)")?;
                    }
                    "--fuel" => {
                        opts.fuel = rest
                            .next()
                            .and_then(|n| n.parse().ok())
                            .ok_or("--fuel takes a dispatch budget")?;
                    }
                    "--idle-evict" => {
                        opts.idle_evict = rest
                            .next()
                            .and_then(|n| n.parse().ok())
                            .ok_or("--idle-evict takes a tick count")?;
                    }
                    "--spool" => {
                        opts.spool =
                            Some(rest.next().ok_or("--spool takes a directory")?.to_owned());
                    }
                    "--smoke" => opts.smoke = true,
                    flag => return Err(format!("unknown flag `{flag}`\n{}", usage())),
                }
            }
            print!("{}", cli::cmd_serve(&opts).map_err(|e| e.to_string())?);
        }
        _ => return Err(usage()),
    }
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            // An empty message means the report already went to stdout
            // (lint with deny-level findings); only the exit code changes.
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            ExitCode::FAILURE
        }
    }
}
