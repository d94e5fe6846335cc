//! One stimulus-script grammar, three entry points: `xtuml run`
//! (`cmd_run`), the serve daemon's `create` setup (`Store::apply`) and the
//! fuzz corpus reader (`parse_stim`) must accept and reject every script
//! in the table alike, and reject at the same line with the same message.

use xtuml::cli::cmd_run;
use xtuml::fuzz::parse_stim;
use xtuml_serve::proto::json_str;
use xtuml_serve::{Request, SessionCfg, Store};

/// The doorbell model plus a class whose event takes a real and a
/// string, so argument types reach a real `inject`.
const MODEL: &str = concat!(
    include_str!("../models/doorbell.xtuml"),
    "\nclass Meter {\n    event Read(r: real, s: string);\n    initial Idle;\n",
    "    state Idle {\n    }\n    on Idle: Read -> Idle;\n}\n"
);

const HEAD: &str = "create btn Button\ncreate chm Chimer\nrelate btn chm R1\n";

/// `(case, script, None to accept or Some(line) to reject)`.
fn table() -> Vec<(&'static str, String, Option<usize>)> {
    vec![
        (
            "shipped doorbell",
            include_str!("../models/doorbell.stim").into(),
            None,
        ),
        (
            "duplicate name",
            format!("{HEAD}create btn Button\nat 0 btn Press\n"),
            Some(4),
        ),
        (
            "trailing comment",
            format!("{HEAD}at 0 btn Press # first visitor\n"),
            None,
        ),
        (
            "extra relate token",
            "create btn Button\ncreate chm Chimer\nrelate btn chm R1 R9\n".into(),
            Some(3),
        ),
        (
            "extra create token",
            "create btn Button extra\n".into(),
            Some(1),
        ),
        (
            "real and string arguments",
            "create m Meter\nat 0 m Read 2.5 \"hi\"\nat 1 m Read -1.0 \"a#b\"\n".into(),
            None,
        ),
        (
            "bad argument",
            "create m Meter\n\nat 0 m Read @ \"hi\"\n".into(),
            Some(3),
        ),
        ("unknown verb", format!("{HEAD}explode\n"), Some(4)),
        ("unknown name", format!("{HEAD}at 0 ghost Press\n"), Some(4)),
        (
            "bad time",
            "create btn Button\nat soon btn Press\n".into(),
            Some(2),
        ),
        (
            "comment-only lines",
            "# nothing\n   # here\n\n".into(),
            None,
        ),
    ]
}

/// The `line N: message` tail of an error, split into its parts.
fn located(err: &str) -> (usize, String) {
    let at = err
        .find("line ")
        .unwrap_or_else(|| panic!("no line in `{err}`"));
    let (n, msg) = err[at + 5..].split_once(": ").expect("`line N: message`");
    (n.parse().expect("line number"), msg.to_owned())
}

fn via_run(script: &str) -> Result<(), (usize, String)> {
    cmd_run(MODEL, script)
        .map(drop)
        .map_err(|e| located(&e.to_string()))
}

fn via_serve(script: &str) -> Result<(), (usize, String)> {
    let body = format!(
        r#"{{"verb": "create", "model": {}, "setup": {}}}"#,
        json_str(MODEL),
        json_str(script)
    );
    let reply = Store::new(SessionCfg::default()).apply(&Request::parse(&body).unwrap());
    let reply = xtuml_obs::json::parse(&reply).unwrap();
    match reply.get("error").and_then(|e| e.as_str()) {
        None => Ok(()),
        Some(err) => Err(located(err)),
    }
}

fn via_corpus(script: &str) -> Result<(), (usize, String)> {
    parse_stim(script).map(drop).map_err(|e| located(&e))
}

#[test]
fn every_entry_point_reads_the_table_alike() {
    for (case, script, want) in table() {
        let run = via_run(&script);
        assert_eq!(
            run.as_ref().err().map(|e| e.0),
            want,
            "{case}: run gave {run:?}"
        );
        assert_eq!(via_serve(&script), run, "{case}: serve differs from run");
        assert_eq!(via_corpus(&script), run, "{case}: corpus differs from run");
    }
}
