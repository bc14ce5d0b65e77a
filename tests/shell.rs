//! End-to-end tests of the `tdbms` terminal monitor binary.

use std::io::{ErrorKind, Write};
use std::process::{Command, Stdio};

fn run_shell_status(
    args: &[&str],
    input: &str,
) -> (String, String, std::process::ExitStatus) {
    run_shell_env(args, &[], input)
}

fn run_shell_env(
    args: &[&str],
    env: &[(&str, &str)],
    input: &str,
) -> (String, String, std::process::ExitStatus) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tdbms"))
        .args(args)
        .envs(env.iter().copied())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tdbms");
    let written = child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(input.as_bytes());
    // A shell that refuses its environment exits without reading.
    if let Err(e) = written {
        assert_eq!(e.kind(), ErrorKind::BrokenPipe, "write input: {e}");
    }
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status,
    )
}

fn run_shell(args: &[&str], input: &str) -> (String, String) {
    let (stdout, stderr, _) = run_shell_status(args, input);
    (stdout, stderr)
}

#[test]
fn shell_runs_a_session() {
    let (stdout, _) = run_shell(
        &[],
        r#"create temporal interval emp (name = c12, salary = i4);
append to emp (name = "di", salary = 100);
range of e is emp;
replace e (salary = 150) where e.name = "di";
retrieve (e.name, e.salary) when e overlap "now";
\d emp
\l
"#,
    );
    assert!(stdout.contains("di"), "stdout: {stdout}");
    assert!(stdout.contains("150"));
    assert!(stdout.contains("temporal interval relation"));
    assert!(stdout.contains("3 stored versions"));
    // \l lists the relation.
    assert!(stdout.lines().any(|l| l.trim() == "emp"));
}

#[test]
fn shell_reports_errors_without_dying() {
    let (stdout, _) =
        run_shell(&[], "retrieve (x.y);\ncreate static t (a = i4);\n\\l\n");
    assert!(stdout.contains("error:"), "stdout: {stdout}");
    // The session continued after the error.
    assert!(stdout.lines().any(|l| l.trim() == "t"));
}

#[test]
fn shell_multiline_statements_and_backslash_g() {
    let (stdout, _) = run_shell(
        &[],
        "create static t (a = i4);\nappend to t\n  (a = 7)\\g\nrange of v is t;\nretrieve (v.a);\n",
    );
    assert!(stdout.contains('7'), "stdout: {stdout}");
}

#[test]
fn shell_persists_to_a_directory() {
    let dir = tdbms_kernel::tmpdir::fresh_dir("shell-test");
    let dir_s = dir.to_str().unwrap();

    let (_, stderr) = run_shell(
        &[dir_s],
        "create rollback r (x = i4);\nappend to r (x = 42);\n",
    );
    assert!(stderr.contains("file-backed"), "stderr: {stderr}");

    let (stdout, _) =
        run_shell(&[dir_s], "range of v is r;\nretrieve (v.x);\n");
    assert!(stdout.contains("42"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shell_rejects_an_unknown_checkpoint_policy() {
    let dir = tdbms_kernel::tmpdir::fresh_dir("shell-checkpoint");
    let dir_s = dir.to_str().unwrap();
    for bad in ["Manual", "every-5", "every:x", ""] {
        let (stdout, stderr, status) = run_shell_env(
            &[dir_s],
            &[("TDBMS_CHECKPOINT", bad)],
            "create static t (a = i4);\n",
        );
        assert_eq!(status.code(), Some(1), "{bad:?}: {status}");
        assert!(
            stderr.contains("bad TDBMS_CHECKPOINT value"),
            "{bad:?}: stderr: {stderr}"
        );
        assert!(stdout.is_empty(), "{bad:?} ran statements: {stdout}");
    }
    for good in ["manual", "every:5"] {
        let (_, stderr, status) = run_shell_env(
            &[dir_s],
            &[("TDBMS_CHECKPOINT", good)],
            "create static t (a = i4);\ndestroy t;\n",
        );
        assert!(status.success(), "{good:?}: {status}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shell_exits_zero_on_a_clean_script() {
    let (_, _, status) = run_shell_status(
        &[],
        "create static t (a = i4);\nappend to t (a = 1);\n",
    );
    assert!(status.success(), "clean script must exit 0: {status}");
}

#[test]
fn shell_exits_nonzero_when_a_scripted_statement_fails() {
    // The failing statement is reported, the session continues, and
    // the final exit status is nonzero so `set -e` scripts notice.
    let (stdout, _, status) = run_shell_status(
        &[],
        "retrieve (ghost.x);\ncreate static t (a = i4);\n",
    );
    assert!(stdout.contains("error:"), "stdout: {stdout}");
    assert_eq!(
        status.code(),
        Some(1),
        "a failed statement must produce exit code 1: {status}"
    );
}

#[test]
fn shell_backslash_q_propagates_earlier_errors() {
    let (_, _, status) =
        run_shell_status(&[], "retrieve (ghost.x);\n\\q\n");
    assert_eq!(status.code(), Some(1), "status: {status}");
}

#[test]
fn shell_handles_eof_mid_statement_without_hanging() {
    // No terminating `;` — stdin just ends. The buffered statement
    // must still run and the process must exit promptly (the harness
    // would time out on a hang).
    let (stdout, _, status) = run_shell_status(
        &[],
        "create static t (a = i4);\nappend to t (a = 9);\n\
         range of v is t;\nretrieve (v.a)",
    );
    assert!(stdout.contains('9'), "stdout: {stdout}");
    assert!(status.success(), "status: {status}");

    // EOF mid-statement with a syntax hole: still terminates, exit 1.
    let (stdout, _, status) =
        run_shell_status(&[], "create static broken (");
    assert!(stdout.contains("error:"), "stdout: {stdout}");
    assert_eq!(status.code(), Some(1), "status: {status}");
}

#[test]
fn shell_stats_prints_relation_statistics() {
    let (stdout, _, status) = run_shell_status(
        &[],
        "create temporal interval emp (name = c12, salary = i4);\n\
         append to emp (name = \"a\", salary = 1);\n\
         append to emp (name = \"b\", salary = 2);\n\
         range of e is emp;\n\
         replace e (salary = 3) where e.name = \"a\";\n\
         \\stats emp\n\\stats\n",
    );
    assert!(status.success(), "status: {status}\nstdout: {stdout}");
    assert!(stdout.contains("  4 stored versions,"), "stdout: {stdout}");
    assert!(
        stdout.contains("  ~2 distinct key(s), average chain length 2\n"),
        "stdout: {stdout}"
    );
    // Bare \stats still reports the counters, plus the plan cache.
    assert!(stdout.contains("page reads"), "stdout: {stdout}");
    assert!(stdout.contains("plan cache:"), "stdout: {stdout}");
}

/// `\stats` used to print the pager's running totals as "last
/// statement": after snapshot-served retrieves (which never reset them)
/// that was everything since the last exclusive statement.
#[test]
fn shell_stats_reports_the_last_statement_not_an_accumulation() {
    let (stdout, _, status) = run_shell_status(
        &[],
        "create temporal interval emp (name = c12, salary = i4);\n\
         append to emp (name = \"a\", salary = 1);\n\
         range of e is emp;\n\
         retrieve (e.name);\nretrieve (e.name);\nretrieve (e.name);\n\
         \\stats\n",
    );
    assert!(status.success(), "status: {status}\nstdout: {stdout}");
    let one_page = "1 input / 0 output pages";
    assert_eq!(
        stdout.lines().filter(|l| l.contains(one_page)).count(),
        3,
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("last statement: 1 page reads, 0 page writes"),
        "stdout: {stdout}"
    );
    let lifetime: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("lifetime: "))
        .and_then(|l| l.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no lifetime line in: {stdout}"));
    assert!(lifetime >= 3, "stdout: {stdout}");
}

#[test]
fn shell_stats_on_unknown_relation_exits_nonzero() {
    let (stdout, _, status) = run_shell_status(&[], "\\stats ghost\n");
    assert!(stdout.contains("error:"), "stdout: {stdout}");
    assert_eq!(status.code(), Some(1), "status: {status}");
}

#[test]
fn shell_explain_prints_a_plan() {
    let (stdout, _, status) = run_shell_status(
        &[],
        "create temporal interval emp (name = c12, salary = i4);\n\
         append to emp (name = \"a\", salary = 1);\n\
         range of e is emp;\n\
         explain retrieve (e.salary) where e.salary > 0;\n",
    );
    assert!(status.success(), "status: {status}\nstdout: {stdout}");
    assert!(stdout.contains("query plan"), "stdout: {stdout}");
    assert!(stdout.contains("estimated:"), "stdout: {stdout}");
    assert!(stdout.contains("actual:"), "stdout: {stdout}");
}

#[test]
fn shell_include_recursion_is_capped() {
    // A file that includes itself must terminate with an error
    // instead of recursing until the stack dies.
    let dir = tdbms_kernel::tmpdir::fresh_dir("shell-i-loop");
    let script = dir.join("loop.tq");
    std::fs::write(&script, format!("\\i {}\n", script.display())).unwrap();
    let (stdout, _, status) =
        run_shell_status(&[], &format!("\\i {}\n", script.display()));
    assert!(stdout.contains("nesting exceeds"), "stdout: {stdout}");
    assert_eq!(status.code(), Some(1), "status: {status}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shell_runs_files_via_backslash_i() {
    let dir = tdbms_kernel::tmpdir::fresh_dir("shell-i");
    let script = dir.join("setup.tq");
    std::fs::write(
        &script,
        "create static s (x = i4);\nappend to s (x = 1);\nappend to s (x = 2);\n",
    )
    .unwrap();
    let (stdout, _) = run_shell(
        &[],
        &format!(
            "\\i {}\nrange of v is s;\nretrieve (total = sum(v.x));\n",
            script.display()
        ),
    );
    assert!(stdout.contains('3'), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}
