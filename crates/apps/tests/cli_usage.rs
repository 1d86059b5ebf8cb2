//! `cni-run --help` layout: the usage text exits with code 2 and keeps its
//! indentation, so every option line reads `  --flag …` and every wrapped
//! description lines up under the descriptions above it.

use std::process::Command;

#[test]
fn help_keeps_option_and_wrapped_line_indentation() {
    let out = Command::new(env!("CARGO_BIN_EXE_cni-run"))
        .arg("--help")
        .output()
        .expect("cni-run runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "--help exits with the usage code"
    );
    let text = String::from_utf8(out.stderr).expect("usage is UTF-8");
    let (mut options, mut wrapped) = (0, 0);
    for line in text.lines() {
        let body = line.trim_start();
        let indent = line.len() - body.len();
        if body.is_empty() || body.starts_with("cni-run ") {
            // Blank separators and the second synopsis line.
            continue;
        }
        if body.starts_with("--") {
            assert!(
                line.starts_with("  --"),
                "option line not at 2 spaces: {line:?}"
            );
            options += 1;
        } else if indent == 0 {
            // Section headings ("common options:") and per-app lines
            // ("jacobi:   --n N …") name themselves with a trailing colon.
            let first = body.split_whitespace().next().unwrap_or("");
            assert!(
                body.ends_with(':') || first.ends_with(':'),
                "unindented line is neither a heading nor an app line: {line:?}"
            );
        } else {
            assert!(indent >= 20, "wrapped description under-indented: {line:?}");
            wrapped += 1;
        }
    }
    assert!(
        options >= 30,
        "expected every option on its own line, saw {options}"
    );
    assert!(
        wrapped >= 10,
        "expected wrapped descriptions, saw {wrapped}"
    );
}
