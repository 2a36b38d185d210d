//! Knob census: the flags `orbit2-serve --help` prints and the flags the
//! README's serving section documents must be the same set, so neither can
//! gain or lose a knob without the other — and likewise the keys of a
//! `{"cmd":"stats"}` reply and the keys the README lists.

use std::collections::BTreeSet;

const MAIN_RS: &str = include_str!("../src/main.rs");
const README: &str = include_str!("../../../README.md");

/// Every `--flag` token in `text`.
fn flags(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
        .filter(|t| t.strip_prefix("--").is_some_and(|n| n.starts_with(|c: char| c.is_ascii_lowercase())))
        .collect()
}

fn between<'a>(text: &'a str, start: &str, end: &str) -> &'a str {
    let from = text.find(start).unwrap_or_else(|| panic!("{start:?} not found")) + start.len();
    let len = text[from..].find(end).unwrap_or_else(|| panic!("{end:?} not found after {start:?}"));
    &text[from..from + len]
}

#[test]
fn usage_flags_and_readme_serving_section_agree() {
    let usage = flags(between(MAIN_RS, "const USAGE: &str = \"", "\";"));
    // On a `cargo run ... -- <server flags>` line only the part after the
    // separator is addressed to the server.
    let readme: BTreeSet<&str> = between(README, "## Serving quickstart", "\n## ")
        .lines()
        .map(|l| match l.strip_prefix("cargo ") {
            Some(rest) => rest.split_once(" -- ").map_or("", |(_, server)| server),
            None => l,
        })
        .flat_map(flags)
        .collect();
    assert_eq!(usage.len(), 9, "orbit2-serve --help lists {usage:?}");
    let undocumented: Vec<_> = usage.difference(&readme).collect();
    let stale: Vec<_> = readme.difference(&usage).collect();
    assert!(undocumented.is_empty(), "in the usage string but not in README: {undocumented:?}");
    assert!(stale.is_empty(), "in README but not in the usage string: {stale:?}");
}

#[test]
fn stats_reply_keys_and_readme_stats_paragraph_agree() {
    let reply = serde_json::to_string(&orbit2::serving::ServeStats::default()).unwrap();
    let value: serde::Value = serde_json::from_str(&reply).unwrap();
    let keys: BTreeSet<&str> = value.as_object().unwrap().keys().map(String::as_str).collect();
    // Every `snake_case` word in backticks in the README's **Stats.** paragraph.
    let documented: BTreeSet<&str> = between(README, "**Stats.**", "\n\n")
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|t| t.chars().all(|c| c.is_ascii_lowercase() || c == '_'))
        .collect();
    assert_eq!(keys.len(), 11, "stats reply keys: {keys:?}");
    assert_eq!(keys, documented, "stats reply keys vs README **Stats.** paragraph");
}

/// A configuration that cannot serve is refused at startup with the usage
/// exit code and a message naming the flag — never a panic, and never a
/// server that turns every request away.
#[test]
fn impossible_configurations_exit_2_without_a_panic() {
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};
    for (flags, named) in [
        (&["--tiles", "3"][..], "--tiles"),
        (&["--grid", "30x64"], "--grid"),
        (&["--grid", "0x0"], "--grid"),
        (&["--grid", "4x4"], "--grid"),
        (&["--samples", "0"], "--samples"),
        (&["--queue", "0"], "--queue"),
        (&["--tiles", "9", "--halo", "2"], "--tiles"),
        (&["--precision", "fp64"], "--precision"),
        (&["--precision", "bf16"], "--precision"),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_orbit2-serve"))
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn orbit2-serve");
        // A configuration that slipped through would listen forever.
        let started = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            if started.elapsed() > Duration::from_secs(60) {
                child.kill().unwrap();
                panic!("orbit2-serve {flags:?} started instead of refusing");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
        assert!(!stderr.contains("panicked"), "orbit2-serve {flags:?} panicked:\n{stderr}");
        assert_eq!(status.code(), Some(2), "orbit2-serve {flags:?}: {stderr}");
        assert!(stderr.contains(named), "orbit2-serve {flags:?} must name {named}: {stderr}");
        if named == "--precision" {
            for p in orbit2_model::WeightPrecision::ALL {
                assert!(stderr.contains(p.label()), "orbit2-serve {flags:?} must name {p:?}: {stderr}");
            }
        }
    }
}
