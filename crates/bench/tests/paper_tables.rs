//! `paper-tables`' default output is a checked-in golden: every analytic
//! number behind Tables I–IV, Figures 5–8 and the ablations must stay
//! byte-identical unless a change means to move it. Such a change
//! regenerates the golden from the repo root with
//!
//! ```text
//! cargo run --release --offline -p qnn-bench --bin paper-tables > crates/bench/tests/paper_tables.txt
//! ```
//!
//! and the diff of that file is the review of what moved.

use std::process::Command;

#[test]
fn default_output_matches_the_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_paper-tables"))
        .output()
        .expect("paper-tables runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("paper-tables prints UTF-8");
    let want = include_str!("paper_tables.txt");
    if let Some((i, (g, w))) =
        got.lines().zip(want.lines()).enumerate().find(|(_, (g, w))| g != w)
    {
        panic!("line {}: got\n  {g}\nwant\n  {w}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "line count differs from the golden"
    );
    assert_eq!(got, want, "trailing whitespace or newlines differ from the golden");
}
