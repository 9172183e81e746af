//! The paper's figures, pinned for tier-1, and EXPERIMENTS.md's summary
//! tables traced to them.
//!
//! The contract is `crates/bench/golden/paper/<id>.txt`: every figure's
//! output at its default op count and seed `0x5eed`, which CI's
//! `paper-golden` job compares byte for byte with a fresh
//! `ldc-bench paper --only <id>`. Those runs take about 95 s in release, too
//! long for tier-1, so this file pins two figures at 5 000 ops instead,
//! through the same library entry, by length and FNV-1a digest.
//!
//! The digests are a weaker witness than they look. Fig 10a and Fig 10c
//! print the same bytes at 5 k, 10 k and 20 k ops at `4caddc7` and at
//! `195be4b`, yet `195be4b` moved Fig 10a's default-ops WO row (see
//! EXPERIMENTS.md, "How the recorded numbers drifted"). A reduced digest
//! would not have caught that drift; only the default-ops goldens do.

use std::fs;
use std::path::Path;

use ldc_bench::{run_paper, Flags};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(length, FNV-1a)` of `id`'s output at 5 000 ops and the default seed.
fn digest_at_5000(id: &str) -> (usize, u64) {
    let flags = Flags::new(["--ops".to_string(), "5000".to_string()]);
    let mut out = Vec::new();
    run_paper(Some(id), &flags, &mut out).unwrap();
    (out.len(), fnv1a(&out))
}

#[test]
fn fig10a_at_5000_ops_matches_golden() {
    // Recorded from the `fig10a_throughput_get` binary with `--ops 5000`
    // before the figure binaries were folded into `ldc-bench paper`.
    assert_eq!(
        digest_at_5000("fig10a_throughput_get"),
        (454, 0x0653_a78b_1417_3497)
    );
}

#[test]
fn fig10c_at_5000_ops_matches_golden() {
    // Recorded from the `fig10c_compaction_io` binary with `--ops 5000`
    // as (559, 0x4e7c_12bc_50c4_c764), with one cell changed since: UDC
    // moves no compaction bytes in RH's 5 000-op window, and that row's
    // `LDC/UDC total` used to divide by one byte and print `455475700.0%`.
    // It prints `-` now, so the text is 11 bytes shorter.
    assert_eq!(
        digest_at_5000("fig10c_compaction_io"),
        (548, 0x15c0_2c65_7f82_d5a9)
    );
}

/// Every number in `text`: maximal runs of digits, with one inner `.`.
fn numbers(text: &str) -> Vec<&str> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if !b[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
            i += 1;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
        }
        out.push(&text[start..i]);
    }
    out
}

/// Whether `number` occurs in `golden` as a whole number, not as part of
/// a longer one (`23.9` is not in `123.95`).
fn contains_number(golden: &str, number: &str) -> bool {
    let g = golden.as_bytes();
    golden.match_indices(number).any(|(at, _)| {
        let end = at + number.len();
        let before = at.checked_sub(1).map(|i| g[i]);
        let digitish = |c: Option<u8>| c.is_some_and(|c| c.is_ascii_digit() || c == b'.');
        let after_is_decimal =
            g.get(end) == Some(&b'.') && g.get(end + 1).is_some_and(|c| c.is_ascii_digit());
        !digitish(before) && !g.get(end).is_some_and(|c| c.is_ascii_digit()) && !after_is_decimal
    })
}

/// The rows of the markdown table whose header row starts with `header`,
/// split into trimmed cells.
fn table_rows<'a>(doc: &'a str, header: &str) -> Vec<Vec<&'a str>> {
    doc.lines()
        .skip_while(|l| !l.starts_with(header))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.trim_matches('|').split(" | ").map(str::trim).collect())
        .collect()
}

#[test]
fn every_summary_number_appears_in_its_rows_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    let tables = [
        ("| ID | Paper claim | Measured (this repo) | Shape |", 2),
        ("| Check | Result |", 1),
    ];
    let mut checked = 0;
    for (header, column) in tables {
        let rows = table_rows(&doc, header);
        assert!(!rows.is_empty(), "no table under `{header}`");
        for row in rows {
            let cell = row[column];
            // A row names its golden by linking it from its first cell.
            let link = row[0]
                .split("golden/paper/")
                .nth(1)
                .and_then(|rest| rest.split(".txt").next());
            let Some(id) = link else {
                assert!(
                    numbers(cell).is_empty(),
                    "row `{}` quotes numbers but links no golden",
                    row[0]
                );
                continue;
            };
            let golden =
                fs::read_to_string(root.join(format!("crates/bench/golden/paper/{id}.txt")))
                    .unwrap_or_else(|e| panic!("row `{}`: golden `{id}`: {e}", row[0]));
            for n in numbers(cell) {
                assert!(
                    contains_number(&golden, n),
                    "row `{}` quotes {n}, which `{id}.txt` does not print",
                    row[0]
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 50, "only {checked} numbers traced");
}

#[test]
fn number_matching_respects_boundaries() {
    assert_eq!(
        numbers("+23.9% (WO), 1.26x, k=3→25."),
        ["23.9", "1.26", "3", "25"]
    );
    assert!(contains_number("| WO | 43458 | +23.9% |", "23.9"));
    assert!(!contains_number("| 123.95 |", "23.9"));
    assert!(!contains_number("| 23.95 |", "23.9"));
    assert!(!contains_number("| 5.3 |", "3"));
    assert!(contains_number("P99.9", "99.9"));
}
