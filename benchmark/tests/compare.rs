//! The verdicts of `compare`.

use ldc_benchmark::compare::{judge, Rule, Side, Verdict};
use ldc_benchmark::spec::Better;

fn side(value: f64) -> Side {
    Side {
        value: Some(value),
        ..Side::default()
    }
}

#[test]
fn deterministic_metrics_carry_no_noise_allowance() {
    let rule = Rule {
        better: Better::Lower,
        bound: Some(0.01),
        exact: true,
    };
    assert_eq!(judge(rule, side(4.30), side(4.30)), Verdict::Same);
    // A real difference inside the bound is reported as one.
    assert_eq!(judge(rule, side(4.30), side(4.31)), Verdict::Changed);
    assert_eq!(judge(rule, side(4.30), side(4.40)), Verdict::Worse);
    assert_eq!(judge(rule, side(4.30), side(4.10)), Verdict::Better);
    // Disturbance is a host matter: counters do not care.
    let disturbed = Side {
        disturbed: true,
        ..side(4.40)
    };
    assert_eq!(judge(rule, side(4.30), disturbed), Verdict::Worse);
}

#[test]
fn host_metrics_are_judged_by_bound_and_spread() {
    let rule = Rule {
        better: Better::Higher,
        bound: Some(0.08),
        exact: false,
    };
    assert_eq!(
        judge(rule, side(50_000.0), side(48_000.0)),
        Verdict::Unchanged
    );
    assert_eq!(judge(rule, side(50_000.0), side(45_000.0)), Verdict::Worse);
    assert_eq!(judge(rule, side(50_000.0), side(56_000.0)), Verdict::Better);
    // Spread wider than the bound, or a disturbed side: unresolved, never
    // unchanged, however close the medians are.
    let noisy = Side {
        spread: Some(0.10),
        ..side(50_000.0)
    };
    assert_eq!(judge(rule, noisy, side(50_000.0)), Verdict::Unresolved);
    let disturbed = Side {
        disturbed: true,
        ..side(45_000.0)
    };
    assert_eq!(judge(rule, side(50_000.0), disturbed), Verdict::Unresolved);
}

#[test]
fn unbounded_and_missing_rows_get_no_verdict() {
    let layer = Rule {
        better: Better::Lower,
        bound: None,
        exact: true,
    };
    assert_eq!(judge(layer, side(1.0), side(9.0)), Verdict::Info);
    let gated = Rule {
        bound: Some(0.01),
        ..layer
    };
    assert_eq!(judge(gated, side(1.0), Side::default()), Verdict::Missing);
}
