//! Differential-fidelity slice: a fixed-seed corpus slice through every
//! cross-model check in-process.
//!
//! The full 120-case sweep lives in `diff_bench` (and its committed
//! `BENCH_diff.json`); this suite pins the same contracts at test speed
//! on a small-grid slice of the same seed-42 corpus:
//!
//! * every gated check passes — serde and case-file round-trips,
//!   2RM-vs-4RM rise-relative agreement, the analytic single-channel
//!   closed form, Algorithm 3 optimum stability across models, and the
//!   energy-balance pressure floor (4RM runs hotter than `T*_max` just
//!   under `P_lb`);
//! * the corpus fingerprint is bit-identical on a same-config replay
//!   (the `all_identical` contract of `BENCH_diff.json`).

use coolnet::cases::gen::{corpus, CaseSpec};
use coolnet::opt::differential::{fingerprint, run_case, CaseReport, DiffConfig};

/// The three smallest-grid cases of the seed-42 corpus `diff_bench`
/// sweeps — a strict subset of the committed artifact's cases.
fn slice() -> Vec<CaseSpec> {
    let specs: Vec<CaseSpec> = corpus(42, 120)
        .into_iter()
        .filter(|s| s.grid <= 17)
        .take(3)
        .collect();
    assert_eq!(specs.len(), 3, "seed-42 corpus must contain small grids");
    specs
}

fn sweep() -> Vec<CaseReport> {
    let cfg = DiffConfig {
        coarsenings: vec![2],
        ..DiffConfig::default()
    };
    slice()
        .iter()
        .map(|s| run_case(s, &cfg).unwrap_or_else(|e| panic!("case {}: {e}", s.name)))
        .collect()
}

#[test]
fn corpus_slice_passes_every_gate() {
    for r in sweep() {
        assert!(r.all_ok(), "case {} failed a gate: {r:?}", r.name);
        assert!(
            r.energy_floor > 0.0 && r.energy_bound_ok,
            "case {}: T_max {} K at 0.99·P_lb = {} Pa",
            r.name,
            r.energy_t_max,
            0.99 * r.energy_floor
        );
        assert!(
            r.analytic_rel_error < 1e-6,
            "case {}: flow solver drifted {} from the series closed form",
            r.name,
            r.analytic_rel_error
        );
        for a in &r.agreement {
            assert!(
                a.rise_error <= 0.25,
                "case {} at m={}: rise-relative 2RM-vs-4RM error {}",
                r.name,
                a.m,
                a.rise_error
            );
        }
    }
}

/// A same-config replay of the slice reproduces the corpus fingerprint.
/// (The name predates the removal of the solver-thread knob; every solve
/// is now serial.)
#[test]
fn corpus_fingerprint_is_thread_invariant() {
    let base = fingerprint(&sweep());
    assert_eq!(
        fingerprint(&sweep()),
        base,
        "a replay changed the corpus fingerprint"
    );
}
