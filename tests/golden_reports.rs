//! Golden-report snapshot tests: the byte-identity determinism contract
//! (DESIGN.md §4.7) pinned down as checked-in fixtures.
//!
//! Each test runs one canonical configuration and compares the full
//! `RunReport` JSON byte-for-byte against `tests/golden/<name>.json`. Any
//! engine change that alters *anything* observable — an event reordering, a
//! stray cell copy that shifts a counter, a serialization tweak — fails the
//! suite with a unified first-difference diagnostic. Changes that are
//! *supposed* to alter the reports regenerate the fixtures with:
//!
//! ```text
//! CNI_BLESS=1 cargo test --test golden_reports
//! ```
//!
//! The ten configs cover the matrix that matters: both NIC kinds, the
//! lossless fast path and the go-back-N fault path, single-switch and
//! fat-tree fabrics (lossless and lossy with delivery jitter), four
//! process counts, and both programming paradigms: shared memory, and
//! message passing through `send_data`/`recv_data`.
//!
//! What a fixture may pin: anything observable through the `(time, seq)`
//! event order — timings, counters, histograms, fault statistics. What it
//! must not pin: anything else, such as which host thread ran a job.
//! `tests/determinism_props.rs` holds reports byte-identical across
//! reruns and checkpoint resumes over generated configurations. One leak
//! was found and fixed: protocol-cost jitter drawn from a single
//! engine-wide RNG made each draw depend on the global dispatch
//! interleaving rather than the drawing node's own history; it was
//! replaced by per-node streams, and the fixtures re-blessed.

use cni::{Config, World};
use cni_apps::cholesky::CholeskyMatrix;
use cni_apps::experiments::{run_app, App};
use cni_apps::mp_jacobi::{self, MpJacobiParams};
use cni_faults::FaultPlan;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Render `report` exactly as the fixture stores it: pretty JSON plus a
/// trailing newline (so the files are POSIX text files).
fn render(report: &cni::RunReport) -> String {
    let mut s = serde_json::to_string_pretty(report).expect("RunReport serializes");
    s.push('\n');
    s
}

/// Point out the first differing line so a drift failure is debuggable
/// without an external diff tool.
fn first_difference(got: &str, want: &str) -> String {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if g != w {
            return format!(
                "first difference at line {}:\n  got:  {g}\n  want: {w}",
                i + 1
            );
        }
    }
    format!(
        "one report is a prefix of the other (got {} lines, want {})",
        got.lines().count(),
        want.lines().count()
    )
}

fn check_golden(name: &str, cfg: Config, app: App) {
    check_report(name, &run_app(cfg, app));
}

/// Compare `report` byte-for-byte against fixture `name` (or rewrite the
/// fixture under `CNI_BLESS`).
fn check_report(name: &str, report: &cni::RunReport) {
    let got = render(report);
    let path = golden_path(name);
    if std::env::var_os("CNI_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write blessed fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run `CNI_BLESS=1 cargo test --test golden_reports`",
            path.display()
        )
    });
    assert!(
        got == want,
        "golden report `{name}` drifted from {}.\n{}\n\
         If the change is intentional, regenerate with \
         `CNI_BLESS=1 cargo test --test golden_reports`.",
        path.display(),
        first_difference(&got, &want)
    );
}

#[test]
fn jacobi8_cni_report_is_golden() {
    // The paper's canonical configuration: pins the CNI fast path —
    // Message Cache hit/miss counters, AIH dispatch costs, per-op
    // latency histograms — on a lossless single switch.
    check_golden(
        "jacobi8_cni",
        Config::paper_default(),
        App::Jacobi { n: 48, iters: 6 },
    );
}

#[test]
fn jacobi8_standard_report_is_golden() {
    // Same cluster under the baseline NIC: pins the interrupt-driven
    // receive path and kernel-mediated send costs the CNI numbers are
    // compared against.
    check_golden(
        "jacobi8_std",
        Config::paper_default().standard(),
        App::Jacobi { n: 48, iters: 6 },
    );
}

#[test]
fn water8_lossy_report_is_golden() {
    // A lossy channel exercises the go-back-N machinery: the fixture pins
    // retransmit counts, CRC failures, and fault statistics along with the
    // usual timing and cache numbers.
    let plan = FaultPlan {
        drop_prob: 0.02,
        corrupt_prob: 0.01,
        seed: 7,
        ..FaultPlan::none()
    };
    check_golden(
        "water8_lossy",
        Config::paper_default().with_faults(plan),
        App::Water {
            molecules: 27,
            steps: 2,
        },
    );
}

#[test]
fn jacobi64_fat_tree_report_is_golden() {
    // 64 processors across a 4-leaf fat-tree with NIC-resident
    // collectives: pins the multi-switch routing (trunk-link timing,
    // spine contention) and the NIC barrier-combining counters.
    check_golden(
        "jacobi64_ft",
        Config::paper_default()
            .with_fat_tree(4, 16, 16)
            .with_procs(64)
            .with_collectives(),
        App::Jacobi { n: 96, iters: 4 },
    );
}

#[test]
fn jacobi16_fat_tree_lossy_report_is_golden() {
    // Cell loss, corruption and delivery jitter across a 4-leaf
    // fat-tree: pins the lossy fabric's per-cell fates and jittered
    // arrivals on cross-leaf routes, where a frame's cells share
    // uplinks and downlinks with other flows.
    let plan = FaultPlan {
        drop_prob: 0.02,
        corrupt_prob: 0.01,
        jitter_ps: 20_000,
        seed: 7,
        ..FaultPlan::none()
    };
    check_golden(
        "jacobi16_ft_lossy",
        Config::paper_default()
            .with_fat_tree(4, 4, 4)
            .with_procs(16)
            .with_faults(plan),
        App::Jacobi { n: 48, iters: 4 },
    );
}

#[test]
fn cholesky4_report_is_golden() {
    // Irregular task-graph workload on 4 processors: pins lock-chain
    // forwarding and the wait-time decomposition under contention, the
    // counters most sensitive to protocol-handling cost jitter.
    check_golden(
        "cholesky4",
        Config::paper_default().with_procs(4),
        App::Cholesky {
            matrix: CholeskyMatrix::Mesh { rows: 12, cols: 12 },
        },
    );
}

#[test]
fn cholesky4_standard_report_is_golden() {
    // The same Cholesky run under the baseline NIC: pins the fine-grained
    // lock and page traffic through host interrupts and DMA, where the
    // CNI run takes the Message Cache and the AIH.
    check_golden(
        "cholesky4_std",
        Config::paper_default().with_procs(4).standard(),
        App::Cholesky {
            matrix: CholeskyMatrix::Mesh { rows: 12, cols: 12 },
        },
    );
}

/// Message-passing Jacobi on 8 processors: every boundary row is an
/// application message (`send_data` to `recv_data`), so these fixtures pin
/// the app-message send and arrival path, which no DSM run takes.
fn check_mp_jacobi8(name: &str, cfg: Config) {
    let mut world = World::new(cfg);
    let (_, report) = mp_jacobi::run(&mut world, MpJacobiParams { n: 48, iters: 6 });
    check_report(name, &report);
}

#[test]
fn mp_jacobi8_cni_report_is_golden() {
    // Fixed send buffers: transmit-cache hits from the second exchange of
    // each buffer on, and polled receives.
    check_mp_jacobi8("mp_jacobi8_cni", Config::paper_default());
}

#[test]
fn mp_jacobi8_standard_report_is_golden() {
    // Kernel-mediated sends, a DMA per message and an interrupt per
    // arrival.
    check_mp_jacobi8("mp_jacobi8_std", Config::paper_default().standard());
}

#[test]
fn mp_jacobi8_lossy_report_is_golden() {
    // App messages through go-back-N: fragmentation, retransmits and CRC
    // failures on the message-passing path.
    let plan = FaultPlan {
        drop_prob: 0.02,
        corrupt_prob: 0.01,
        seed: 7,
        ..FaultPlan::none()
    };
    check_mp_jacobi8(
        "mp_jacobi8_lossy",
        Config::paper_default().with_faults(plan),
    );
}
