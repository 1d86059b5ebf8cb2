//! Fixture-based self-tests: every rule must fire on a seeded-bad
//! snippet at the expected lines, and stay quiet on its clean
//! counterpart. Fixtures live in `tests/fixtures/` and are analyzed
//! under *virtual* workspace-relative paths, because crate
//! classification (sim vs host-timing vs test code) is derived from the
//! path, not the file's real location.

use cni_lint::rules::{analyze_source, Rule};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// `(rule, line)` pairs of an analysis, in report order.
fn hits(path: &str, src: &str) -> Vec<(Rule, u32)> {
    analyze_source(path, src)
        .findings
        .iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn d1_fires_on_hash_collections_in_sim_crates() {
    // A presence rule: every mention is a finding, iterated or not.
    let src = fixture("d1_bad.rs");
    assert_eq!(
        hits("crates/dsm/src/fixture.rs", &src),
        vec![
            (Rule::NondetMap, 1), // use std::collections::HashMap
            (Rule::NondetMap, 4), // HashMap field
        ]
    );
}

#[test]
fn d1_fires_on_hash_sets_and_qualified_paths() {
    let src = "pub fn dedup(v: &[u32]) -> usize {\n\
               let s: std::collections::HashSet<u32> = v.iter().copied().collect();\n\
               s.len()\n\
               }\n\
               pub type Index = std::collections::HashMap<u32, u32>;\n";
    assert_eq!(
        hits("crates/nic/src/fixture.rs", src),
        vec![(Rule::NondetMap, 2), (Rule::NondetMap, 5)]
    );
}

#[test]
fn d1_quiet_on_keyed_btree_map() {
    let src = fixture("d1_clean.rs");
    assert!(hits("crates/dsm/src/fixture.rs", &src).is_empty());
}

#[test]
fn d1_quiet_on_hash_names_in_comments_and_strings() {
    // The presence rule matches identifiers, not text: docs and messages
    // in a sim crate may still name the hashed collections.
    let src = "/// Keyed like a `HashMap`, but ordered.\n\
               pub fn why() -> &'static str {\n\
               // HashSet iteration order depends on the hasher.\n\
               \"no HashMap here\"\n\
               }\n";
    assert!(hits("crates/dsm/src/fixture.rs", src).is_empty());
}

#[test]
fn d1_quiet_outside_sim_crates() {
    // Same bad source, but under a non-determinism-sensitive crate:
    // cni-batch may key host-side bookkeeping however it likes.
    let src = fixture("d1_bad.rs");
    assert!(hits("crates/batch/src/fixture.rs", &src).is_empty());
}

#[test]
fn d1_quiet_in_cfg_test_code() {
    let src = fixture("d1_test_code.rs");
    assert!(hits("crates/dsm/src/fixture.rs", &src).is_empty());
}

#[test]
fn d1_suppression_waives_and_is_reported_used() {
    let src = fixture("d1_suppressed.rs");
    let analysis = analyze_source("crates/nic/src/fixture.rs", &src);
    assert!(analysis.findings.is_empty(), "{:?}", analysis.findings);
    assert_eq!(analysis.suppressions.len(), 1);
    for s in &analysis.suppressions {
        assert!(s.used, "suppression at line {} unused", s.line);
        assert!(!s.justification.is_empty());
    }
}

#[test]
fn d2_fires_on_host_clocks_anywhere_outside_exempt_modules() {
    let src = fixture("d2_bad.rs");
    // cni-apps is not even a sim crate — D2 applies workspace-wide.
    assert_eq!(
        hits("crates/apps/src/fixture.rs", &src),
        vec![(Rule::HostTime, 4), (Rule::HostTime, 8)]
    );
}

#[test]
fn d2_quiet_in_designated_host_timing_modules() {
    let src = fixture("d2_bad.rs");
    assert!(hits("crates/batch/src/lib.rs", &src).is_empty());
    assert!(hits("crates/figures/src/fixture.rs", &src).is_empty());
}

#[test]
fn d3_fires_on_ambient_randomness_in_sim_crates() {
    let src = fixture("d3_bad.rs");
    assert_eq!(
        hits("crates/sim/src/fixture.rs", &src),
        vec![(Rule::AmbientRng, 2)]
    );
}

#[test]
fn d3_quiet_on_config_seeded_rng() {
    let src = fixture("d3_clean.rs");
    assert!(hits("crates/sim/src/fixture.rs", &src).is_empty());
}

#[test]
fn d4_fires_on_snapshot_encode_paths() {
    let src = fixture("d4_bad.rs");
    let expected = vec![
        (Rule::SnapNondet, 1), // use std::collections::HashMap
        (Rule::SnapNondet, 2), // use std::time::SystemTime
        (Rule::SnapNondet, 4), // HashMap parameter
        (Rule::SnapNondet, 5), // stored SystemTime (even without ::now())
    ];
    assert_eq!(hits("crates/snap/src/fixture.rs", &src), expected);
    assert_eq!(hits("crates/core/src/snapshot.rs", &src), expected);
}

#[test]
fn d4_quiet_on_sorted_collections() {
    let src = fixture("d4_clean.rs");
    assert!(hits("crates/snap/src/fixture.rs", &src).is_empty());
}

#[test]
fn d4_quiet_off_snapshot_paths() {
    // The same source outside the snapshot paths: cni-batch is neither a
    // sim crate (no D1) nor reading a clock (no D2), so nothing fires.
    let src = fixture("d4_bad.rs");
    assert!(hits("crates/batch/src/fixture.rs", &src).is_empty());
}

#[test]
fn d4_outranks_d1_on_snapshot_paths() {
    // `crates/core` is a sim crate, but inside its snapshot module the
    // hashed-collection finding must carry the stricter D4 rule, not D1.
    let src = fixture("d1_bad.rs");
    let found = analyze_source("crates/core/src/snapshot.rs", &src);
    assert!(!found.findings.is_empty());
    assert!(found.findings.iter().all(|f| f.rule == Rule::SnapNondet));
}

#[test]
fn d4_suppression_waives_and_is_reported_used() {
    let src = fixture("d4_suppressed.rs");
    let analysis = analyze_source("crates/snap/src/fixture.rs", &src);
    assert!(analysis.findings.is_empty(), "{:?}", analysis.findings);
    assert_eq!(analysis.suppressions.len(), 1);
    for s in &analysis.suppressions {
        assert!(s.used, "suppression at line {} unused", s.line);
    }
}

#[test]
fn p1_fires_inside_protocol_receive_fns_only() {
    let src = fixture("p1_bad.rs");
    // `push` is an AAL5 receive-path function; the helper below it is
    // not, so its `.expect()` must NOT be flagged.
    assert_eq!(
        hits("crates/atm/src/aal5.rs", &src),
        vec![
            (Rule::PanicPath, 2), // &buf[0..4]
            (Rule::PanicPath, 3), // .unwrap()
            (Rule::PanicPath, 5), // panic!
        ]
    );
}

#[test]
fn p1_quiet_on_get_based_parsing() {
    let src = fixture("p1_clean.rs");
    assert!(hits("crates/atm/src/aal5.rs", &src).is_empty());
}

#[test]
fn p1_covers_pdubuf_view_methods() {
    // The zero-copy PduBuf view/split methods are on the receive path:
    // panicking slice indexing inside them is a P1 finding, while other
    // methods of the same file stay out of scope.
    let src = fixture("p1_bufview_bad.rs");
    assert_eq!(
        hits("crates/atm/src/buf.rs", &src),
        vec![
            (Rule::PanicPath, 3), // &self.data[offset..offset + len]
            (Rule::PanicPath, 8), // .unwrap()
        ]
    );
}

#[test]
fn p1_covers_span_recording_helpers_in_world() {
    // The span-recording helpers (`record_rx_span`, `close_span`) run
    // inside the frame/ack receive paths; panicking operators inside
    // them are P1 findings, while neighbouring setup helpers stay out
    // of scope.
    let src = fixture("p1_span_bad.rs");
    assert_eq!(
        hits("crates/core/src/node.rs", &src),
        vec![
            (Rule::PanicPath, 2), // spans[idx]
            (Rule::PanicPath, 7), // .unwrap()
        ]
    );
}

#[test]
fn p1_quiet_on_panic_free_span_helpers() {
    let src = fixture("p1_span_clean.rs");
    assert!(hits("crates/core/src/node.rs", &src).is_empty());
}

#[test]
fn p1_covers_topology_routing() {
    // Topology routing runs under the fabric's route walk:
    // panicking operators inside `route`/`leaf_of` are P1 findings,
    // while shape arithmetic helpers in the same file stay out of scope.
    let src = fixture("p1_routing_bad.rs");
    assert_eq!(
        hits("crates/atm/src/topology.rs", &src),
        vec![
            (Rule::PanicPath, 2), // &spines[src..dst]
            (Rule::PanicPath, 3), // .unwrap()
            (Rule::PanicPath, 7), // .expect(...)
        ]
    );
}

#[test]
fn p1_quiet_on_panic_free_routing() {
    let src = fixture("p1_routing_clean.rs");
    assert!(hits("crates/atm/src/topology.rs", &src).is_empty());
}

#[test]
fn p1_routing_suppression_waives() {
    let src = fixture("p1_routing_suppressed.rs");
    let analysis = analyze_source("crates/atm/src/topology.rs", &src);
    assert!(analysis.findings.is_empty(), "{:?}", analysis.findings);
    assert_eq!(analysis.suppressions.len(), 1);
    assert!(analysis.suppressions[0].used);
}

#[test]
fn p1_covers_the_collective_dispatch_path() {
    // `arrive_proto` hosts the NIC-collective dispatch on the message
    // receive path; panics there are P1 findings.
    let src = fixture("p1_collective_bad.rs");
    assert_eq!(
        hits("crates/core/src/node.rs", &src),
        vec![
            (Rule::PanicPath, 3), // .unwrap()
            (Rule::PanicPath, 4), // notices[0..1]
        ]
    );
}

#[test]
fn d1_covers_the_obs_crate() {
    // cni-obs folds traces into user-visible reports: its iteration
    // order is part of the determinism contract like any sim crate.
    let src = fixture("d1_bad.rs");
    assert!(!hits("crates/obs/src/fixture.rs", &src).is_empty());
}

#[test]
fn p1_quiet_when_file_is_not_a_receive_path() {
    // The same panicking code outside the registered receive-path files
    // is not P1's business.
    let src = fixture("p1_bad.rs");
    assert!(hits("crates/apps/src/fixture.rs", &src).is_empty());
}

#[test]
fn p1_suppression_on_line_above_waives() {
    let src = fixture("p1_suppressed.rs");
    let analysis = analyze_source("crates/atm/src/aal5.rs", &src);
    assert!(analysis.findings.is_empty(), "{:?}", analysis.findings);
    assert_eq!(analysis.suppressions.len(), 1);
    assert!(analysis.suppressions[0].used);
}

#[test]
fn t1_fires_on_host_threading_in_sim_crates() {
    let src = fixture("t1_bad.rs");
    assert_eq!(
        hits("crates/dsm/src/fixture.rs", &src),
        vec![
            (Rule::HostThread, 1), // use std::sync::{mpsc, Mutex}
            (Rule::HostThread, 4), // Mutex field
            (Rule::HostThread, 8), // mpsc::channel()
            (Rule::HostThread, 9), // std::thread::spawn
        ]
    );
}

#[test]
fn t1_quiet_on_event_queue_style_code() {
    let src = fixture("t1_clean.rs");
    assert!(hits("crates/dsm/src/fixture.rs", &src).is_empty());
}

#[test]
fn t1_quiet_in_the_designated_executor_modules() {
    // The thread-backed co-thread runtime is the one sanctioned
    // host-concurrency site. The program runtime the engine polls and
    // the parallel executor's old module are not exempt: threading there
    // is a finding like anywhere else in the sim crates.
    let src = fixture("t1_bad.rs");
    assert!(!hits("crates/sim/src/task.rs", &src).is_empty());
    assert!(!hits("crates/sim/src/pdes.rs", &src).is_empty());
    assert!(hits("crates/sim/src/cothread.rs", &src).is_empty());
}

#[test]
fn t1_fires_on_every_lock_and_channel_in_the_program_runtime() {
    // The runtime the engine polls shares state through `Rc` and cells;
    // any thread-safe lock or channel creeping back into it is a finding.
    let src = "use std::sync::{Condvar, RwLock};\n\
               use std::cell::{Cell, RefCell};\n\
               use std::rc::Rc;\n\
               pub struct Slot {\n\
               ready: Condvar,\n\
               table: RwLock<Vec<u64>>,\n\
               local: Rc<RefCell<Vec<u64>>>,\n\
               flag: Cell<bool>,\n\
               }\n\
               pub fn wire() {\n\
               let (_tx, _rx) = std::sync::mpsc::channel::<u64>();\n\
               }\n";
    assert_eq!(
        hits("crates/sim/src/task.rs", src),
        vec![
            (Rule::HostThread, 1),  // Condvar and RwLock: one per line
            (Rule::HostThread, 5),  // Condvar field
            (Rule::HostThread, 6),  // RwLock field
            (Rule::HostThread, 11), // mpsc::channel
        ]
    );
}

#[test]
fn t1_quiet_outside_sim_crates() {
    // cni-batch is a host-side worker pool: threads are its job.
    let src = fixture("t1_bad.rs");
    assert!(hits("crates/batch/src/fixture.rs", &src).is_empty());
}

#[test]
fn t1_suppression_waives_and_is_reported_used() {
    let src = fixture("t1_suppressed.rs");
    let analysis = analyze_source("crates/trace/src/fixture.rs", &src);
    assert!(analysis.findings.is_empty(), "{:?}", analysis.findings);
    assert_eq!(analysis.suppressions.len(), 2);
    for s in &analysis.suppressions {
        assert_eq!(s.rule, Rule::HostThread);
        assert!(s.used, "suppression at line {} unused", s.line);
    }
}

#[test]
fn s1_fires_on_malformed_suppressions() {
    let src = fixture("s1_bad.rs");
    assert_eq!(
        hits("crates/dsm/src/fixture.rs", &src),
        vec![
            (Rule::BadSuppression, 1), // unknown rule slug
            (Rule::BadSuppression, 4), // missing `-- <justification>`
        ]
    );
}

// ---------------------------------------------------------------------------
// Interprocedural trio: bad / clean / suppressed for P1, the call-graph
// rule. The bad fixture hides the hazard behind two calls so a token
// scanner could never find it.
// ---------------------------------------------------------------------------

#[test]
fn p1_interproc_finds_panic_two_calls_below_a_receive_root() {
    let src = fixture("p1_interproc_bad.rs");
    let analysis = analyze_source("crates/core/src/gbn.rs", &src);
    let f: Vec<_> = analysis.findings.iter().collect();
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!((f[0].rule, f[0].line), (Rule::PanicPath, 15));
    // The diagnostic must carry the full call chain from the root.
    assert!(
        f[0].message.contains("receive root `Node::on_frame_rx`"),
        "{}",
        f[0].message
    );
    assert!(
        f[0].message
            .contains("Node::on_frame_rx → Node::validate_seq → Node::window_slot"),
        "{}",
        f[0].message
    );
}

#[test]
fn p1_interproc_quiet_when_the_leaf_returns_option() {
    let src = fixture("p1_interproc_clean.rs");
    assert!(hits("crates/core/src/gbn.rs", &src).is_empty());
}

#[test]
fn p1_interproc_suppression_at_the_leaf_waives() {
    let src = fixture("p1_interproc_suppressed.rs");
    let analysis = analyze_source("crates/core/src/gbn.rs", &src);
    assert!(analysis.findings.is_empty(), "{:?}", analysis.findings);
    assert_eq!(analysis.suppressions.len(), 1);
    assert!(analysis.suppressions[0].used);
}

#[test]
fn s2_fires_on_stale_suppressions() {
    let src = fixture("s2_unused.rs");
    let analysis = analyze_source("crates/dsm/src/fixture.rs", &src);
    assert_eq!(
        analysis
            .findings
            .iter()
            .map(|f| (f.rule, f.line))
            .collect::<Vec<_>>(),
        vec![(Rule::UnusedSuppression, 1)]
    );
    assert_eq!(analysis.suppressions.len(), 1);
    assert!(!analysis.suppressions[0].used);
}
