//! The PATHFINDER decision DAG.
//!
//! Installed patterns are compiled into a prefix-sharing tree of comparison
//! cells: nodes that examine the same (offset, width, mask) field share a
//! single extraction, and branches fan out by expected value — the software
//! analogue of PATHFINDER's hardware cell lines. Classification walks the
//! tree, collects every accepting pattern on the way, and resolves ties by
//! (priority, pattern length, insertion order). The number of cells visited
//! is reported so callers can charge classification cycles.
//!
//! Fragment handling mirrors the hardware: classify the first fragment,
//! [`Classifier::bind_flow`] the verdict to the VCI, and route the
//! remaining fragments through the binding table without a pattern walk.

use crate::pattern::{FieldTest, Pattern, PatternId};
use cni_trace::{TraceEvent, TraceSink};
use std::collections::BTreeMap;

/// A successful classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassifyOutcome<T> {
    /// Which installed pattern matched.
    pub pattern: PatternId,
    /// The target bound to that pattern (application channel, AIH, ...).
    pub target: T,
    /// Comparison cells evaluated — the classification work done.
    pub cells_visited: u32,
}

struct Installed<T> {
    pattern: Pattern,
    target: T,
    live: bool,
}

struct Node {
    key: (u16, u8, u32),
    /// Sorted by value for deterministic traversal.
    edges: Vec<(u32, NodeChildren)>,
}

#[derive(Default)]
struct NodeChildren {
    accepts: Vec<PatternId>,
    children: Vec<Node>,
}

/// A programmable packet classifier with fragment-flow binding.
///
/// ```
/// use cni_pathfinder::{Classifier, FieldTest, Pattern};
///
/// let mut cls = Classifier::new();
/// cls.install(Pattern::new(vec![FieldTest::byte(0, 0xD6)]), "dsm-page");
/// cls.install(
///     Pattern::new(vec![FieldTest::byte(0, 0xA0), FieldTest::u16(2, 7)]),
///     "app-chan-7",
/// );
///
/// let hit = cls.classify(&[0xA0, 0, 0, 7]).unwrap();
/// assert_eq!(hit.target, "app-chan-7");
///
/// // Fragments of the same PDU skip the pattern walk via the flow table.
/// cls.bind_flow(42, hit.target);
/// assert_eq!(cls.lookup_flow(42), Some(&"app-chan-7"));
/// ```
pub struct Classifier<T> {
    installed: Vec<Installed<T>>,
    roots: Vec<Node>,
    flows: BTreeMap<u16, T>,
    classifications: u64,
}

impl<T: Clone> Default for Classifier<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> Classifier<T> {
    /// An empty classifier.
    pub fn new() -> Self {
        Classifier {
            installed: Vec::new(),
            roots: Vec::new(),
            flows: BTreeMap::new(),
            classifications: 0,
        }
    }

    /// Install `pattern`, routing matches to `target`. Returns the id used
    /// to remove it later.
    pub fn install(&mut self, pattern: Pattern, target: T) -> PatternId {
        assert!(
            !pattern.tests.is_empty(),
            "a pattern needs at least one test"
        );
        let id = PatternId(self.installed.len() as u32);
        self.installed.push(Installed {
            pattern,
            target,
            live: true,
        });
        self.rebuild();
        id
    }

    /// Remove a previously installed pattern. Safe to call twice.
    pub fn remove(&mut self, id: PatternId) {
        if let Some(p) = self.installed.get_mut(id.0 as usize) {
            p.live = false;
            self.rebuild();
        }
    }

    /// Number of live patterns.
    pub fn live_patterns(&self) -> usize {
        self.installed.iter().filter(|p| p.live).count()
    }

    fn rebuild(&mut self) {
        self.roots.clear();
        for (idx, inst) in self.installed.iter().enumerate() {
            if !inst.live {
                continue;
            }
            Self::insert(&mut self.roots, &inst.pattern.tests, PatternId(idx as u32));
        }
    }

    fn insert(level: &mut Vec<Node>, tests: &[FieldTest], id: PatternId) {
        let (test, rest) = tests.split_first().expect("patterns are non-empty");
        let node_pos = match level.iter().position(|n| n.key == test.key()) {
            Some(p) => p,
            None => {
                level.push(Node {
                    key: test.key(),
                    edges: Vec::new(),
                });
                level.len() - 1
            }
        };
        let node = &mut level[node_pos];
        let edge_pos = match node.edges.binary_search_by_key(&test.value, |e| e.0) {
            Ok(p) => p,
            Err(p) => {
                node.edges.insert(p, (test.value, NodeChildren::default()));
                p
            }
        };
        let children = &mut node.edges[edge_pos].1;
        if rest.is_empty() {
            children.accepts.push(id);
        } else {
            Self::insert(&mut children.children, rest, id);
        }
    }

    /// Classify `packet` against the installed patterns.
    ///
    /// Returns the best match (priority, then pattern length, then lowest
    /// id) or `None`. Statistics and the per-call `cells_visited` count the
    /// comparison work.
    pub fn classify(&mut self, packet: &[u8]) -> Option<ClassifyOutcome<T>> {
        let mut cells = 0u32;
        let mut best: Option<PatternId> = None;
        Self::walk(&self.roots, packet, &mut cells, &mut |id| {
            let replace = match best {
                None => true,
                Some(cur) => {
                    let a = &self.installed[id.0 as usize].pattern;
                    let b = &self.installed[cur.0 as usize].pattern;
                    (a.priority, a.tests.len(), std::cmp::Reverse(id.0))
                        > (b.priority, b.tests.len(), std::cmp::Reverse(cur.0))
                }
            };
            if replace {
                best = Some(id);
            }
        });
        self.classifications += 1;
        best.map(|id| ClassifyOutcome {
            pattern: id,
            target: self.installed[id.0 as usize].target.clone(),
            cells_visited: cells,
        })
    }

    /// [`Classifier::classify`], recording a `Classify` trace event for
    /// `node` (the comparison-cell count and whether any pattern accepted).
    /// With a disabled sink this is exactly `classify`.
    pub fn classify_traced(
        &mut self,
        packet: &[u8],
        trace: &TraceSink,
        node: u32,
    ) -> Option<ClassifyOutcome<T>> {
        let out = self.classify(packet);
        if trace.is_enabled() {
            trace.emit(
                node,
                TraceEvent::Classify {
                    cells: out.as_ref().map(|o| o.cells_visited).unwrap_or(1),
                    matched: out.is_some(),
                },
            );
        }
        out
    }

    fn walk(level: &[Node], packet: &[u8], cells: &mut u32, accept: &mut impl FnMut(PatternId)) {
        for node in level {
            *cells += 1;
            let test = FieldTest {
                offset: node.key.0,
                width: node.key.1,
                mask: node.key.2,
                value: 0,
            };
            let Some(actual) = test.extract(packet) else {
                continue;
            };
            if let Ok(pos) = node.edges.binary_search_by_key(&actual, |e| e.0) {
                let hit = &node.edges[pos].1;
                for &id in &hit.accepts {
                    accept(id);
                }
                Self::walk(&hit.children, packet, cells, accept);
            }
        }
    }

    /// Bind a classification verdict to a flow (VCI), so later fragments of
    /// the same PDU skip pattern matching.
    pub fn bind_flow(&mut self, vci: u16, target: T) {
        self.flows.insert(vci, target);
    }

    /// Keyed lookup for a subsequent fragment of a bound flow.
    pub fn lookup_flow(&self, vci: u16) -> Option<&T> {
        self.flows.get(&vci)
    }

    /// Drop a flow binding (PDU complete).
    pub fn unbind_flow(&mut self, vci: u16) {
        self.flows.remove(&vci);
    }

    /// Total classify() calls.
    pub fn classifications(&self) -> u64 {
        self.classifications
    }

    /// Reference implementation: linear scan over live patterns with the
    /// same tie-break rule. Used by tests to validate the DAG.
    pub fn classify_linear(&self, packet: &[u8]) -> Option<PatternId> {
        let mut best: Option<PatternId> = None;
        for (idx, inst) in self.installed.iter().enumerate() {
            if !inst.live || !inst.pattern.matches(packet) {
                continue;
            }
            let id = PatternId(idx as u32);
            let replace = match best {
                None => true,
                Some(cur) => {
                    let a = &inst.pattern;
                    let b = &self.installed[cur.0 as usize].pattern;
                    (a.priority, a.tests.len(), std::cmp::Reverse(id.0))
                        > (b.priority, b.tests.len(), std::cmp::Reverse(cur.0))
                }
            };
            if replace {
                best = Some(id);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demux_classifier() -> Classifier<&'static str> {
        let mut c = Classifier::new();
        // Byte 0 = message kind, bytes 2..4 = channel.
        c.install(
            Pattern::new(vec![FieldTest::byte(0, 1), FieldTest::u16(2, 10)]),
            "app10-data",
        );
        c.install(
            Pattern::new(vec![FieldTest::byte(0, 1), FieldTest::u16(2, 11)]),
            "app11-data",
        );
        c.install(Pattern::new(vec![FieldTest::byte(0, 2)]), "dsm-protocol");
        c
    }

    #[test]
    fn routes_to_distinct_targets() {
        let mut c = demux_classifier();
        assert_eq!(c.classify(&[1, 0, 0, 10]).unwrap().target, "app10-data");
        assert_eq!(c.classify(&[1, 0, 0, 11]).unwrap().target, "app11-data");
        assert_eq!(c.classify(&[2, 0, 0, 99]).unwrap().target, "dsm-protocol");
        assert!(c.classify(&[3, 0, 0, 10]).is_none());
        assert_eq!(c.classifications(), 4);
    }

    #[test]
    fn shared_prefix_is_one_cell() {
        let mut c = demux_classifier();
        // All three patterns examine byte 0, so they share one root cell
        // (kind=1 and kind=2 are value edges of the same node); the walk
        // visits that cell plus the shared u16 channel cell = 2.
        let out = c.classify(&[1, 0, 0, 10]).unwrap();
        assert_eq!(out.cells_visited, 2);
    }

    #[test]
    fn longer_pattern_wins_tie() {
        let mut c = Classifier::new();
        c.install(Pattern::new(vec![FieldTest::byte(0, 7)]), "general");
        c.install(
            Pattern::new(vec![FieldTest::byte(0, 7), FieldTest::byte(1, 9)]),
            "specific",
        );
        assert_eq!(c.classify(&[7, 9]).unwrap().target, "specific");
        assert_eq!(c.classify(&[7, 0]).unwrap().target, "general");
    }

    #[test]
    fn priority_beats_length() {
        let mut c = Classifier::new();
        c.install(
            Pattern::new(vec![FieldTest::byte(0, 7)]).with_priority(5),
            "vip",
        );
        c.install(
            Pattern::new(vec![FieldTest::byte(0, 7), FieldTest::byte(1, 9)]),
            "long",
        );
        assert_eq!(c.classify(&[7, 9]).unwrap().target, "vip");
    }

    #[test]
    fn remove_uninstalls() {
        let mut c = demux_classifier();
        let id = c.classify(&[2, 0]).unwrap().pattern;
        c.remove(id);
        assert!(c.classify(&[2, 0]).is_none());
        assert_eq!(c.live_patterns(), 2);
        c.remove(id); // idempotent
    }

    #[test]
    fn short_packet_does_not_match_deep_pattern() {
        let mut c = demux_classifier();
        assert!(c.classify(&[1]).is_none());
    }

    #[test]
    fn flow_binding_roundtrip() {
        let mut c = demux_classifier();
        assert!(c.lookup_flow(42).is_none());
        c.bind_flow(42, "bound");
        assert_eq!(c.lookup_flow(42), Some(&"bound"));
        c.unbind_flow(42);
        assert!(c.lookup_flow(42).is_none());
    }

    #[test]
    fn dag_agrees_with_linear_reference() {
        let mut c = Classifier::new();
        // A mess of overlapping masked patterns.
        c.install(
            Pattern::new(vec![FieldTest::masked_byte(0, 0xF0, 0x10)]),
            1u32,
        );
        c.install(
            Pattern::new(vec![FieldTest::byte(0, 0x12), FieldTest::byte(1, 3)]),
            2,
        );
        c.install(
            Pattern::new(vec![FieldTest::u16(0, 0x1203)]).with_priority(2),
            3,
        );
        c.install(Pattern::new(vec![FieldTest::byte(1, 3)]), 4);
        for b0 in 0u8..=255 {
            for b1 in [0u8, 3, 7] {
                let pkt = [b0, b1];
                let dag = c.classify(&pkt).map(|o| o.pattern);
                let lin = c.classify_linear(&pkt);
                assert_eq!(dag, lin, "divergence on {pkt:?}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_test() -> impl Strategy<Value = FieldTest> {
        (
            0u16..6,
            prop_oneof![Just(1u8), Just(2u8)],
            any::<u32>(),
            any::<u32>(),
        )
            .prop_map(|(offset, width, mask, value)| {
                let width_mask = if width == 1 { 0xFF } else { 0xFFFF };
                let mask = mask & width_mask;
                FieldTest {
                    offset,
                    width,
                    mask,
                    value: value & mask,
                }
            })
    }

    fn arb_pattern() -> impl Strategy<Value = Pattern> {
        (proptest::collection::vec(arb_test(), 1..4), 0u8..4)
            .prop_map(|(tests, priority)| Pattern { tests, priority })
    }

    proptest! {
        fn dag_equals_linear(
            patterns in proptest::collection::vec(arb_pattern(), 1..12),
            packets in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..10), 1..30),
        ) {
            let mut c = Classifier::new();
            for (i, p) in patterns.into_iter().enumerate() {
                c.install(p, i as u32);
            }
            for pkt in &packets {
                let dag = c.classify(pkt).map(|o| o.pattern);
                let lin = c.classify_linear(pkt);
                prop_assert_eq!(dag, lin);
            }
        }
    }
}
