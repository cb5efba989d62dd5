//! Declarative operation conflict graphs and the lock-synthesis engine.
//!
//! The paper's Tables 1–8 relate *operations* — `get(k)` vs `put(k, v)`,
//! `size()` vs `remove(k)` — and each collection class in this crate used
//! to re-derive the lock kinds and `(ObsMode, UpdateEffect)` dispatch for
//! its operations by hand. This module makes the conflict graph *data*:
//!
//! * a [`ConflictGraph`] declares the class's operations ([`OpDecl`]: which
//!   observation modes each op locks, which abstract effects it publishes)
//!   and the conflicting operation pairs ([`EdgeDecl`]: observer × updater
//!   → the `(mode, effect)` cell that makes them conflict, and whether the
//!   conflict requires key/range overlap);
//! * [`synthesize`] checks the declaration's soundness (symmetry of the
//!   compatibility relation, reflexive conflicts for mutating observers,
//!   closure under the paper's commutativity rules) and derives a
//!   [`SynthesizedMatrix`] plus the set of lock kinds the class needs;
//! * [`generated_matrix`] is the union of every in-tree class's synthesized
//!   matrix — the production [`mode_compatible`](crate::mode_compatible)
//!   dispatches through it, while the historic hand-written table survives
//!   as [`mode_compatible_spec`](crate::mode_compatible_spec), the oracle
//!   the synthesis is checked against (txlint's oracle pass and
//!   `crates/core/tests/conflict_graph_synthesis.rs` verify all 84 cells).
//!
//! Declarations are `static` plain data so the txlint TX010 pass can check
//! them *lexically* as well: files carrying the conflict-graph marker
//! comment get their `op(..)`/`edge(..)` tables re-validated without
//! running any code. (This file deliberately does *not* carry the marker:
//! its unit tests construct ill-formed graphs on purpose to exercise
//! [`validate`].)

use std::sync::OnceLock;

use crate::locks::{ObsMode, UpdateEffect};
use stm::obs::LockKind;

/// When a declared conflict applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Overlap {
    /// The operations conflict only when the update hits the observed key
    /// or range (keyed observation modes).
    OnOverlap,
    /// The operations conflict regardless of which key the update touches
    /// (whole-collection observation modes).
    Always,
}

/// One operation of a collection class, declared as data.
#[derive(Debug, Clone, Copy)]
pub struct OpDecl<'a> {
    /// Operation name (unique within the graph), e.g. `"get"`.
    pub name: &'a str,
    /// Observation modes the operation locks before reading.
    pub observes: &'a [ObsMode],
    /// Abstract effects the operation publishes at commit.
    pub effects: &'a [UpdateEffect],
}

/// One conflicting operation pair: `observer` (holding `obs`) is doomed by
/// a committing `updater` publishing `effect`.
#[derive(Debug, Clone, Copy)]
pub struct EdgeDecl<'a> {
    /// The observing (reader) operation's name.
    pub observer: &'a str,
    /// The committing (updater) operation's name.
    pub updater: &'a str,
    /// The observation mode through which the conflict is detected.
    pub obs: ObsMode,
    /// The update effect that invalidates the observation.
    pub effect: UpdateEffect,
    /// Whether the conflict requires key/range overlap.
    pub when: Overlap,
}

/// A collection class's full conflict declaration.
#[derive(Debug, Clone, Copy)]
pub struct ConflictGraph<'a> {
    /// Class name, e.g. `"map"` (matches [`SemanticClass::name`]).
    ///
    /// [`SemanticClass::name`]: crate::SemanticClass::name
    pub class: &'a str,
    /// The class's operations.
    pub ops: &'a [OpDecl<'a>],
    /// The conflicting operation pairs.
    pub edges: &'a [EdgeDecl<'a>],
}

/// Declare an operation (const-friendly constructor for `static` graphs).
pub const fn op<'a>(
    name: &'a str,
    observes: &'a [ObsMode],
    effects: &'a [UpdateEffect],
) -> OpDecl<'a> {
    OpDecl {
        name,
        observes,
        effects,
    }
}

/// Declare a conflict edge (const-friendly constructor for `static` graphs).
pub const fn edge<'a>(
    observer: &'a str,
    updater: &'a str,
    obs: ObsMode,
    effect: UpdateEffect,
    when: Overlap,
) -> EdgeDecl<'a> {
    EdgeDecl {
        observer,
        updater,
        obs,
        effect,
        when,
    }
}

/// A total `(mode, effect, overlap)` compatibility matrix synthesized from
/// one or more [`ConflictGraph`] declarations. Cells default to compatible;
/// declared edges mark cells conflicting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthesizedMatrix {
    /// `conflicting[obs.code()][effect.code()][overlap as usize]`.
    conflicting: [[[bool; 2]; 6]; 7],
}

impl Default for SynthesizedMatrix {
    fn default() -> Self {
        SynthesizedMatrix::all_compatible()
    }
}

impl SynthesizedMatrix {
    /// The empty matrix: every cell compatible.
    pub fn all_compatible() -> SynthesizedMatrix {
        SynthesizedMatrix {
            conflicting: [[[false; 2]; 6]; 7],
        }
    }

    /// Mark a cell conflicting. `Always` edges conflict at both overlap
    /// values; `OnOverlap` edges only when the update hits the observed
    /// key/range.
    pub fn mark(&mut self, obs: ObsMode, effect: UpdateEffect, when: Overlap) {
        let (o, e) = (obs.code() as usize, effect.code() as usize);
        self.conflicting[o][e][1] = true;
        if when == Overlap::Always {
            self.conflicting[o][e][0] = true;
        }
    }

    /// The compatibility verdict for one cell (`true` = the operations
    /// commute; same contract as [`mode_compatible`](crate::mode_compatible)).
    pub fn compatible(&self, obs: ObsMode, effect: UpdateEffect, overlap: bool) -> bool {
        !self.conflicting[obs.code() as usize][effect.code() as usize][overlap as usize]
    }

    /// Union another matrix into this one (a cell conflicts if either
    /// operand says it does).
    pub fn merge(&mut self, other: &SynthesizedMatrix) {
        for o in 0..7 {
            for e in 0..6 {
                for v in 0..2 {
                    self.conflicting[o][e][v] |= other.conflicting[o][e][v];
                }
            }
        }
    }

    /// Every conflicting `(mode, effect, overlap)` cell.
    pub fn conflicting_cells(&self) -> Vec<(ObsMode, UpdateEffect, bool)> {
        let mut out = Vec::new();
        for o in ObsMode::ALL {
            for e in UpdateEffect::ALL {
                for ov in [false, true] {
                    if !self.compatible(o, e, ov) {
                        out.push((o, e, ov));
                    }
                }
            }
        }
        out
    }
}

/// The result of synthesizing a sound [`ConflictGraph`].
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The derived compatibility matrix.
    pub matrix: SynthesizedMatrix,
    /// The lock kinds the class needs, derived from the declared
    /// observation modes (sorted, deduplicated).
    pub lock_kinds: Vec<LockKind>,
}

fn find_op<'a, 'g>(graph: &'g ConflictGraph<'a>, name: &str) -> Option<&'g OpDecl<'a>> {
    graph.ops.iter().find(|o| o.name == name)
}

fn has_edge(
    graph: &ConflictGraph<'_>,
    observer: &str,
    updater: &str,
    m: ObsMode,
    e: UpdateEffect,
) -> bool {
    graph
        .edges
        .iter()
        .any(|d| d.observer == observer && d.updater == updater && d.obs == m && d.effect == e)
}

/// Whether an observation mode is keyed (per-key/per-range), i.e. has a
/// meaningful notion of overlap. Matches the production doom protocol's
/// overlap dispatch.
pub fn keyed_mode(m: ObsMode) -> bool {
    matches!(m, ObsMode::Key | ObsMode::Range)
}

/// Soundness-check a declaration. Returns one line per problem; empty means
/// the graph is well-formed and can be synthesized.
///
/// The checks mirror the paper's commutativity analysis:
///
/// 1. **Referential integrity** — op names unique; edges reference declared
///    ops; the edge's mode is among the observer's declared modes and its
///    effect among the updater's declared effects.
/// 2. **Commutativity closure** — keyed modes (`Key`, `Range`) conflict
///    only *on overlap* and only with `KeyWrite` (operations on distinct
///    keys commute, §3.1); whole-collection modes conflict regardless of
///    key, so an `OnOverlap` edge on them is ill-formed.
/// 3. **Symmetry** — compatibility is symmetric: if `(A observes m, B
///    publishes e)` conflicts and B also observes `m` while A also
///    publishes `e`, the mirrored edge must be declared.
/// 4. **Reflexivity** — a mutating observer self-conflicts: an op that both
///    observes `m` and publishes `e`, where the graph declares `(m, e)`
///    conflicting anywhere, must declare its own self-edge.
pub fn validate(graph: &ConflictGraph<'_>) -> Vec<String> {
    let mut errs = Vec::new();
    let class = graph.class;

    for (i, a) in graph.ops.iter().enumerate() {
        if graph.ops[..i].iter().any(|b| b.name == a.name) {
            errs.push(format!("{class}: duplicate op `{}`", a.name));
        }
    }

    for d in graph.edges {
        let Some(obs_op) = find_op(graph, d.observer) else {
            errs.push(format!(
                "{class}: edge references undeclared observer `{}`",
                d.observer
            ));
            continue;
        };
        let Some(upd_op) = find_op(graph, d.updater) else {
            errs.push(format!(
                "{class}: edge references undeclared updater `{}`",
                d.updater
            ));
            continue;
        };
        if !obs_op.observes.contains(&d.obs) {
            errs.push(format!(
                "{class}: edge `{}` vs `{}`: observer does not declare mode {:?}",
                d.observer, d.updater, d.obs
            ));
        }
        if !upd_op.effects.contains(&d.effect) {
            errs.push(format!(
                "{class}: edge `{}` vs `{}`: updater does not declare effect {:?}",
                d.observer, d.updater, d.effect
            ));
        }
        // Commutativity closure (paper §3.1): keyed observations conflict
        // only with an overlapping key write; whole-collection observations
        // conflict independent of key.
        match d.when {
            Overlap::OnOverlap => {
                if !keyed_mode(d.obs) {
                    errs.push(format!(
                        "{class}: edge `{}` vs `{}`: mode {:?} is whole-collection; overlap \
                         cannot gate the conflict (use Always)",
                        d.observer, d.updater, d.obs
                    ));
                }
                if d.effect != UpdateEffect::KeyWrite {
                    errs.push(format!(
                        "{class}: edge `{}` vs `{}`: overlap-gated conflicts must target a \
                         KeyWrite, got {:?}",
                        d.observer, d.updater, d.effect
                    ));
                }
            }
            Overlap::Always => {
                if keyed_mode(d.obs) {
                    errs.push(format!(
                        "{class}: edge `{}` vs `{}`: keyed mode {:?} conflicts only on \
                         overlap (operations on distinct keys commute); Always is ill-formed",
                        d.observer, d.updater, d.obs
                    ));
                }
            }
        }
        // Symmetry of the compatibility relation.
        if obs_op.effects.contains(&d.effect)
            && upd_op.observes.contains(&d.obs)
            && !has_edge(graph, d.updater, d.observer, d.obs, d.effect)
        {
            errs.push(format!(
                "{class}: asymmetric compatibility: `{}` vs `{}` declares ({:?}, {:?}) \
                 conflicting but the mirrored edge `{}` vs `{}` is missing",
                d.observer, d.updater, d.obs, d.effect, d.updater, d.observer
            ));
        }
    }

    // Reflexivity: mutating observers self-conflict on any cell the graph
    // declares conflicting.
    for o in graph.ops {
        for &m in o.observes {
            for &e in o.effects {
                let cell_conflicts = graph.edges.iter().any(|d| d.obs == m && d.effect == e);
                if cell_conflicts && !has_edge(graph, o.name, o.name, m, e) {
                    errs.push(format!(
                        "{class}: op `{}` observes {:?} and publishes {:?} — a cell this \
                         graph declares conflicting — but has no reflexive self-edge",
                        o.name, m, e
                    ));
                }
            }
        }
    }

    errs
}

/// Synthesize the compatibility matrix and lock kinds from a declaration.
/// Fails with the soundness-violation list if the graph is ill-formed.
pub fn synthesize(graph: &ConflictGraph<'_>) -> Result<Synthesis, Vec<String>> {
    let errs = validate(graph);
    if !errs.is_empty() {
        return Err(errs);
    }
    let mut matrix = SynthesizedMatrix::all_compatible();
    for d in graph.edges {
        matrix.mark(d.obs, d.effect, d.when);
    }
    let mut lock_kinds: Vec<LockKind> = graph
        .ops
        .iter()
        .flat_map(|o| o.observes.iter().map(|m| m.lock_kind()))
        .collect();
    lock_kinds.sort_by_key(|k| *k as u8);
    lock_kinds.dedup_by_key(|k| *k as u8);
    Ok(Synthesis { matrix, lock_kinds })
}

/// Every `(mode, effect, overlap)` cell some pair of the graph's declared
/// operations can reach: a declared observation mode crossed with a
/// declared effect, at both overlap values.
pub fn reachable_cells(graph: &ConflictGraph<'_>) -> Vec<(ObsMode, UpdateEffect, bool)> {
    let mut out = Vec::new();
    for m in ObsMode::ALL {
        if !graph.ops.iter().any(|o| o.observes.contains(&m)) {
            continue;
        }
        for e in UpdateEffect::ALL {
            if !graph.ops.iter().any(|o| o.effects.contains(&e)) {
                continue;
            }
            out.push((m, e, false));
            out.push((m, e, true));
        }
    }
    out
}

/// Re-derive the edge set from a matrix over a given op set: for every
/// observer mode × updater effect whose cell conflicts, emit the edge with
/// the overlap condition the matrix encodes. This is the closure of any
/// declaration that synthesizes to `matrix` — used by the round-trip
/// property test (`declaration → matrix → derived graph → same matrix`).
pub fn derive_edges<'a>(matrix: &SynthesizedMatrix, ops: &'a [OpDecl<'a>]) -> Vec<EdgeDecl<'a>> {
    let mut out = Vec::new();
    for a in ops {
        for &m in a.observes {
            for b in ops {
                for &e in b.effects {
                    let at_overlap = !matrix.compatible(m, e, true);
                    let at_no_overlap = !matrix.compatible(m, e, false);
                    let when = match (at_overlap, at_no_overlap) {
                        (true, true) => Overlap::Always,
                        (true, false) => Overlap::OnOverlap,
                        _ => continue,
                    };
                    if !out.iter().any(|d: &EdgeDecl<'a>| {
                        d.observer == a.name && d.updater == b.name && d.obs == m && d.effect == e
                    }) {
                        out.push(edge(a.name, b.name, m, e, when));
                    }
                }
            }
        }
    }
    out
}

/// The conflict graphs of every in-tree collection class, in registration
/// order. txlint's oracle pass re-validates each one and checks the union
/// against [`mode_compatible_spec`](crate::mode_compatible_spec).
pub fn declared_graphs() -> [&'static ConflictGraph<'static>; 8] {
    [
        &crate::map::MAP_CONFLICT_GRAPH,
        &crate::sorted_map::SORTED_MAP_CONFLICT_GRAPH,
        &crate::queue::QUEUE_CONFLICT_GRAPH,
        &crate::set::SET_CONFLICT_GRAPH,
        &crate::eager_map::EAGER_MAP_CONFLICT_GRAPH,
        &crate::multiset::MULTISET_CONFLICT_GRAPH,
        &crate::priority_queue::PRIORITY_QUEUE_CONFLICT_GRAPH,
        &crate::interval_map::INTERVAL_MAP_CONFLICT_GRAPH,
    ]
}

static GENERATED: OnceLock<SynthesizedMatrix> = OnceLock::new();

/// The production dispatch matrix: the union of every in-tree class's
/// synthesized matrix. [`mode_compatible`](crate::mode_compatible) looks
/// cells up here; the historic hand-written table remains available as
/// [`mode_compatible_spec`](crate::mode_compatible_spec) and the two are
/// checked identical on all 84 cells by txlint's oracle pass and the
/// exhaustive test suite.
pub fn generated_matrix() -> &'static SynthesizedMatrix {
    GENERATED.get_or_init(|| {
        let mut m = SynthesizedMatrix::all_compatible();
        for g in declared_graphs() {
            match synthesize(g) {
                Ok(s) => m.merge(&s.matrix),
                Err(errs) => panic!(
                    "ill-formed conflict graph `{}`:\n{}",
                    g.class,
                    errs.join("\n")
                ),
            }
        }
        m
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: &[OpDecl<'static>] = &[
        op("observe", &[ObsMode::Size], &[]),
        op("mutate", &[], &[UpdateEffect::SizeChange]),
    ];

    #[test]
    fn synthesis_marks_declared_cells_only() {
        let g = ConflictGraph {
            class: "t",
            ops: OPS,
            edges: &[edge(
                "observe",
                "mutate",
                ObsMode::Size,
                UpdateEffect::SizeChange,
                Overlap::Always,
            )],
        };
        let s = synthesize(&g).unwrap();
        assert!(!s
            .matrix
            .compatible(ObsMode::Size, UpdateEffect::SizeChange, false));
        assert!(!s
            .matrix
            .compatible(ObsMode::Size, UpdateEffect::SizeChange, true));
        assert_eq!(s.matrix.conflicting_cells().len(), 2);
        assert_eq!(s.lock_kinds, vec![LockKind::Size]);
    }

    #[test]
    fn overlap_gated_edge_requires_keyed_mode_and_key_write() {
        let g = ConflictGraph {
            class: "t",
            ops: OPS,
            edges: &[edge(
                "observe",
                "mutate",
                ObsMode::Size,
                UpdateEffect::SizeChange,
                Overlap::OnOverlap,
            )],
        };
        let errs = synthesize(&g).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("whole-collection")));
    }

    #[test]
    fn keyed_always_edge_is_ill_formed() {
        let ops: &[OpDecl<'static>] = &[
            op("reader", &[ObsMode::Key], &[]),
            op("writer", &[], &[UpdateEffect::KeyWrite]),
        ];
        let g = ConflictGraph {
            class: "t",
            ops,
            edges: &[edge(
                "reader",
                "writer",
                ObsMode::Key,
                UpdateEffect::KeyWrite,
                Overlap::Always,
            )],
        };
        let errs = synthesize(&g).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("distinct keys commute")));
    }

    #[test]
    fn asymmetric_compatibility_is_rejected() {
        let ops: &[OpDecl<'static>] = &[
            op("a", &[ObsMode::Key], &[UpdateEffect::KeyWrite]),
            op("b", &[ObsMode::Key], &[UpdateEffect::KeyWrite]),
        ];
        let g = ConflictGraph {
            class: "t",
            ops,
            edges: &[
                edge(
                    "a",
                    "b",
                    ObsMode::Key,
                    UpdateEffect::KeyWrite,
                    Overlap::OnOverlap,
                ),
                // Mirror (b, a) missing; self-edges missing too.
            ],
        };
        let errs = synthesize(&g).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("asymmetric compatibility")));
        assert!(errs.iter().any(|e| e.contains("self-edge")));
    }

    #[test]
    fn missing_op_and_undeclared_mode_are_rejected() {
        let g = ConflictGraph {
            class: "t",
            ops: OPS,
            edges: &[
                edge(
                    "ghost",
                    "mutate",
                    ObsMode::Size,
                    UpdateEffect::SizeChange,
                    Overlap::Always,
                ),
                edge(
                    "observe",
                    "mutate",
                    ObsMode::Empty,
                    UpdateEffect::SizeChange,
                    Overlap::Always,
                ),
            ],
        };
        let errs = validate(&g);
        assert!(errs.iter().any(|e| e.contains("undeclared observer")));
        assert!(errs.iter().any(|e| e.contains("does not declare mode")));
    }

    #[test]
    fn derive_edges_round_trips() {
        let ops: &[OpDecl<'static>] = &[
            op("get", &[ObsMode::Key], &[]),
            op("put", &[ObsMode::Key], &[UpdateEffect::KeyWrite]),
            op("size", &[ObsMode::Size], &[]),
        ];
        let g = ConflictGraph {
            class: "t",
            ops,
            edges: &[
                edge(
                    "get",
                    "put",
                    ObsMode::Key,
                    UpdateEffect::KeyWrite,
                    Overlap::OnOverlap,
                ),
                edge(
                    "put",
                    "put",
                    ObsMode::Key,
                    UpdateEffect::KeyWrite,
                    Overlap::OnOverlap,
                ),
            ],
        };
        let s = synthesize(&g).unwrap();
        let derived = derive_edges(&s.matrix, ops);
        let g2 = ConflictGraph {
            class: "t2",
            ops,
            edges: &derived,
        };
        assert!(validate(&g2).is_empty(), "derived closure must be sound");
        let s2 = synthesize(&g2).unwrap();
        assert_eq!(s.matrix, s2.matrix, "matrix must survive the round trip");
    }
}
