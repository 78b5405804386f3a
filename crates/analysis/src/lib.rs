//! # autodist-analysis
//!
//! Static dependence analysis for automatic program distribution (Section 2 of the
//! paper). The pipeline is:
//!
//! 1. [`rta`] — Rapid Type Analysis computes the set of instantiated classes, the set
//!    of reachable methods and the call graph.
//! 2. [`crg`] — the **Class Relation Graph**: nodes are the static (`ST`) and dynamic
//!    (`DT`) parts of each class, edges are *use*, *export* and *import* relations
//!    discovered from field accesses, method calls and allocation statements
//!    (paper Figure 3).
//! 3. [`objects`] — the allocation-site object set: single-instance sites (prefix `1`)
//!    and summary sites created inside control structures (prefix `*`).
//! 4. [`odg`] — the **Object Dependence Graph**: *create*, *reference* and *use*
//!    relations between objects, computed by propagating each new reference once
//!    against the export and import relations of the CRG — the least fixed point of the
//!    paper's two rules (paper Figure 4) — with `edges` in one canonical order.
//! 5. [`weights`] — resource models that annotate graph nodes with (memory, CPU,
//!    battery) weight vectors and edges with communication volumes, ready for the
//!    multi-constraint graph partitioner (Section 3).

pub mod crg;
pub mod objects;
pub mod odg;
pub mod rta;
pub mod weights;

pub use crg::{ClassPart, ClassRelationGraph, CrgEdgeKind, CrgNode};
pub use objects::{AllocSite, AllocSiteId, Multiplicity, ObjectSet};
pub use odg::{ObjectDependenceGraph, OdgEdgeKind, OdgNode, OdgNodeId};
pub use rta::{CallGraph, CallSite};
pub use weights::{ResourceVector, WeightModel};
