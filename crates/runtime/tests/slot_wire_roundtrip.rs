//! Property tests: the slot-interning refactor must be invisible through the wire.
//!
//! Field accesses execute through dense slots locally but travel as a **field-name
//! id** in `DEPENDENCE` messages — resolved from the name by the sender, and against
//! the target's runtime class by the receiver — so two resolutions of the same field,
//! the load-time slot resolution and the wire-boundary resolution on the serving
//! node, must always agree, including under superclass field inheritance and
//! shadowing. These tests drive randomly shaped class hierarchies through (a) the
//! wire format itself and (b) a full distributed execution, and require bit-identical
//! results with the centralized run.

use autodist_codegen::rewrite::{rewrite_for_node, ClassPlacement};
use autodist_ir::frontend::compile_source;
use autodist_ir::layout::ProgramLayout;
use autodist_ir::{Program, Type};
use autodist_runtime::cluster::{run_centralized, run_distributed, ClusterConfig, Schedule};
use autodist_runtime::wire::{decode_head, encode_dependence, AccessKind, FrameHead};
use bytes::BytesMut;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Builds a random single-inheritance hierarchy: `depth` classes, each declaring
/// `fields_per_class` int fields, where class `i` re-declares (shadows) its parent's
/// first field when `shadow[i]` is set.
fn hierarchy(depth: usize, fields_per_class: usize, shadow: &[bool]) -> Program {
    let mut p = Program::new();
    let mut parent = None;
    for (c, &shadowed) in shadow.iter().enumerate().take(depth) {
        let id = p.add_class(&format!("C{c}"), parent);
        for f in 0..fields_per_class {
            let name = if f == 0 && c > 0 && shadowed {
                // shadow the parent's first field
                format!("g{}", c - 1)
            } else {
                format!("g{c}x{f}")
            };
            if p.resolve_field(id, &name).map(|fr| fr.class) != Some(id) {
                p.add_field(id, &name, Type::Int, false);
            }
        }
        parent = Some(id);
    }
    p
}

proptest! {
    /// Every instance field of every class resolves to the same slot before and after
    /// its name transits the wire format — as the id the sender interns it to —
    /// inside a `DEPENDENCE` request.
    #[test]
    fn slot_resolution_survives_wire_transit(
        depth in 1usize..5,
        fields in 1usize..5,
        shadow in prop::collection::vec(any::<bool>(), 5..6),
        target in any::<u64>(),
    ) {
        let p = hierarchy(depth, fields, &shadow);
        let layout = ProgramLayout::build(&p);
        for class in &p.classes {
            for slot in 0..layout.slot_count(class.id) {
                let name = layout
                    .slot_name(class.id, slot as u32)
                    .expect("every slot is named");
                let name_id = layout.field_name_id(name).expect("declared names are interned");
                let mut frame = BytesMut::new();
                encode_dependence(
                    &mut frame,
                    None,
                    target,
                    AccessKind::GetField,
                    name_id,
                    std::iter::empty(),
                );
                let member = match decode_head(&mut frame.freeze()) {
                    Ok(FrameHead::Dependence { member, .. }) => member,
                    other => panic!("wrong request decoded: {other:?}"),
                };
                prop_assert_eq!(
                    layout.slot_of_field_name(class.id, member),
                    Some(slot as u32),
                    "class {} member {}", class.name, name
                );
                prop_assert_eq!(layout.slot_of_name(class.id, name), Some(slot as u32));
            }
        }
    }

    /// End to end: a program whose remote field reads/writes are *rewritten* into
    /// `DependentObject.access(GET_FIELD/PUT_FIELD, "f…")` computes the same checksum
    /// distributed as centralized, for random field counts and stored values. With
    /// `shadowed`, the access goes through a variable of the base type holding a
    /// subclass instance that re-declares `f0`: the sender interns the *name*, the
    /// receiver resolves it against the runtime class.
    #[test]
    fn remote_field_access_by_name_hits_the_same_slots(
        nfields in 1usize..6,
        values in prop::collection::vec(-1000i64..1000, 6..7),
        shadowed in any::<bool>(),
    ) {
        let mut decls = String::new();
        let mut writes = String::new();
        let mut reads = String::new();
        for (f, v) in values.iter().enumerate().take(nfields) {
            decls.push_str(&format!("int f{f};\n"));
            let var = if shadowed && f == 0 { "b" } else { "d" };
            writes.push_str(&format!("{var}.f{f} = {v};\n"));
            reads.push_str(&format!("+ {var}.f{f} * {}", f + 1));
        }
        let base = if shadowed {
            "class BaseData { int f0; }".to_string()
        } else {
            String::new()
        };
        let extends = if shadowed { "extends BaseData " } else { "" };
        let alias = if shadowed { "BaseData b = d;" } else { "" };
        let src = format!(
            r#"
            {base}
            class Data {extends}{{
                {decls}
            }}
            class Main {{
                static int checksum;
                static void main() {{
                    Data d = new Data();
                    {alias}
                    {writes}
                    checksum = 0 {reads};
                }}
            }}
            "#
        );
        let p = compile_source(&src).expect("generated program compiles");
        let centralized = run_centralized(&p, 1.0);
        prop_assert!(centralized.is_ok(), "{:?}", centralized.error);

        let mut home = BTreeMap::new();
        home.insert(p.class_by_name("Main").unwrap(), 0);
        home.insert(p.class_by_name("Data").unwrap(), 1);
        if shadowed {
            home.insert(p.class_by_name("BaseData").unwrap(), 1);
        }
        let placement = ClassPlacement { home, nparts: 2 };
        let rewritten: Vec<_> = (0..2).map(|n| rewrite_for_node(&p, &placement, n)).collect();
        prop_assert_eq!(
            rewritten[0].stats.rewritten_field_accesses,
            2 * nfields,
            "every field access of Main went through the rewriter"
        );
        let copies: Vec<Program> = rewritten.into_iter().map(|r| r.program).collect();
        for schedule in [Schedule::Inline, Schedule::Pool { threads: 2 }] {
            let report = run_distributed(
                &copies,
                &ClusterConfig {
                    schedule,
                    ..ClusterConfig::paper_testbed()
                },
            );
            prop_assert!(report.is_ok(), "{schedule:?}: {:?}", report.error);
            prop_assert_eq!(
                report.final_statics.get("Main::checksum"),
                centralized.final_statics.get("Main::checksum"),
                "{:?}: rewritten access must hit the same slots", schedule
            );
            prop_assert!(report.total_messages() > 0, "fields really crossed the wire");
        }
    }
}
