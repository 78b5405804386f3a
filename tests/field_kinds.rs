//! A static field named through an instance, and an element store into a non-array:
//! two forms the front end once compiled to wrong code, and the verifier check that
//! refuses a field instruction of the other kind than its field.

use autodist::{Distributor, DistributorConfig};
use autodist_ir::bytecode::{Const, Insn};
use autodist_ir::frontend::compile_source;
use autodist_ir::program::{FieldRef, Program, Type};
use autodist_ir::verify::{verify_program, VerifyError};
use autodist_runtime::cluster::{run_centralized, ClusterConfig};
use autodist_runtime::{NetworkConfig, StaticValue};

/// ROADMAP F1's first probe: `a.count = 7` where `count` is static.
const STATIC_THROUGH_INSTANCE: &str =
    "class A { static int count; static int get() { return count; } } \
     class Main { static int checksum; static void main() { A a = new A(); a.count = 7; \
     checksum = A.get(); } }";

fn two_nodes() -> ClusterConfig {
    ClusterConfig {
        network: NetworkConfig {
            node_speeds: vec![1.0; 2],
            ..NetworkConfig::paper_testbed()
        },
        ..ClusterConfig::default()
    }
}

#[test]
fn a_static_named_through_an_instance_is_the_static() {
    let program = compile_source(STATIC_THROUGH_INSTANCE).expect("compiles");
    verify_program(&program).expect("verifies");
    let seven = Some(&StaticValue::Int(7));
    let central = run_centralized(&program, 1.0);
    assert!(central.error.is_none(), "{:?}", central.error);
    assert_eq!(central.final_statics.get("A::count"), seven);
    assert_eq!(central.final_statics.get("Main::checksum"), seven);
    let plan = Distributor::new(DistributorConfig::multilevel(2))
        .try_distribute(&program)
        .expect("plans on two nodes");
    let report = plan.try_execute(&two_nodes()).expect("runs on two nodes");
    assert_eq!(report.final_statics.get("A::count"), seven);
    assert_eq!(report.final_statics.get("Main::checksum"), seven);
    // The read goes to the static too.
    let read = STATIC_THROUGH_INSTANCE.replace("A.get()", "a.count");
    let report = run_centralized(&compile_source(&read).expect("compiles"), 1.0);
    assert_eq!(report.final_statics.get("Main::checksum"), seven);
}

#[test]
fn an_element_store_into_a_non_array_is_refused_like_the_read() {
    for body in ["int y = 3; y[0] = 2;", "int y = 3; int z = y[0];"] {
        let source = format!("class Main {{\n  static void main() {{\n    {body}\n  }}\n}}");
        let e = compile_source(&source).expect_err("refused");
        assert_eq!(
            (e.line, e.message.as_str()),
            (2, "indexing a non-array"),
            "{body}"
        );
    }
}

/// A class `C` with an instance field `f` and a static field `s`, and a static `main`
/// whose body is `body`.
fn hand_built(body: impl FnOnce(FieldRef, FieldRef) -> Vec<Insn>) -> Program {
    let mut p = Program::new();
    let c = p.add_class("C", None);
    let f = p.add_field(c, "f", Type::Int, false);
    let s = p.add_field(c, "s", Type::Int, true);
    let main = p.add_method(c, "main", vec![], Type::Void, true);
    p.set_body(main, body(f, s), 1);
    p.set_entry(main);
    p
}

#[test]
fn a_field_instruction_of_the_other_kind_is_a_verify_error() {
    let get_field_on_static = hand_built(|_, s| {
        let new = Insn::New(s.class);
        vec![new, Insn::GetField(s), Insn::Pop, Insn::Return]
    });
    let errors = verify_program(&get_field_on_static).unwrap_err();
    assert!(
        matches!(
            errors[..],
            [VerifyError::FieldKindMismatch {
                pc: 1,
                static_field: true,
                ..
            }]
        ),
        "{errors:?}"
    );
    let put_static_on_instance =
        hand_built(|f, _| vec![Insn::Const(Const::Int(1)), Insn::PutStatic(f), Insn::Return]);
    let errors = verify_program(&put_static_on_instance).unwrap_err();
    assert!(
        matches!(
            errors[..],
            [VerifyError::FieldKindMismatch {
                pc: 1,
                static_field: false,
                ..
            }]
        ),
        "{errors:?}"
    );
    // The same bodies with the matching instructions verify.
    let matching = hand_built(|f, s| {
        let new = Insn::New(f.class);
        vec![new, Insn::GetField(f), Insn::PutStatic(s), Insn::Return]
    });
    verify_program(&matching).expect("verifies");
}
