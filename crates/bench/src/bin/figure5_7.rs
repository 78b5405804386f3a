//! Regenerates Figures 5–7: the quad listing, the AST and the x86 / StrongARM machine
//! code for the paper's `Example.ex(int b)` method.

use autodist::{Distributor, PipelineError};
use autodist_codegen::{ast, generate_method, Target};
use autodist_ir::lower::lower_method;
use autodist_ir::printer::print_quads;

fn main() -> Result<(), PipelineError> {
    let program = Distributor::compile(
        "class Example { int ex(int b) { b = 4; if (b > 2) { b = b + 1; } return b; } }",
    )?;
    let example = program.class_by_name("Example").expect("declared above");
    let id = program.find_method(example, "ex").expect("declared above");
    let qm = lower_method(&program, program.method(id))?;

    println!("Figure 5 — quad listing of Example.ex:");
    println!("{}", print_quads(&program, &qm));

    println!("Figure 6 — AST of the quads:");
    for (block, trees) in ast::build_method_forest(&program, &qm) {
        for t in trees {
            print!("{}", t.render(0));
        }
        let _ = block;
    }
    println!();

    println!("Figure 7 — x86 machine code:");
    for line in generate_method(&program, &qm, Target::X86) {
        println!("    {line}");
    }
    println!();
    println!("Figure 7 — StrongARM machine code:");
    for line in generate_method(&program, &qm, Target::StrongArm) {
        println!("    {line}");
    }
    Ok(())
}
