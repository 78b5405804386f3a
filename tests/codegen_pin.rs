//! Pins the assembly the BURS back-end emits, so that a change to the emitter or to a
//! target's rules shows up here first.
//!
//! The corpus is every method of Table 1, Table 3 (`fft` and `montecarlo` among
//! them), `bank` and a default `generated` tree, each together with its two
//! rewritten copies from a 2-node plan, plus [`HAND`], which writes the forms the
//! corpus may lack, and [`FIGURE5`], the method Figures 5–7 print. Every method is
//! lowered to quads and emitted for both targets; each program and target is pinned by
//! an FNV-1a digest of its listing, the listing's line count and three sample
//! instructions. On a mismatch the test prints the whole fresh table in source form.
//! Every listing also keeps the call convention and writes no self-move.

use autodist::{Distributor, DistributorConfig};
use autodist_codegen::{arm, build_method_forest, generate_method, x86, Target, TreeOp};
use autodist_ir::frontend::compile_source;
use autodist_ir::lower::lower_method;
use autodist_ir::Program;
use autodist_workloads::{bank, generated, table1_workloads, table3_workloads, GenConfig};

/// What the corpus may not contain: a compare of two immediates, string, float and
/// `null` constants, `!` and unary `-`, `new int[n]`, `.length` and element stores.
const HAND: &str = r#"
    class Shape {
        int side;
        float scale;
        String label;
        Shape next;
        Shape(int s) { side = s; scale = 1.5; label = "square"; next = null; }
        int area() { return side * side; }
        float scaled() { return scale * 2.0; }
    }
    class Main {
        static int checksum;
        static int[] fill(int n) {
            int[] a = new int[n];
            int i = 0;
            while (i < a.length) { a[i] = -i; i = i + 1; }
            return a;
        }
        static void main() {
            boolean ok = !(checksum > 3);
            if (1 < 2) { checksum = checksum + 1; }
            Shape s = new Shape(3);
            int[] a = fill(4);
            String t = "text";
            if (ok) { checksum = checksum + s.area() + a[2]; }
            if (s.next == null) { checksum = checksum - 1; }
        }
    }
"#;

/// The paper's Figure 5 source, as `figure5_7` compiles it. It has no `main`, so it
/// has no 2-node copies.
const FIGURE5: &str =
    "class Example { int ex(int b) { b = 4; if (b > 2) { b = b + 1; } return b; } }";

/// `(program, target, digest, lines, samples)`: the listing of the program and of its
/// 2-node copies on one target.
type Pin = (&'static str, &'static str, u64, usize, [&'static str; 3]);

const PINS: &[Pin] = &[
    (
        "t1/CreateBench (Custom[])",
        "x86",
        0xd4f093fef0aafb27,
        201,
        ["push r8", "mov eax, ecx", "mov edx, 0"],
    ),
    (
        "t1/CreateBench (Custom[])",
        "arm",
        0x3f3099fea492c852,
        177,
        ["mov R8, #400", "mov R1, R2", "mov R2, #0"],
    ),
    (
        "t1/method",
        "x86",
        0xa4f92ef7e02c86ad,
        295,
        ["mov edx, esi", "cmp edx, ebx", "mov ebx, eax"],
    ),
    (
        "t1/method",
        "arm",
        0xd21493aff2214c46,
        257,
        ["mov R3, R4", "mov R2, #0", "mov R8, #2"],
    ),
    (
        "t1/crypt",
        "x86",
        0xeff3548a176b4b5d,
        374,
        ["mov eax, esi", "jmp BB3", "mov r11, 1"],
    ),
    (
        "t1/crypt",
        "arm",
        0xc375e399f25c78c1,
        336,
        ["mov R1, R4", "b BB3", "mov R11, #1"],
    ),
    (
        "t1/heapsort",
        "x86",
        0x7d4f0cf1f8084c67,
        738,
        ["push eax", "mov [ebp-12], [eax + data]", "jle BB5"],
    ),
    (
        "t1/heapsort",
        "arm",
        0xeba50b51168c3604,
        637,
        ["bl Sorter.siftDown", "mov PC, R14", "cmp R8, R3"],
    ),
    (
        "t1/moldyn",
        "x86",
        0x7f1c8a94fb346c57,
        683,
        [
            "mov eax, ebx",
            "mov [[ebp-4] + ebx*8], [ebp-12]",
            "mov ebx, 0",
        ],
    ),
    (
        "t1/moldyn",
        "arm",
        0xd3444f0ed5a028fd,
        602,
        ["add R3, R2, R8", "add R8, R8, R9", "mov R1, #0"],
    ),
    (
        "t1/search",
        "x86",
        0x7fa11f2d3bbd4f5c,
        445,
        ["call rt_new_Searcher", "add [ebp-24], r21", "push ebx"],
    ),
    (
        "t1/search",
        "arm",
        0x0b3dabb87040de97,
        393,
        ["mov R2, R0", "add R11, R11, R19", "bl rt_new_Board"],
    ),
    (
        "t1/compress",
        "x86",
        0xc37727e623764437,
        813,
        [
            "mov [ebp-12], [[ebp-12] + edi*8]",
            "cmp [ebp-16], [ebp-20]",
            "mov r10, 0",
        ],
    ),
    (
        "t1/compress",
        "arm",
        0x7849ddb95fbe25ab,
        712,
        ["ldr R8, [R0, #data]", "cmp R9, R10", "mov R7, #1"],
    ),
    (
        "t1/db",
        "x86",
        0xa9324190bf6b0d59,
        821,
        ["add esp, 12", "ret", "ret"],
    ),
    (
        "t1/db",
        "arm",
        0x64eddacb56625257,
        717,
        ["mov R1, R5", "b BB6", "mov R2, #0"],
    ),
    (
        "t3/CreateBench (int[])",
        "x86",
        0x546a1e259d4f3084,
        171,
        [
            "call Factory.run",
            "call rt_new_rt/DependentObject",
            "mov ecx, 0",
        ],
    ),
    (
        "t3/CreateBench (int[])",
        "arm",
        0x56b74bde96ba35f1,
        153,
        [
            "bl Factory.run",
            "bl rt_new_rt/DependentObject",
            "mov R2, #0",
        ],
    ),
    (
        "t3/CreateBench (long[])",
        "x86",
        0x546a1e259d4f3084,
        171,
        [
            "call Factory.run",
            "call rt_new_rt/DependentObject",
            "mov ecx, 0",
        ],
    ),
    (
        "t3/CreateBench (long[])",
        "arm",
        0x56b74bde96ba35f1,
        153,
        [
            "bl Factory.run",
            "bl rt_new_rt/DependentObject",
            "mov R2, #0",
        ],
    ),
    (
        "t3/CreateBench (float[])",
        "x86",
        0x231b6a2893e98138,
        171,
        [
            "call Factory.run",
            "call rt_new_rt/DependentObject",
            "mov ecx, 0",
        ],
    ),
    (
        "t3/CreateBench (float[])",
        "arm",
        0x027f151a67a8bc65,
        153,
        [
            "bl Factory.run",
            "bl rt_new_rt/DependentObject",
            "mov R2, #0",
        ],
    ),
    (
        "t3/CreateBench (Object[])",
        "x86",
        0x42cf234ccda7e5d0,
        163,
        ["mov r8, 200", "push [ebp-8]", "cmp edx, ebx"],
    ),
    (
        "t3/CreateBench (Object[])",
        "arm",
        0xb379be752668611a,
        146,
        ["mov R0, R1", "mov R2, R11", "mov R3, #0"],
    ),
    (
        "t3/CreateBench (Custom[])",
        "x86",
        0x58ec862e016f268d,
        201,
        ["push r8", "mov eax, ecx", "mov edx, 0"],
    ),
    (
        "t3/CreateBench (Custom[])",
        "arm",
        0x6bef4aecb65e35d8,
        177,
        ["mov R8, #200", "mov R1, R2", "mov R2, #0"],
    ),
    (
        "t3/method",
        "x86",
        0xec6fb7262b428047,
        295,
        ["mov edx, esi", "cmp edx, ebx", "mov ebx, eax"],
    ),
    (
        "t3/method",
        "arm",
        0x00543c6f6a397ce8,
        257,
        ["mov R3, R4", "mov R2, #0", "mov R8, #2"],
    ),
    (
        "t3/fft",
        "x86",
        0x876497d34b1b81a8,
        492,
        [
            "mov [ebp-12], r8",
            "mov [ebp-8], [ecx + edi*8]",
            "add [ebp-8], [ebp-12]",
        ],
    ),
    (
        "t3/fft",
        "arm",
        0x13cecc22430e5479,
        410,
        ["mul R8, R8, R3", "mul R7, R7, R8", "mov R11, #0.7"],
    ),
    (
        "t3/heapsort",
        "x86",
        0xb005e9354642bb32,
        738,
        ["push eax", "mov [ebp-12], [eax + data]", "jle BB5"],
    ),
    (
        "t3/heapsort",
        "arm",
        0x628d000a1e4b6173,
        637,
        ["bl Sorter.siftDown", "mov PC, R14", "cmp R8, R3"],
    ),
    (
        "t3/moldyn",
        "x86",
        0xd97360cc1207774c,
        683,
        [
            "mov eax, ebx",
            "mov [[ebp-4] + ebx*8], [ebp-12]",
            "mov ebx, 0",
        ],
    ),
    (
        "t3/moldyn",
        "arm",
        0x4fdb93e05f2911e0,
        602,
        ["add R3, R2, R8", "add R8, R8, R9", "mov R1, #0"],
    ),
    (
        "t3/montecarlo",
        "x86",
        0xc890bc69a32b7451,
        321,
        [
            "mov r14, 4000",
            "mov [ebp-12], [ebp-4]",
            "mov edx, [eax + state]",
        ],
    ),
    (
        "t3/montecarlo",
        "arm",
        0x3dc40a6e6dea6283,
        276,
        ["mov R13, #4000", "mul R7, R5, R5", "bge BB4"],
    ),
    (
        "bank",
        "x86",
        0x9f99162eb96f114b,
        768,
        ["add esp, 20", "jmp BB6", "mov [eax + accounts], edi"],
    ),
    (
        "bank",
        "arm",
        0xa9001108f8450713,
        653,
        ["str R18, [SP, #-4]!", "mov PC, R14", "mov R0, R8"],
    ),
    (
        "generated",
        "x86",
        0xaccc159ebb170d51,
        1241,
        [
            "mov [ebp-20], [ebp-16]",
            "mov [ebp-4], [eax + salt]",
            "push ecx",
        ],
    ),
    (
        "generated",
        "arm",
        0xd38825d504eda4db,
        1026,
        ["mov R10, #2", "mov R4, #0", "mov R5, R0"],
    ),
    (
        "hand",
        "x86",
        0xf32422c79537ed6b,
        376,
        ["mov edi, eax", "mov r10, 1", "mov r8, 2"],
    ),
    (
        "hand",
        "arm",
        0xfabb32277cc882c6,
        333,
        ["add R4, R4, R5", "mov R4, #3", "ldr R1, [R0, #scale]"],
    ),
    (
        "figure5",
        "x86",
        0x87669fb821629ec7,
        15,
        ["mov r8, 2", "mov r9, 1", "jmp BB4"],
    ),
    (
        "figure5",
        "arm",
        0xb5441d623aee6c61,
        12,
        ["cmp R1, #2", "mov R8, #1", "b BB4"],
    ),
];

struct Fnv(u64);

impl Fnv {
    fn line(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Each corpus program followed by its two rewritten copies from a 2-node plan.
fn corpus() -> Vec<(String, Vec<Program>)> {
    let mut programs: Vec<(String, Program)> = Vec::new();
    for (table, workloads) in [("t1", table1_workloads(1)), ("t3", table3_workloads(1))] {
        for w in workloads {
            programs.push((format!("{table}/{}", w.name), w.program));
        }
    }
    programs.push(("bank".into(), bank(100).program));
    let tree = generated(&GenConfig::default()).workload.program;
    programs.push(("generated".into(), tree));
    for (name, source) in [("hand", HAND), ("figure5", FIGURE5)] {
        let program = compile_source(source).expect("the source compiles");
        programs.push((name.into(), program));
    }
    let planner = Distributor::new(DistributorConfig::multilevel(2));
    (programs.into_iter())
        .map(|(name, program)| {
            let copies = match program.entry {
                None => Vec::new(),
                Some(_) => (planner.try_distribute(&program))
                    .unwrap_or_else(|e| panic!("{name} plans on two nodes: {e}"))
                    .node_programs
                    .into_iter()
                    .map(|copy| copy.program)
                    .collect(),
            };
            (name, std::iter::once(program).chain(copies).collect())
        })
        .collect()
}

const TARGETS: [(&str, Target); 2] = [("x86", Target::X86), ("arm", Target::StrongArm)];

/// Each corpus program's listing, its copies' included, on each target in turn.
fn listings() -> Vec<(String, &'static str, Vec<String>)> {
    let mut out = Vec::new();
    for (name, programs) in corpus() {
        for (tag, target) in TARGETS {
            let mut lines = Vec::new();
            for program in &programs {
                listing(program, target, &mut lines);
            }
            out.push((name.clone(), tag, lines));
        }
    }
    out
}

/// Every method with a body, in id order: a header line, then its assembly.
fn listing(program: &Program, target: Target, out: &mut Vec<String>) {
    for method in &program.methods {
        if method.body.is_empty() {
            continue;
        }
        out.push(format!(
            "== {}.{}",
            program.class(method.class).name,
            method.name
        ));
        match lower_method(program, method) {
            Ok(qm) => out.extend(generate_method(program, &qm, target)),
            Err(e) => out.push(format!("!! {e}")),
        }
    }
}

/// The first instruction at or after `lines[i]` (labels and headers say little).
fn sample(lines: &[String], i: usize) -> String {
    let instruction = |l: &&String| !l.starts_with("==") && !l.ends_with(':');
    lines[i..]
        .iter()
        .find(instruction)
        .cloned()
        .unwrap_or_default()
}

#[test]
fn every_corpus_method_emits_its_pinned_assembly() {
    let mut fresh = Vec::new();
    for (name, tag, lines) in listings() {
        let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
        for line in &lines {
            hash.line(line);
        }
        let n = lines.len();
        let samples = [n / 4, n / 2, 3 * n / 4].map(|i| sample(&lines, i));
        fresh.push((name, tag, hash.0, n, samples));
    }
    let matches = fresh.len() == PINS.len()
        && fresh.iter().zip(PINS).all(|(f, p)| {
            f.0 == p.0 && f.1 == p.1 && f.2 == p.2 && f.3 == p.3 && f.4 == p.4.map(String::from)
        });
    if !matches {
        println!("const PINS: &[Pin] = &[");
        for (name, tag, digest, n, samples) in &fresh {
            println!(
                "    ({name:?}, {tag:?}, 0x{digest:016x}, {n}, [{:?}, {:?}, {:?}]),",
                samples[0], samples[1], samples[2]
            );
        }
        println!("];");
    }
    assert!(
        matches,
        "the emitted assembly moved; the fresh table is printed above"
    );
}

/// Every listing keeps the call convention: a call that pushed `n` argument slots is
/// followed at once by the pop of exactly `n` slots (and a call that pushed none by no
/// pop), and no push is left without its call, or its pop into a register where a
/// cycle of argument moves was broken. No listing moves a register into itself.
#[test]
fn every_call_pops_what_it_pushed_and_no_move_is_a_self_move() {
    let mut faults = Vec::new();
    for (name, tag, lines) in listings() {
        // How the target pushes an argument, pops `4n` bytes of them, pops a slot into
        // a register, and calls.
        let (push, pop, pop_into, call) = match tag {
            "x86" => (("push ", ""), "add esp, ", ("pop ", ""), "call "),
            _ => (
                ("str ", ", [SP, #-4]!"),
                "add SP, SP, #",
                ("ldr ", ", [SP], #4"),
                "bl ",
            ),
        };
        let (mut pushed, mut owed) = (0, 0);
        for (i, line) in lines.iter().enumerate() {
            let popped = line
                .strip_prefix(pop)
                .map_or(0, |bytes| bytes.parse::<usize>().expect("a byte count") / 4);
            let header = line.starts_with("==");
            if popped != owed || (header && pushed != 0) {
                faults.push(format!(
                    "{name} {tag} line {i}: `{line}` after {owed} slots owed, {pushed} pushed"
                ));
            }
            owed = 0;
            if line.starts_with(push.0) && line.ends_with(push.1) {
                pushed += 1;
            } else if line.starts_with(pop_into.0) && line.ends_with(pop_into.1) {
                pushed -= 1;
            } else if line.starts_with(call) {
                (owed, pushed) = (pushed, 0);
            }
            let moved = line.strip_prefix("mov ").and_then(|m| m.split_once(", "));
            if moved.is_some_and(|(dst, src)| dst == src) {
                faults.push(format!("{name} {tag} line {i}: self-move `{line}`"));
            }
        }
    }
    for fault in &faults {
        println!("{fault}");
    }
    assert!(
        faults.is_empty(),
        "{} listing faults, printed above",
        faults.len()
    );
}

/// No call passes a wrong argument: reducing each call and allocation of the corpus on
/// its own, no move into an argument register reads a register that an earlier move
/// of the same call into an argument register overwrote. (A cycle of moves is broken
/// through the stack, so the move that closes it is a pop, not a read.)
#[test]
fn no_argument_move_reads_a_register_an_earlier_one_overwrote() {
    let mut faults = Vec::new();
    for (name, programs) in corpus() {
        for (tag, target) in TARGETS {
            let dialect = match target {
                Target::X86 => &x86::DIALECT,
                Target::StrongArm => &arm::DIALECT,
            };
            let mut emitter = target.emitter();
            let call = format!("{} ", dialect.call);
            for program in &programs {
                for method in program.methods.iter().filter(|m| !m.body.is_empty()) {
                    let qm = lower_method(program, method).expect("every corpus method lowers");
                    let forest = build_method_forest(program, &qm);
                    let calls = (forest.iter().flat_map(|(_, trees)| trees)).filter(|tree| {
                        matches!(
                            tree.op,
                            TreeOp::Invoke(_) | TreeOp::New(_) | TreeOp::NewArray
                        )
                    });
                    for tree in calls {
                        let lines = emitter.reduce(tree);
                        let mut written: Vec<&str> = Vec::new();
                        for line in lines.iter().take_while(|l| !l.starts_with(&call)) {
                            let moved = line.strip_prefix("mov ").and_then(|m| m.split_once(", "));
                            let Some((dst, src)) = moved else { continue };
                            if written.contains(&src) {
                                faults.push(format!(
                                    "{name} {tag} {}.{}: `{line}` in {lines:?}",
                                    program.class(method.class).name,
                                    method.name
                                ));
                            }
                            if dialect.args.regs.contains(&dst) {
                                written.push(dst);
                            }
                        }
                    }
                }
            }
        }
    }
    for fault in &faults {
        println!("{fault}");
    }
    assert!(
        faults.is_empty(),
        "{} argument moves read an overwritten register, printed above",
        faults.len()
    );
}

/// Every rule left in either table is chosen somewhere in the corpus, so none can
/// change without the pin above noticing. Prints how often each was chosen.
#[test]
fn every_rule_is_chosen_somewhere_in_the_corpus() {
    let corpus = corpus();
    for target in [Target::X86, Target::StrongArm] {
        let mut emitter = target.emitter();
        for program in corpus.iter().flat_map(|(_, programs)| programs) {
            for method in program.methods.iter().filter(|m| !m.body.is_empty()) {
                let qm = lower_method(program, method).expect("every corpus method lowers");
                emitter.method(program, &qm);
            }
        }
        let census = emitter.census();
        println!("{target:?} rule census:");
        for (rule, chosen) in &census {
            println!("  {rule:<16} {chosen:>7}");
        }
        let unused: Vec<_> = census.iter().filter(|(_, n)| *n == 0).collect();
        assert!(
            unused.is_empty(),
            "{target:?} rules never chosen: {unused:?}"
        );
    }
}
