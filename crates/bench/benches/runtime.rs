//! Criterion benchmark: interpreter throughput, message-exchange round trips and the
//! end-to-end centralized vs distributed execution of the Bank example.

use autodist::{Distributor, DistributorConfig};
use autodist_ir::frontend::compile_source;
use autodist_runtime::cluster::{run_centralized, run_distributed, ClusterConfig, Schedule};
use autodist_runtime::wire::{Request, WireValue};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime");
    group.sample_size(15);

    let crypt = autodist_workloads::crypt(400);
    group.bench_function("interpreter_crypt", |b| {
        b.iter(|| run_centralized(&crypt.program, 1.0))
    });

    // The slot-interning microbench: a loop that is nothing but field reads/writes
    // and virtual calls. Before the layout pass every iteration cloned field-name
    // strings and probed per-object maps; now it is pure slot indexing + vtable
    // dispatch (verify with `cargo bench -p autodist-bench --bench runtime`).
    let field_hot = compile_source(
        r#"
        class Acc {
            int a;
            int b;
            int get() { return this.a; }
        }
        class Main {
            static void main() {
                Acc acc = new Acc();
                int i = 0;
                while (i < 5000) {
                    acc.a = acc.a + 1;
                    acc.b = acc.b + acc.get();
                    i = i + 1;
                }
            }
        }
    "#,
    )
    .expect("microbench compiles");
    group.bench_function("field_access_hot_loop", |b| {
        b.iter(|| run_centralized(&field_hot, 1.0))
    });

    group.bench_function("wire_encode_decode", |b| {
        let req = Request::DependenceById {
            target: 7,
            kind: autodist_runtime::wire::AccessKind::InvokeRet,
            member: 3,
            args: vec![WireValue::Int(1), WireValue::Str("x".into())],
        };
        b.iter(|| Request::decode(req.encode()))
    });

    let bank = autodist_workloads::bank(20);
    let plan = Distributor::new(DistributorConfig::default()).distribute(&bank.program);
    let programs = plan.programs();
    group.bench_function("distributed_bank_inline", |b| {
        b.iter(|| {
            run_distributed(
                &programs,
                &ClusterConfig {
                    schedule: Schedule::Inline,
                    ..ClusterConfig::paper_testbed()
                },
            )
        })
    });
    group.bench_function("distributed_bank_pool2", |b| {
        b.iter(|| {
            run_distributed(
                &programs,
                &ClusterConfig {
                    schedule: Schedule::Pool { threads: 2 },
                    ..ClusterConfig::paper_testbed()
                },
            )
        })
    });
    group.bench_function("centralized_bank", |b| {
        b.iter(|| run_centralized(&bank.program, 1.0))
    });
    group.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
