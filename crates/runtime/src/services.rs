//! The per-node runtime services of Figure 10.
//!
//! Each node of the distributed execution environment runs three supporting services:
//!
//! * the **MPI service** sets up the communication world (groups, communicators and the
//!   communication context — here: one world's [`MpiWorld`] and its per-rank endpoints,
//!   feeding the run's shared ready queue);
//! * the **Execution Starter** invokes the `main()` method of the application class on
//!   the one node where the user launches the program;
//! * the **Message Exchange** service processes all the send/receive communication
//!   generated from the object dependence information (`NEW` and `DEPENDENCE`
//!   messages), using the `DependentObject` and `Message` structures.
//!
//! These types are thin, named façades so that the runtime's structure matches the
//! paper's. The paper's Message Exchange speaks a synchronous request/response
//! protocol, so a root computation has exactly one live control flow; here that one
//! flow is driven by the worker loop in [`crate::sched`], which delivers each packet
//! to [`crate::interp::Interp::accept_request`] or resumes the continuation parked on
//! it — there is no per-node serve loop to run.

use crate::interp::{ExecError, Interp};
use crate::net::{FaultPlan, MpiEndpoint, MpiWorld, NetworkConfig, PacketKind, ReadyQueue};
use crate::value::Value;
use crate::wire::Request;
use std::sync::Arc;

/// The MPI service: owns one world's simulated communication context.
pub struct MpiService {
    world: MpiWorld,
}

impl MpiService {
    /// Initialises the MPI working environment of one world: `nodes` ranks whose
    /// sends publish `(root, rank)` keys on `ready`, with an optional fault plan
    /// wrapping every endpoint's correlated sends.
    pub fn init(
        nodes: usize,
        config: NetworkConfig,
        ready: Arc<ReadyQueue>,
        root: u32,
        plan: Option<FaultPlan>,
    ) -> Self {
        let mut world = MpiWorld::new_serving(nodes, config, ready, root);
        if let Some(plan) = plan {
            world = world.with_fault_plan(plan);
        }
        MpiService { world }
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// Hands out the endpoint for `rank`.
    pub fn endpoint(&mut self, rank: usize) -> MpiEndpoint {
        self.world.take_endpoint(rank)
    }
}

/// The Execution Starter: invokes the application entry point on the launch node.
pub struct ExecutionStarter;

impl ExecutionStarter {
    /// Starts the application by invoking `main()` through the given interpreter.
    pub fn start(interp: &mut Interp<'_>) -> Result<Value, ExecError> {
        interp.run_entry()
    }
}

/// The Message Exchange service. Serving `NEW` / `DEPENDENCE` requests is the worker
/// loop's delivery slice; what remains here is the orderly end of a world.
pub struct MessageExchange;

impl MessageExchange {
    /// Broadcasts an orderly shutdown to every other rank (called by the launch node
    /// once `main` returns).
    pub fn broadcast_shutdown(interp: &mut Interp<'_>) {
        let clock = interp.clock_us;
        if let Some(dist) = interp.dist.as_mut() {
            let me = dist.endpoint.rank;
            let size = dist.endpoint.size;
            for rank in 0..size {
                if rank != me {
                    dist.endpoint.send(
                        rank,
                        PacketKind::Request,
                        Request::Shutdown.encode(),
                        clock,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autodist_ir::frontend::compile_source;

    #[test]
    fn mpi_service_hands_out_each_rank_once() {
        let ready = Arc::new(ReadyQueue::default());
        let mut svc = MpiService::init(3, NetworkConfig::uniform(3), ready, 0, None);
        assert_eq!(svc.size(), 3);
        let e0 = svc.endpoint(0);
        let e2 = svc.endpoint(2);
        assert_eq!(e0.rank, 0);
        assert_eq!(e2.rank, 2);
        assert_eq!(e0.size, 3);
    }

    #[test]
    fn execution_starter_runs_main() {
        let p = compile_source(
            r#"class C { static void main() { int i = 0; while (i < 5) { i = i + 1; } } }"#,
        )
        .unwrap();
        let mut interp = Interp::new(&p);
        let v = ExecutionStarter::start(&mut interp).unwrap();
        assert_eq!(v, Value::Null);
        assert!(interp.counters.instructions > 10);
    }

    #[test]
    fn broadcast_shutdown_without_dist_is_a_noop() {
        let p = compile_source(r#"class C { static void main() { } }"#).unwrap();
        let mut interp = Interp::new(&p);
        MessageExchange::broadcast_shutdown(&mut interp);
        assert_eq!(interp.counters.remote_requests, 0);
    }
}
