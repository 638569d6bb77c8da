//! A hand-coded message-passing matrix multiply — the efficiency yardstick
//! the paper measures delayed updates against ("Ideally, this would reduce
//! the amount of network traffic to that achieved by a hand-coded message
//! passing implementation").
//!
//! No DSM anywhere: a master node ships A and B to each worker node, each
//! worker computes its row stripe and ships it back — written straight
//! against the simulation kernel's `Server` interface, the way a V-kernel
//! programmer would have written it. Running it validates the analytic
//! `matmul::ideal_messages` bound used by experiment E5 and provides the
//! true end-to-end latency of the message-passing version.

use munin_net::{MsgClass, PayloadInfo};
use munin_sim::{
    DsmOp, KernelApi, OpOutcome, OpResult, Par, RunReport, Server, ThreadCtx, TransportConfig,
    World, WorldSpec,
};
use munin_types::{NodeId, ThreadId};
use std::sync::{Arc, Mutex};

/// Messages of the hand-coded program.
#[derive(Debug, Clone)]
pub enum MpMsg {
    /// Master → worker: the inputs and this worker's row range.
    Work { a: Vec<f64>, b: Vec<f64>, n: usize, lo: usize, hi: usize },
    /// Worker → master: the computed rows.
    Rows { lo: usize, data: Vec<f64> },
}

impl PayloadInfo for MpMsg {
    fn class(&self) -> MsgClass {
        MsgClass::Data
    }
    fn kind(&self) -> &'static str {
        match self {
            MpMsg::Work { .. } => "MpWork",
            MpMsg::Rows { .. } => "MpRows",
        }
    }
    fn wire_bytes(&self) -> usize {
        match self {
            MpMsg::Work { a, b, .. } => (a.len() + b.len()) * 8,
            MpMsg::Rows { data, .. } => data.len() * 8,
        }
    }
}

/// One node of the message-passing program. The master (node 0) owns the
/// inputs and collects the result; workers compute on arrival.
pub struct MpNode {
    node: NodeId,
    n_nodes: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    n: usize,
    /// Master: rows collected so far; completes the driver thread when full.
    result: Vec<f64>,
    outstanding: usize,
    driver: Option<ThreadId>,
    out: Arc<Mutex<Option<Vec<f64>>>>,
}

impl MpNode {
    fn compute_stripe(a: &[f64], b: &[f64], n: usize, lo: usize, hi: usize) -> Vec<f64> {
        let mut out = vec![0.0; (hi - lo) * n];
        for i in lo..hi {
            for k in 0..n {
                let aik = a[i * n + k];
                if aik != 0.0 {
                    for j in 0..n {
                        out[(i - lo) * n + j] += aik * b[k * n + j];
                    }
                }
            }
        }
        out
    }

    fn stripe(&self, t: usize) -> (usize, usize) {
        (t * self.n / self.n_nodes, (t + 1) * self.n / self.n_nodes)
    }
}

impl Server for MpNode {
    type Payload = MpMsg;

    fn on_op(&mut self, k: &mut dyn KernelApi<MpMsg>, thread: ThreadId, op: DsmOp) -> OpOutcome {
        match op {
            // The driver thread's single `Flush` op means "run the program".
            DsmOp::Flush => {
                debug_assert_eq!(self.node, NodeId(0), "driver runs on the master");
                self.driver = Some(thread);
                self.outstanding = self.n_nodes - 1;
                for t in 1..self.n_nodes {
                    let (lo, hi) = self.stripe(t);
                    k.send(
                        self.node,
                        NodeId(t as u16),
                        MpMsg::Work { a: self.a.clone(), b: self.b.clone(), n: self.n, lo, hi },
                    );
                }
                // The master computes its own stripe meanwhile.
                let (lo, hi) = self.stripe(0);
                let mine = Self::compute_stripe(&self.a, &self.b, self.n, lo, hi);
                self.result[lo * self.n..hi * self.n].copy_from_slice(&mine);
                if self.outstanding == 0 {
                    *self.out.lock().expect("out") = Some(self.result.clone());
                    return OpOutcome::unit(1);
                }
                OpOutcome::Blocked
            }
            DsmOp::Exit => OpOutcome::unit(0),
            other => panic!("message-passing node got unexpected op {other:?}"),
        }
    }

    fn on_message(&mut self, k: &mut dyn KernelApi<MpMsg>, from: NodeId, msg: MpMsg) {
        match msg {
            MpMsg::Work { a, b, n, lo, hi } => {
                let rows = Self::compute_stripe(&a, &b, n, lo, hi);
                k.send(self.node, from, MpMsg::Rows { lo, data: rows });
            }
            MpMsg::Rows { lo, data } => {
                self.result[lo * self.n..lo * self.n + data.len()].copy_from_slice(&data);
                self.outstanding -= 1;
                if self.outstanding == 0 {
                    *self.out.lock().expect("out") = Some(self.result.clone());
                    if let Some(t) = self.driver.take() {
                        k.complete(t, OpResult::Unit, 1);
                    }
                }
            }
        }
    }
}

/// Run the hand-coded message-passing matmul; returns (result, report).
pub fn run_msgpass_matmul(cfg: &munin_apps::matmul::MatmulCfg) -> (Vec<f64>, RunReport) {
    let n = cfg.n as usize;
    let nodes = cfg.nodes;
    let reference_inputs = {
        // Reuse the app's deterministic input generator via its reference
        // (reference = A×B, but we need A and B; regenerate the same way).
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let a: Vec<f64> = (0..n * n).map(|_| (rng.gen_range(-4i32..=4)) as f64).collect();
        let b: Vec<f64> = (0..n * n).map(|_| (rng.gen_range(-4i32..=4)) as f64).collect();
        (a, b)
    };
    let out = Arc::new(Mutex::new(None));
    let mut spec = WorldSpec::new(nodes);
    spec.spawn(NodeId(0), |ctx: &mut ThreadCtx| {
        ctx.flush(); // "go"
    });
    let servers: Vec<MpNode> = (0..nodes)
        .map(|i| MpNode {
            node: NodeId(i as u16),
            n_nodes: nodes,
            a: if i == 0 { reference_inputs.0.clone() } else { vec![] },
            b: if i == 0 { reference_inputs.1.clone() } else { vec![] },
            n,
            result: vec![0.0; n * n],
            outstanding: 0,
            driver: None,
            out: out.clone(),
        })
        .collect();
    let report = World::new(spec, servers, TransportConfig::default(), None).run();
    let result = out.lock().expect("out").take().expect("message-passing matmul finished");
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_apps::matmul;

    #[test]
    fn msgpass_matmul_is_correct() {
        let cfg = matmul::MatmulCfg { n: 24, nodes: 4, seed: 11 };
        let want = matmul::reference(&cfg);
        let (got, report) = run_msgpass_matmul(&cfg);
        report.assert_clean();
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn msgpass_message_count_matches_the_analytic_bound() {
        for nodes in [2usize, 3, 4, 6] {
            let cfg = matmul::MatmulCfg { n: 16, nodes, seed: 3 };
            let (_, report) = run_msgpass_matmul(&cfg);
            report.assert_clean();
            // The Work message carries both A and B (one message, not two):
            // the analytic bound in `matmul::ideal_messages` counts A and B
            // separately, so it over-counts by (nodes-1) — it is a true
            // *upper* structure for Munin to chase. The hand-coded program
            // achieves 2 messages per worker.
            assert_eq!(report.stats.messages, 2 * (nodes as u64 - 1));
            assert!(report.stats.messages <= matmul::ideal_messages(&cfg));
        }
    }
}
