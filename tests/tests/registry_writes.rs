//! Registry writes on every fabric: a runtime retype must reach every
//! node's view of the declarations, whichever fabric hosts the servers.
//!
//! The program is E11's shape: a `GeneralReadWrite` array that is really
//! producer-consumer (thread 1 writes, thread 2 reads, barrier-ordered),
//! with adaptive typing on. The home server detects the pattern and
//! retypes the object through `KernelApi::retype`. With the object homed
//! on node 0 the write is local to the registry's owner; homed on node 1,
//! the TCP fabric sends it from a child process and waits for every
//! node's snapshot to acknowledge it.
//!
//! The barriers fix the protocol's message sequence, so the message count
//! must match across the simulator, the rt kernel and the TCP fabric.

use munin_api::{Backend, Par, ParTyped, ProgramBuilder};
use munin_sim::CoverageMap;
use munin_types::{MuninConfig, SharingType};
use std::sync::Arc;

const GENERATIONS: usize = 40;

/// Run the mistyped producer-consumer program with the object homed on
/// `home`; returns the message count after checking the run and its
/// coverage.
fn retype_run(home: usize, backend: Backend) -> u64 {
    let name = backend.name();
    let mut p = ProgramBuilder::new(3);
    let obj = p.array::<i64>("mistyped", 8, SharingType::GeneralReadWrite, home);
    let bar = p.barrier(0, 2);
    p.thread(1, move |par: &mut dyn Par| {
        for g in 0..GENERATIONS {
            par.set(&obj, 0, g as i64);
            par.barrier(bar);
            par.barrier(bar);
        }
    });
    p.thread(2, move |par: &mut dyn Par| {
        for g in 0..GENERATIONS {
            par.barrier(bar);
            assert_eq!(par.get(&obj, 0), g as i64, "generation {g}");
            par.barrier(bar);
        }
    });
    let cover = Arc::new(CoverageMap::new());
    p.coverage(cover.clone());
    let o = p.run(backend);
    o.assert_clean();

    let rows = cover.rows();
    assert!(
        rows.iter().any(|r| r.key() == "munin/general-rw/home/retype-producer-consumer"),
        "home {home} on {name}: the object was never retyped"
    );
    assert!(
        rows.iter().any(|r| r.proto == "munin" && r.object == "producer-consumer"),
        "home {home} on {name}: no producer-consumer transition after the retype"
    );
    o.report().stats.messages
}

fn backends() -> Vec<Backend> {
    let cfg = || {
        let mut c = MuninConfig::default();
        c.adaptive_typing = true;
        c.adapt_min_samples = 12;
        c
    };
    let mut v = vec![Backend::Munin(cfg()), Backend::MuninRt(cfg())];
    match munin_api::tcp_support() {
        Ok(()) => v.push(Backend::MuninTcp(cfg())),
        Err(notice) => eprintln!("NOTICE: skipping MuninTcp in registry_writes: {notice}"),
    }
    v
}

#[test]
fn retype_reaches_every_node_on_every_fabric() {
    for home in [0, 1] {
        let counts: Vec<(&str, u64)> =
            backends().into_iter().map(|b| (b.name(), retype_run(home, b))).collect();
        let (_, sim) = counts[0];
        for &(name, msgs) in &counts {
            assert_eq!(msgs, sim, "home {home}: {name} sent {msgs} messages, the sim {sim}");
        }
    }
}
