//! `munin-node` — one node of a distributed run.
//!
//! Spawned by the coordinator (`munin_tcp::run_world`); not meant to
//! be started by hand. The process connects its control stream to the
//! coordinator, receives the run configuration — including the protocol
//! tag, resolved against this binary's registry of linked protocols — and
//! then runs its node's coherence server until told to finish.
//!
//! The binary lives in `munin-api` (not the fabric crate) because this is
//! the one place that must link every protocol: the fabric stays
//! protocol-agnostic, and adding a protocol means adding one registry
//! entry here.
//!
//! ```text
//! munin-node --connect 127.0.0.1:<port> --node <index>
//! ```

fn main() {
    let mut args = std::env::args().skip(1);
    let mut connect: Option<String> = None;
    let mut node: Option<u16> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => connect = args.next(),
            "--node" => node = args.next().and_then(|v| v.parse().ok()),
            other => {
                eprintln!("munin-node: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    let (Some(connect), Some(node)) = (connect, node) else {
        eprintln!("usage: munin-node --connect <addr> --node <index>");
        std::process::exit(2);
    };
    std::process::exit(munin_tcp::node::run_node(&connect, node, &munin_api::node_protos()));
}
