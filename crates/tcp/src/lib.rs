//! # munin-tcp
//!
//! The **multi-process socket fabric** for the protocol servers — the third
//! fabric behind the `KernelApi` seam, after the deterministic virtual-time
//! simulator (`munin-sim`) and the in-process channel fabric (`munin-rt`).
//! It runs `munin-rt`'s one wall-clock node kernel; what it adds is a
//! fabric link ([`SocketLink`]) and the processes around it.
//!
//! ## Shape of a distributed run
//!
//! * **One OS process per node.** The coordinator process is node 0; every
//!   other node is a `munin-node` child process running the *same server
//!   loop and kernel* as the in-process fabric (`munin_rt::server_loop`,
//!   `munin_rt::NodeKernel`), over a [`SocketLink`] whose deliveries are
//!   socket writes. Protocol logic is untouched.
//! * **One TCP stream per node pair.** Per-(src,dst) FIFO — the ordering
//!   assumption the protocols were written against — comes free from the
//!   stream. With coalescing on, everything one server step sends to a
//!   destination leaves as a single length-prefixed `Batch` frame: the
//!   kernel's end-of-step flush is exactly the framing boundary the socket
//!   wants.
//! * **Application threads stay in the coordinator** (closures do not cross
//!   processes): a thread placed on node `j` reaches node `j`'s server via
//!   forwarded `Op` frames and is resumed by `Resume` frames. The apps,
//!   the typed `Par` surface, and the harness are unchanged — all six
//!   study applications run unmodified under `Backend::MuninTcp`/`IvyTcp`.
//! * **A coordinator-hosted registry service** keeps the master copy of
//!   the declarations: reads hit a per-process versioned snapshot;
//!   writes (dynamic allocation, adaptive retyping) are request/reply
//!   frames whose reply arrives only after every node's snapshot acked the
//!   update (see [`registry`] for why that ack-barrier makes cross-stream
//!   ordering a non-issue).
//! * **A distributed stall watchdog**: children heartbeat their activity
//!   epochs and pending-timer counts; when every live thread is blocked
//!   and nothing progresses anywhere for the stall timeout, the
//!   coordinator pulls `debug_stuck_state` from every node over the wire
//!   into the report and poisons the run. `SIGUSR1` triggers the same
//!   collection on demand for runs that are slow but not stuck.
//! * **Faults surface, they don't hang.** A dead node process or a
//!   half-closed stream is noticed by the affected reader/writer, recorded
//!   as an error naming the peer, and poisons the run; blocked threads
//!   tear down exactly as on a watchdog stall.
//!
//! ## Wire format
//!
//! The vendored `serde` is a no-op stub, so [`wire`] is a first-party
//! little-endian codec with property-tested round-trip identity for every
//! message variant; [`frames`] adds u32-length-prefixed framing and the
//! control/data frame vocabularies.

pub mod frames;
pub mod link;
pub mod node;
pub mod registry;
pub mod sig;
pub mod spawn;
pub mod wire;
pub mod world;

pub use frames::TestFault;
pub use link::SocketLink;
pub use spawn::{node_binary, tcp_support};
pub use world::{run_world, TcpTuning};
