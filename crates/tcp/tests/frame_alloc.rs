//! A hostile frame length must not allocate before the body arrives. The
//! stream reader caps an announced length at `MAX_FRAME_BYTES`, but a peer
//! may announce a frame just under the cap and then send nothing; the
//! reader must not reserve the announced size up front.
//!
//! Its own test binary: the big-allocation counter is process-wide, so no
//! sibling test may run beside it.

#[path = "../../mem/testsupport/counting_alloc.rs"]
mod counting_alloc;

use munin_tcp::frames::{read_frame, MAX_FRAME_BYTES};
use std::io::Write;
use std::net::{TcpListener, TcpStream};

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

#[test]
fn announced_length_without_a_body_allocates_nothing_big() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
    let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (mut reader, _) = listener.accept().expect("accept");

    let announced: u32 = 200 << 20;
    assert!(announced as usize <= MAX_FRAME_BYTES, "the length must pass the cap check");
    peer.write_all(&announced.to_le_bytes()).expect("write the length prefix");
    drop(peer);

    let mut buf = Vec::new();
    let before = counting_alloc::big_allocs();
    let r = read_frame::<Vec<u8>>(&mut reader, &mut buf);
    assert!(r.is_err(), "a frame cut off after its length prefix must fail");
    assert_eq!(counting_alloc::big_allocs(), before, "the reader allocated for bytes never sent");
}
