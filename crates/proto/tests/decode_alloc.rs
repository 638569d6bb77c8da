//! A hostile element count must not make the decoder reserve memory the
//! input cannot back. `Vec<T>` decoding bounds the count by the remaining
//! bytes, but an `ObjectDecl` is far larger in memory than one wire byte,
//! so reserving `count` elements up front turned a 4 KiB frame into a
//! ~200 KB allocation (and a frame at the TCP fabric's cap into gigabytes).
//!
//! Its own test binary: the big-allocation counter is process-wide, so no
//! sibling test may run beside it.

#[path = "../../mem/testsupport/counting_alloc.rs"]
mod counting_alloc;

use munin_proto::wire::Wire;
use munin_types::ObjectDecl;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

#[test]
fn hostile_vec_count_reserves_no_more_than_the_input() {
    const INPUT: usize = 4096;
    let count = (INPUT - 4) as u32; // the largest count take_count accepts
    let mut evil = count.to_le_bytes().to_vec();
    evil.resize(INPUT, 0xab);
    assert!(
        count as usize * std::mem::size_of::<ObjectDecl>() >= counting_alloc::BIG,
        "the input must be able to ask for a big reservation"
    );

    let before = counting_alloc::big_allocs();
    assert!(Vec::<ObjectDecl>::decode(&evil).is_err());
    assert_eq!(counting_alloc::big_allocs(), before, "decode reserved a big buffer");
}
