//! Per-layer microbenchmarks for the traced pass: calls into the public
//! functions of `proto` (the `Wire` codec), `mem` (twin/diff) and `tcp`
//! (frames over a loopback socket pair), timed from outside.

use crate::stats::median;
use munin_core::{MuninMsg, UpdateItem};
use munin_mem::{Diff, TwinStore};
use munin_proto::Wire;
use munin_tcp::frames::{read_frame, write_frame};
use munin_types::{ByteRange, LockId, ObjectId, ThreadId};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Median over `batches` of the mean ns per call of `f`, each batch making
/// `iters` calls.
fn ns_per_call(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut means: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut means).unwrap_or(0.0)
}

/// The `MuninMsg` kinds the codec rows measure, as (label, message).
fn proto_messages() -> Vec<(&'static str, MuninMsg)> {
    let obj = ObjectId(3);
    let old = vec![0u8; 768];
    let mut new = old.clone();
    for w in new.chunks_mut(16) {
        w[0] = 0xa5;
    }
    vec![
        ("atomic_req", MuninMsg::AtomicReq { obj, offset: 0, delta: 17, thread: ThreadId(1) }),
        ("atomic_reply", MuninMsg::AtomicReply { thread: ThreadId(1), old: 123_456 }),
        (
            "read_reply_4kib",
            MuninMsg::ReadReply {
                obj,
                page: None,
                data: vec![7u8; 4096],
                install: true,
                confirm: false,
            },
        ),
        (
            "flush_in",
            MuninMsg::FlushIn {
                session: 9,
                items: vec![UpdateItem::new(obj, Diff::between(&old, &new))],
            },
        ),
        (
            "lock_pass",
            MuninMsg::LockPass { lock: LockId(0), piggyback: vec![(obj, vec![1u8; 24])] },
        ),
    ]
}

/// `proto.{encode,decode}_ns.<kind>`: ns per `Wire::put` / `Wire::take`.
pub fn proto(out: &mut Vec<(String, f64)>) {
    for (kind, msg) in proto_messages() {
        let mut buf = Vec::with_capacity(8192);
        let enc = ns_per_call(15, 2_000, || {
            buf.clear();
            black_box(&msg).put(&mut buf);
            black_box(&buf);
        });
        let bytes = msg.encode();
        let dec = ns_per_call(15, 2_000, || {
            let mut inp = black_box(&bytes[..]);
            black_box(MuninMsg::take(&mut inp).expect("decodes what it encoded"));
        });
        out.push((format!("proto.encode_ns.{kind}"), enc));
        out.push((format!("proto.decode_ns.{kind}"), dec));
    }
}

/// `mem.*_ns_per_kib` over objects of the given byte sizes (the study
/// apps' twinned objects): ns per KiB of object, summed over the sizes.
pub fn mem(sizes: &[usize], out: &mut Vec<(String, f64)>) {
    let (mut sparse, mut dense, mut apply, mut twin) = (0.0, 0.0, 0.0, 0.0);
    for &size in sizes {
        let iters = ((4 << 20) / size.max(1024)).max(4);
        let old: Vec<u8> = (0..size).map(|i| i as u8).collect();
        let flip = |stride: usize| -> Vec<u8> {
            let mut new = old.clone();
            for i in (0..size).step_by(stride) {
                new[i] ^= 0xff;
            }
            new
        };
        // One changed byte in 256 (scattered stores) vs every byte changed.
        let (few, all) = (flip(256), flip(1));
        sparse += ns_per_call(9, iters, || {
            black_box(Diff::between(black_box(&old), black_box(&few)));
        });
        dense += ns_per_call(9, iters, || {
            black_box(Diff::between(black_box(&old), black_box(&all)));
        });
        let diff = Diff::between(&old, &all);
        let mut target = old.clone();
        apply += ns_per_call(9, iters, || diff.apply(black_box(&mut target)));

        // take_diff consumes the twin, so each call needs a fresh
        // `note_write` first; only the take_diff is timed.
        let (obj, range) = (ObjectId(1), ByteRange::new(0, size as u32));
        let mut twins = TwinStore::new();
        let mut means: Vec<f64> = (0..9)
            .map(|_| {
                let mut ns = 0u128;
                for _ in 0..iters {
                    twins.note_write(obj, range, &old);
                    let t = Instant::now();
                    black_box(twins.take_diff(obj, &all));
                    ns += t.elapsed().as_nanos();
                }
                ns as f64 / iters as f64
            })
            .collect();
        twin += median(&mut means).unwrap_or(0.0);
    }
    let kib: f64 = sizes.iter().map(|s| *s as f64 / 1024.0).sum();
    out.push(("mem.diff_between_ns_per_kib.sparse".into(), sparse / kib));
    out.push(("mem.diff_between_ns_per_kib.dense".into(), dense / kib));
    out.push(("mem.diff_apply_ns_per_kib".into(), apply / kib));
    out.push(("mem.twin_take_diff_ns_per_kib".into(), twin / kib));
}

/// `tcp.frame_rtt_us.<size>`: median round trip of one frame written with
/// `frames::write_frame` and echoed back over a loopback socket pair.
pub fn frames(out: &mut Vec<(String, f64)>) -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("loopback bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Connect before the echo thread starts accepting, so a failed connect
    // cannot leave that thread blocked in `accept`.
    let mut s = TcpStream::connect(addr).map_err(|e| format!("loopback connect: {e}"))?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let (mut buf, mut scratch) = (Vec::new(), Vec::new());
        // Echo until the client hangs up.
        while let Ok(frame) = read_frame::<Vec<u8>>(&mut s, &mut buf) {
            write_frame(&mut s, &mut scratch, &frame)?;
        }
        Ok(())
    });
    let result = (|| -> std::io::Result<()> {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        let (mut buf, mut scratch) = (Vec::new(), Vec::new());
        for (label, size, n) in
            [("64b", 64, 3_000), ("4kib", 4096, 2_000), ("256kib", 256 << 10, 150)]
        {
            let frame = vec![0x5au8; size];
            let mut rtts: Vec<f64> = Vec::with_capacity(n);
            for _ in 0..n {
                let t = Instant::now();
                write_frame(&mut s, &mut scratch, &frame)?;
                let back = read_frame::<Vec<u8>>(&mut s, &mut buf)?;
                rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
                if back.len() != size {
                    return Err(std::io::Error::other(format!(
                        "echo returned {} bytes",
                        back.len()
                    )));
                }
            }
            out.push((format!("tcp.frame_rtt_us.{label}"), median(&mut rtts).unwrap_or(0.0)));
        }
        Ok(())
    })();
    // Hanging up ends the echo loop.
    drop(s);
    let echoed = echo.join().map_err(|_| "echo thread panicked".to_string())?;
    result.map_err(|e| format!("frame echo: {e}"))?;
    echoed.map_err(|e| format!("frame echo server: {e}"))
}
